#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...    # every workload, then a table
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (a standalone CMake package that compiles ../src in Release)
into .bench_build/perfbench; later calls only re-check the build. The
benchmark binary prints a provenance stamp, human-readable distributions
and, as the last line of stdout, the JSON result. The exit code is the
binary's: nonzero when any output digest mismatched.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("session_5g", "session_supervised", "fleet_sweep", "world_sharded")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def scratch_env():
    """Environment that keeps compiler temporaries inside the build tree."""
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; stops on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout,
                              env=scratch_env())
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(map(str, cmd))}")


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}; run from a full checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_logged(["cmake", "--build", str(BUILD_DIR), "--target", target, "-j", jobs],
               BUILD_TIMEOUT_S)
    return BUILD_DIR / target


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the simulator and benchmark sources, so results from a
    checkout without git history can still be told apart."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the derived-metric self-tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([str(binary)], timeout=RUN_TIMEOUT_S,
                                env=scratch_env()).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build("athena_perfbench")
    stamp = ["--git-rev", git_rev(), "--src-digest", source_digest()]

    def run(workload, capture):
        cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + stamp
        sys.stdout.flush()
        try:
            return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=scratch_env(),
                                  capture_output=capture, text=capture)
        except subprocess.TimeoutExpired:
            fail(f"benchmark exceeded {RUN_TIMEOUT_S} s on {workload}")

    if args.workload != "all":
        sys.exit(run(args.workload, capture=False).returncode)

    worst = 0
    rows = []
    for workload in WORKLOADS:
        done = run(workload, capture=True)
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        worst = max(worst, done.returncode)
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = {}
        for name, metric in result.get("metrics", {}).items():
            rows.append(f"{workload:20s} {name:34s} {metric['value']:.6g} {metric['unit']}")
        rows.append(f"{workload:20s} {'correct':34s} {result.get('correct')} "
                    f"({result.get('failed')} of {result.get('attempted')} checks failed)")
    print("\n".join(rows))
    sys.exit(worst)


if __name__ == "__main__":
    main()
