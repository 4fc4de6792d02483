#!/usr/bin/env bash
# Builds and runs the sharded-world scaling baseline:
#   - bench_world — the 512-UE, 8-cell, 2-virtual-second world at 1, 2,
#     and 8 shards: wall / busy / modeled-critical-path timing, digest +
#     FleetReport byte-identity across shard counts, the conservation
#     ledger, and the modeled >=5x-at-8-shards acceptance number —
#     written to BENCH_world.json at the repo root. The JSON also
#     carries a "resilience" block from a supervised kill/restore run:
#     world-checkpoint size, serialize cost, restore replay latency,
#     and recovered-digest identity against the uninterrupted oracle.
#     A "memory" block records peak RSS after one 1-shard run and after
#     one four times as long, both before any threaded run; the modeled
#     speedups are medians over interleaved repeated sequential runs,
#     with their quartiles. The file is stamped with the build type and
#     `git describe --dirty`.
#
# Usage: bench/run_bench_world.sh [build-dir] [--smoke]
#   (default build dir: ./build; --smoke uses the reduced CI sizing)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build"
smoke=""
for arg in "$@"; do
  case "$arg" in
    --smoke) smoke="--smoke" ;;
    *) build_dir="$arg" ;;
  esac
done

if [ ! -d "$build_dir" ]; then
  cmake -B "$build_dir" -S "$repo_root"
fi
cmake --build "$build_dir" --target bench_world -j "$(nproc)"

git_rev="$(git -C "$repo_root" describe --always --dirty 2>/dev/null || echo unknown)"

echo "== bench_world =="
"$build_dir/bench/bench_world" "$repo_root/BENCH_world.json" --git-rev="$git_rev" $smoke
