#!/usr/bin/env bash
# Builds and runs the telemetry-pipeline baseline:
#   - bench_telemetry — multi-producer ring-ingest throughput (and the
#     single-ring SPSC ceiling), rollup fold rate + flat-memory proof
#     across a 10× virtual horizon, and ATHC columnar write/read
#     throughput with the digest round-trip check, and the per-event
#     cost of the ATHC writer, its digest and the rollup on a recorded
#     session stream — written to BENCH_telemetry.json at the repo root,
#     stamped with build type, git revision and hardware_concurrency.
#
# Usage: bench/run_bench_telemetry.sh [build-dir] [--smoke]
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
cmake --build "$build_dir" --target bench_telemetry -j "$(nproc)"

git_rev="$(git -C "$repo_root" describe --always --dirty 2>/dev/null || echo unknown)"

echo "== bench_telemetry =="
"$build_dir/bench/bench_telemetry" "$repo_root/BENCH_telemetry.json" \
  --git-rev="$git_rev" $smoke
