#!/usr/bin/env bash
# Builds athena_cli and runs the chaos matrix on both axes: every
# catalog scenario (session and world) under the plain contracts, then
# every session scenario as a mitigation on/off pair. Each run checks
# its contract (no crash, monotone virtual time, bounded queues,
# degradation reported — never silent; QoE held and guardrails engaged
# under mitigation; conservation, recovery and blast radius for worlds).
#
# Each axis runs twice, with 1 worker and with 8, and the per-run digests
# (the ledger_digest for mitigation pairs) are diffed, then the whole
# reports: identical (scenario, seed) pairs must be byte-identical
# whatever the job count. The 8-worker reports land at the repo root as
# BENCH_chaos.json and BENCH_mitigation.json; the ctest
# bench_chaos_digest_pinned fails when the code drifts from them.
#
# Usage: bench/run_chaos_matrix.sh [build-dir] [seeds]
#   build-dir  default ./build
#   seeds      seeds per scenario, default 4
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
seeds="${2:-4}"

if [ ! -d "$build_dir" ]; then
  cmake -B "$build_dir" -S "$repo_root"
fi
cmake --build "$build_dir" --target athena_cli -j "$(nproc)"

cli="$build_dir/examples/athena_cli"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# run_axis NAME OUT DIGEST_KEY [athena_cli flags...]
run_axis() {
  local name="$1" out="$2" key="$3"
  shift 3
  for jobs in 1 8; do
    echo "== $name (all scenarios x $seeds seeds, $jobs worker(s)) =="
    "$cli" --chaos=all --chaos-seeds="$seeds" --jobs="$jobs" "$@" \
      --chaos-out="$tmp/${name}_j$jobs.json"
    echo
  done
  grep -o "\"$key\": \"[0-9a-f]*\"" "$tmp/${name}_j1.json" > "$tmp/${name}_d1.txt"
  grep -o "\"$key\": \"[0-9a-f]*\"" "$tmp/${name}_j8.json" > "$tmp/${name}_d8.txt"
  if ! diff -q "$tmp/${name}_d1.txt" "$tmp/${name}_d8.txt" > /dev/null; then
    echo "FAIL: $name ${key}s differ between --jobs=1 and --jobs=8" >&2
    diff "$tmp/${name}_d1.txt" "$tmp/${name}_d8.txt" >&2 || true
    exit 1
  fi
  if ! diff <(grep -v '"jobs":' "$tmp/${name}_j1.json") \
            <(grep -v '"jobs":' "$tmp/${name}_j8.json") > /dev/null; then
    echo "FAIL: $name reports differ between --jobs=1 and --jobs=8" >&2
    exit 1
  fi
  echo "$name: $(wc -l < "$tmp/${name}_d1.txt") ${key}s byte-identical across --jobs=1 and --jobs=8"
  cp "$tmp/${name}_j8.json" "$repo_root/$out"
  echo "wrote $repo_root/$out"
  echo
}

run_axis chaos BENCH_chaos.json digest
run_axis mitigation BENCH_mitigation.json ledger_digest --mitigate
