#!/usr/bin/env bash
# Runs the three google-benchmark micro suites and tees each one's results
# into a machine-readable BENCH_<suite>.json snapshot (see bench/bench_json.h
# and WriteBenchJson in bench/bench_common.{h,cc}).
#
# Usage:
#   scripts/run_micro_benches.sh [build_dir] [out_dir] [extra benchmark args...]
#
#   build_dir  defaults to ./build   (must contain bench/micro_*)
#   out_dir    defaults to ./bench/results
#
# Examples:
#   scripts/run_micro_benches.sh
#   scripts/run_micro_benches.sh build /tmp/perf --benchmark_min_time=0.5
#
# Snapshots are plain JSON: {suite, threads_available, benchmarks:[{name,
# iterations, ns_per_op, counters}...]}. threads_available matters when
# reading the thread-scaling rows (BM_QueryThroughputCfqlParallel/N):
# they are meaningless without knowing how many hardware threads the
# machine actually had.
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir="${1:-build}"
out_dir="${2:-bench/results}"
shift $(( $# > 2 ? 2 : $# )) || true

for suite in micro_matching micro_intersect micro_cache; do
  bin="${build_dir}/bench/${suite}"
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not built (cmake --build ${build_dir} --target ${suite})" >&2
    exit 1
  fi
done

mkdir -p "${out_dir}"
for suite in micro_matching micro_intersect micro_cache; do
  echo "==> ${suite}"
  SGQ_BENCH_JSON_DIR="${out_dir}" "${build_dir}/bench/${suite}" "$@"
done

echo "snapshots in ${out_dir}:"
ls -l "${out_dir}"/BENCH_*.json
