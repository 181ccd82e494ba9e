#!/bin/sh
# Benchmark trajectory: builds Release and runs the perf series that emit
# machine-readable results (bench/bench_json.h), leaving BENCH_oracle.json
# and BENCH_trace.json in $BENCH_OUT for CI to upload as artifacts. The
# perf_trace_overhead binary also enforces the <2% disabled-path tracing
# overhead bound (non-zero exit on violation).
#
# Environment:
#   BUILD_DIR   build tree (default: <repo>/build-bench, Release)
#   JOBS        compile parallelism (default: nproc)
#   BENCH_OUT   where the BENCH_*.json land (default: current directory)
#   CMAKE_ARGS  extra cmake configure arguments (e.g. a ccache launcher)
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build-bench}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
OUT="${BENCH_OUT:-$(pwd)}"

# shellcheck disable=SC2086  # CMAKE_ARGS is intentionally word-split
cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release ${CMAKE_ARGS:-}
cmake --build "$BUILD" -j "$JOBS" \
    --target perf_oracle_batch perf_trace_overhead perf_serve

mkdir -p "$OUT"
cd "$OUT"
"$BUILD/bench/perf_oracle_batch" --benchmark_min_time=0.1
"$BUILD/bench/perf_trace_overhead" --benchmark_min_time=0.1
# Daemon cold/warm latency and QPS; enforces the >=50x warm-repeat bound.
"$BUILD/bench/perf_serve"
echo "bench.sh: results in $OUT/BENCH_oracle.json, $OUT/BENCH_trace.json," \
     "and $OUT/BENCH_serve.json"
