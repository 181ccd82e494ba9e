#!/bin/sh
# Full CI gate: tier-1 unit suite, the slow golden-outcome regression
# sweep (tests/test_golden_defacto.cpp), a fixed-seed-range fuzz
# campaign smoke stage (label `fuzz`, excluded from tier-1), the
# batch-protocol determinism matrix (label `serve_batch`,
# tests/test_serve_batch.cpp — also part of tier-1, re-run by label so a
# registration slip cannot silently drop it), the evaluation-daemon
# lifecycle smoke (label `serve_smoke`, scripts/serve_smoke.sh through
# the real CLI, including the `cerb suite --server` batch rounds), and
# the fault-injection chaos soak of the serve stack (label `chaos`,
# tests/test_chaos.cpp; replay a failure with
# CERB_CHAOS_SEED=<seed from the log>). Use
# scripts/tier1.sh alone for the fast inner loop; this script is what a
# merge gate should run.
#
# Environment:
#   BUILD_DIR             build tree (default: <repo>/build)
#   JOBS                  compile parallelism (default: nproc)
#   CTEST_PARALLEL_LEVEL  test parallelism (default: $JOBS)
#   CMAKE_ARGS            extra cmake configure arguments
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
TEST_JOBS="${CTEST_PARALLEL_LEVEL:-$JOBS}"

# shellcheck disable=SC2086  # CMAKE_ARGS is intentionally word-split
cmake -B "$BUILD" -S "$ROOT" ${CMAKE_ARGS:-}
cmake --build "$BUILD" -j "$JOBS"
cd "$BUILD"

# Runs every test carrying one ctest label. A label matching zero tests
# (renamed label, broken test registration) must fail the gate, not
# silently pass it: `ctest -L nosuch` exits 0 with "No tests were found".
run_label() {
    label="$1"
    if ctest -N -L "$label" | grep -q "Total Tests: 0"; then
        echo "ci.sh: label '$label' matches no tests" >&2
        exit 1
    fi
    ctest --output-on-failure -L "$label" -j "$TEST_JOBS"
}

run_label tier1
# Core lowering units and outcome sweep against
# tests/goldens/lowering_outcomes.golden (label `lowering`,
# tests/test_lowering.cpp): also part of tier-1, re-run by label so the
# recorded outcome contract cannot silently drop out.
run_label lowering
# The printed-Core contract (label `core_print`, tests/test_core_print.cpp):
# Core printed after elaboration and after the whole compile, lowering
# statistics and constant pools against tests/goldens/core_print.golden.
run_label core_print
# The crash and memory shapes (label `robustness`,
# tests/test_robustness.cpp), whose peak-RSS bound gates every memory
# shape, and the reproducer corpus against
# tests/goldens/corpus_outcomes.golden (label `corpus`,
# tests/test_corpus.cpp): both part of tier-1, re-run by label so neither
# can drop out of the gate unnoticed.
run_label robustness
run_label corpus
run_label slow
run_label fuzz
run_label serve_batch
run_label serve_smoke
run_label chaos

# Docs stage: docs/cli.md must match `cerb --help` byte for byte, so the
# CLI reference cannot drift from the binary.
sh "$ROOT/scripts/check_docs.sh" "$BUILD/cerb"
