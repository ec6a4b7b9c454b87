#!/bin/bash
# Pre-merge gate: the full correctness matrix, one command.
#
#   scripts/ci.sh
#
# Steps (each in its own build tree, all warning-clean via PAFEAT_WERROR):
#   release   Release build + full ctest suite — includes pafeat_lint_test
#             (tree-wide determinism/concurrency lint), the lint self-test,
#             and the generated per-header self-containment TUs
#   analyze   The cross-TU semantic pass (pafeat-analyze) standalone: rule
#             self-tests, then the tree gate over src/ — any new rng-escape /
#             borrow-across-mutation / hot-path-alloc / pool-reentrancy
#             finding fails the run (ctest covers this too via
#             pafeat_analyze_{selftest,tree}; the dedicated step makes the
#             analyzer's verdict a first-class row in the summary table)
#   generic   The same release binaries re-tested under PAFEAT_SIMD=generic:
#             the capability ladder's forced-downgrade contract (every suite
#             passes, and every golden holds, at every compiled-in level)
#             exercised with the portable kernels dispatched process-wide
#   asan      scripts/check.sh asan  (ASan + UBSan + checked assertions),
#             with PAFEAT_CACHE_BUDGET=65536 so every reward cache that doesn't
#             set an explicit budget runs under a binding ~64KB ceiling —
#             the clock-sweep eviction and slab-reuse paths churn
#             continuously while ASan watches the freed slots
#   tsan      scripts/check.sh tsan  (ThreadSanitizer): the collection
#             rendezvous stress runs 8 collectors racing on the pool and the
#             shared reward-cache locks, exactly the traffic TSan should see
#   benchmark benchmark/run_benchmark.sh --test: builds the benchmark
#             harness (its own tree, .bench_build/) and runs the comparator
#             self-test plus every workload at a tiny size, so a change to
#             the reward path cannot break the harness or its bit-exact
#             cached-reward check unnoticed. No timing is judged here.
#
# Prints a summary table and exits nonzero if any step failed. Steps keep
# running after a failure so one run reports the whole matrix.
set -u
cd "$(dirname "$0")/.."

declare -a STEP_NAMES=()
declare -a STEP_STATUS=()
declare -a STEP_SECONDS=()
FAILED=0

run_step() {
  local name="$1"
  shift
  echo
  echo "=== ci: ${name} ==="
  local start
  start=$(date +%s)
  if "$@"; then
    STEP_STATUS+=("PASS")
  else
    STEP_STATUS+=("FAIL")
    FAILED=1
  fi
  STEP_NAMES+=("$name")
  STEP_SECONDS+=($(( $(date +%s) - start )))
}

release_step() {
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DPAFEAT_WERROR=ON &&
  cmake --build build -j "$(nproc)" &&
  ctest --test-dir build --output-on-failure -j "$(nproc)"
}

# Re-runs the release tree's tests with the SIMD ladder clamped to the
# portable kernels. No rebuild: the clamp is a process-wide env override, so
# this leg proves the shipped binary — not a special build — passes with
# generic dispatch. No test compares two levels in one process, so this leg
# is what checks generic dispatch process-wide; the pafeat_simd_generic ctest
# leg covers only the matrix's suites.
forced_generic_step() {
  PAFEAT_SIMD=generic ctest --test-dir build --output-on-failure -j "$(nproc)"
}

# ASan leg under a binding ~64KB reward-cache budget.
asan_step() {
  PAFEAT_CACHE_BUDGET=65536 scripts/check.sh asan
}

# Semantic analyzer leg: reuses the release tree's binary (built above).
analyze_step() {
  ./build/tools/lint/pafeat-analyze --self-test &&
  ./build/tools/lint/pafeat-analyze --root . src
}

run_step "release+lint+werror" release_step
run_step "analyze (semantic)" analyze_step
run_step "release simd=generic" forced_generic_step
run_step "asan+ubsan+checked" asan_step
run_step "tsan" scripts/check.sh tsan

benchmark_step() {
  bash benchmark/run_benchmark.sh --test
}

run_step "benchmark harness" benchmark_step

echo
echo "=== ci summary ==="
printf '%-22s %-6s %8s\n' "step" "status" "seconds"
for i in "${!STEP_NAMES[@]}"; do
  printf '%-22s %-6s %8s\n' "${STEP_NAMES[$i]}" "${STEP_STATUS[$i]}" \
    "${STEP_SECONDS[$i]}"
done
if [ "$FAILED" -ne 0 ]; then
  echo "ci: FAILED"
else
  echo "ci: all steps passed"
fi
exit "$FAILED"
