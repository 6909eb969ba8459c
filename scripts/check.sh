#!/usr/bin/env bash
# Correctness gate for GCSM: builds every analysis preset and runs the test
# suite under each. Intended as the local "tier-1.5" check before a PR:
#
#   scripts/check.sh            # all presets
#   scripts/check.sh asan-ubsan # just one
#
# Presets (see CMakePresets.json; all build with GCSM_WERROR=ON):
#   asan-ubsan — AddressSanitizer + UBSan, invariant checks on
#   tsan       — ThreadSanitizer
#   checks     — plain build with GCSM_ENABLE_CHECKS=ON (GCSM_ASSERT hot-path
#                asserts + batch-boundary validate() in Pipeline); also runs
#                the gcsm_lint contract linter and the bench --json smoke
#   tidy       — clang-tidy over src/ (skipped when clang-tidy is not
#                installed; the .clang-tidy config is still the gate in
#                environments that have it)
#
# Opt-in stages (never run by default; name them explicitly):
#   soak       — scripts/soak.sh: time-capped poison-tenant fault-matrix
#                soak of the multi-query circuit breaker against the
#                default build (GCSM_SOAK_SECONDS caps it, default 120)
#
#   scripts/check.sh soak                      # just the soak
#   GCSM_SOAK_SECONDS=600 scripts/check.sh asan-ubsan soak
set -u

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
# Fail hard on the first sanitizer report; keep output readable.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=0:halt_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

failures=()

run() {
  echo "+ $*"
  "$@"
}

run_preset() {
  local preset="$1"
  echo
  echo "=== preset: ${preset} ==="
  if ! run cmake --preset "${preset}"; then
    failures+=("${preset}: configure")
    return
  fi
  if ! run cmake --build --preset "${preset}" -j "${JOBS}"; then
    failures+=("${preset}: build")
    return
  fi
  # The tidy preset is a build-only gate: a clang-tidy diagnostic fails the
  # compile (warnings-as-errors), so there is nothing extra to run.
  if [ "${preset}" = "tidy" ]; then
    return
  fi
  if ! run ctest --preset "${preset}" -j "${JOBS}"; then
    failures+=("${preset}: tests")
  fi
  # The fault-injection matrix must hold under the sanitizers: recovery paths
  # (rollback, retry, CPU fallback) are exactly where leaks and UB hide.
  if [ "${preset}" = "asan-ubsan" ]; then
    if ! run ctest --preset faults-asan -j "${JOBS}"; then
      failures+=("faults-asan: tests")
    fi
    # Observability layer (registry concurrency, JSON schemas, regressions)
    # under the same sanitizers.
    if ! run ctest --preset metrics-asan -j "${JOBS}"; then
      failures+=("metrics-asan: tests")
    fi
    # Durability layer (WAL torn tails, snapshot round trips, the crash
    # matrix): every injected-crash recovery path runs with the sanitizers
    # watching for leaks of half-written state.
    if ! run ctest --preset durability-asan -j "${JOBS}"; then
      failures+=("durability-asan: tests")
    fi
    # Multi-query serving engine (registry durability, bit-identity vs
    # independent pipelines, shared-cache arbitration) under asan/ubsan.
    if ! run ctest --preset multiquery-asan -j "${JOBS}"; then
      failures+=("multiquery-asan: tests")
    fi
    # Tenant isolation (circuit breaker, quarantine, catch-up replay,
    # kill-during-catch-up crash matrix) under asan/ubsan.
    if ! run ctest --preset breaker-asan -j "${JOBS}"; then
      failures+=("breaker-asan: tests")
    fi
    # Pipelined batch schedule (process_stream staging, surfacing after
    # each commit, the durable stream) under asan/ubsan.
    if ! run ctest --preset pipeline-asan -j "${JOBS}"; then
      failures+=("pipeline-asan: tests")
    fi
    # Overload protection (admission control, bounded ingress queue,
    # deadline shedding + kShed audit, degradation ladder, traffic
    # generator) under asan/ubsan.
    if ! run ctest --preset overload-asan -j "${JOBS}"; then
      failures+=("overload-asan: tests")
    fi
    # Multi-device sharding (partitioner, cut-edge replication, branch
    # stitching, bit-identity vs the single-device engine with and without
    # the fault matrix) under asan/ubsan.
    if ! run ctest --preset shard-asan -j "${JOBS}"; then
      failures+=("shard-asan: tests")
    fi
  fi
  # The match fan-out across queries is the concurrency hot spot: the
  # multiquery label (engine suite + ThreadPool stress) is the tsan target,
  # and the breaker's trip/re-join staging races against the same fan-out.
  if [ "${preset}" = "tsan" ]; then
    if ! run ctest --preset multiquery-tsan -j "${JOBS}"; then
      failures+=("multiquery-tsan: tests")
    fi
    if ! run ctest --preset breaker-tsan -j "${JOBS}"; then
      failures+=("breaker-tsan: tests")
    fi
    # Pipelined schedule overlap stress (200 batches, 8 queries, faults at
    # p=0.05, no durability): the staged front half races the match
    # fan-out on one pool — tsan's richest target.
    if ! run ctest --preset pipeline-tsan -j "${JOBS}"; then
      failures+=("pipeline-tsan: tests")
    fi
    # Overload controller wall-clock paths: submit() backpressure parks
    # producer threads against serve_pending()'s drain — the ParkingLot
    # handoff and the shed-while-parked wakeups are tsan's target here.
    if ! run ctest --preset overload-tsan -j "${JOBS}"; then
      failures+=("overload-tsan: tests")
    fi
    # Sharded matching: shard tasks fan out on one pool and hand partials
    # across per-shard outboxes at superstep barriers — that hand-off is
    # tsan's target here.
    if ! run ctest --preset shard-tsan -j "${JOBS}"; then
      failures+=("shard-tsan: tests")
    fi
  fi
  # Bench smoke + --json schema gate (docs/OBSERVABILITY.md): a reduced
  # fig08 run must emit a report that the schema checker accepts.
  if [ "${preset}" = "checks" ]; then
    # Contract linter (docs/ANALYSIS.md "Static analysis"): registry-backed
    # rules over src/ — raw metric/fault-site literals, doc drift, throws
    # outside the gcsm::Error taxonomy, stray relaxed atomics, naked locks.
    # Diagnostics are `file:line: rule: message`.
    if ! run "build-${preset}/tools/gcsm_lint" .; then
      failures+=("${preset}: gcsm_lint")
    fi
    local report="build-${preset}/bench_smoke.json"
    if ! run "build-${preset}/bench/fig08_fr" --scale=0.05 --batches=1 \
         --json="${report}" > /dev/null; then
      failures+=("${preset}: bench smoke")
    elif command -v python3 > /dev/null 2>&1; then
      if ! run python3 scripts/check_bench_json.py "${report}"; then
        failures+=("${preset}: bench json schema")
      fi
    else
      echo "bench json schema check SKIPPED (python3 not installed)"
    fi
    # The multi-query bench shares the same --json schema contract.
    local mq_report="build-${preset}/bench_multi_query_smoke.json"
    if ! run "build-${preset}/bench/multi_query" --scale=0.05 --batches=1 \
         --json="${mq_report}" > /dev/null; then
      failures+=("${preset}: multi_query bench smoke")
    elif command -v python3 > /dev/null 2>&1; then
      if ! run python3 scripts/check_bench_json.py "${mq_report}"; then
        failures+=("${preset}: multi_query bench json schema")
      fi
    fi
    # The overload bench adds the "overload" section (goodput, shed rate,
    # latency percentiles, conservation) to the same schema.
    local ovl_report="build-${preset}/bench_overload_smoke.json"
    if ! run "build-${preset}/bench/overload" --scale=0.05 --batches=8 \
         --json="${ovl_report}" > /dev/null; then
      failures+=("${preset}: overload bench smoke")
    elif command -v python3 > /dev/null 2>&1; then
      if ! run python3 scripts/check_bench_json.py "${ovl_report}"; then
        failures+=("${preset}: overload bench json schema")
      fi
    fi
    # The sharded-matching bench adds the "sharded" section (per-shard peak
    # cache bytes vs the single-device peak, stitch share, speedup vs 1
    # shard) to the same schema — and asserts bit-identical counts itself.
    local shard_report="build-${preset}/bench_sharded_smoke.json"
    if ! run "build-${preset}/bench/sharded_match" --scale=0.05 --batches=2 \
         --json="${shard_report}" > /dev/null; then
      failures+=("${preset}: sharded_match bench smoke")
    elif command -v python3 > /dev/null 2>&1; then
      if ! run python3 scripts/check_bench_json.py "${shard_report}"; then
        failures+=("${preset}: sharded_match bench json schema")
      fi
    fi
  fi
}

if [ "$#" -gt 0 ]; then
  presets=("$@")
else
  presets=(asan-ubsan tsan checks tidy)
fi

for preset in "${presets[@]}"; do
  # Opt-in soak stage: not a CMake preset — builds the default preset and
  # hands off to scripts/soak.sh (time cap via GCSM_SOAK_SECONDS).
  if [ "${preset}" = "soak" ]; then
    echo
    echo "=== stage: soak (opt-in) ==="
    if ! run cmake --preset default ||
       ! run cmake --build --preset default -j "${JOBS}"; then
      failures+=("soak: build")
    elif ! run scripts/soak.sh "${GCSM_SOAK_SECONDS:-120}"; then
      failures+=("soak")
    fi
    continue
  fi
  if [ "${preset}" = "tidy" ] && ! command -v clang-tidy > /dev/null 2>&1; then
    echo
    echo "=== preset: tidy — SKIPPED (clang-tidy not installed) ==="
    continue
  fi
  run_preset "${preset}"
done

echo
if [ "${#failures[@]}" -gt 0 ]; then
  echo "check.sh: FAILED presets:"
  printf '  %s\n' "${failures[@]}"
  exit 1
fi
echo "check.sh: all presets clean"
