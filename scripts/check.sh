#!/usr/bin/env bash
# Repo verification gate:
#   0. vectorize: compile scripts/vectorize_probe.cpp with
#      -O3 -march=x86-64-v3 -fopt-info-vec-optimized and fail if any filter
#      kernel family (operators/filter_kernels.h) stops auto-vectorizing
#   1. tier-1 verify: configure + build + full ctest (ROADMAP.md)
#   1b. crash-recovery: the checkpoint/restore suite standalone — the
#       crash-sim multiset-equality pins (DESIGN.md §13) must hold without
#       the parallel-suite CPU noise ctest adds
#   2. AddressSanitizer configure + build + ctest in a separate build dir
#   3. ThreadSanitizer build running the concurrency-heavy suites
#      (exec, exec_lifecycle, exec_sharding, fjords, cacq, obs, window,
#      recovery, egress, plus the event-time, shared-EO, result-path and
#      wrapper-pump server suites) — must be TSan-clean
#   4. UBSan build running the trace/queue/routing suites (the seqlock ring
#      and histogram interpolation are the prime UB suspects)
#   5. bench smoke: batched-vs-per-tuple comparison -> BENCH_batching.json,
#      class lifecycle (merge/GC/rebalance) -> BENCH_exec_lifecycle.json,
#      tracing overhead -> BENCH_tracing.json,
#      shard scaling (1/2/4/8 replicas) -> BENCH_cacq_scaling.json,
#      event-time disorder latency/exactness sweep -> BENCH_disorder.json,
#      checkpoint/restore cost sweep -> BENCH_recovery.json,
#      plus a quick 2-shard correctness smoke
#
# Usage: scripts/check.sh [--no-asan] [--no-tsan] [--no-ubsan] [--no-bench]
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_ASAN=1
RUN_TSAN=1
RUN_UBSAN=1
RUN_BENCH=1
for arg in "$@"; do
  case "$arg" in
    --no-asan) RUN_ASAN=0 ;;
    --no-tsan) RUN_TSAN=0 ;;
    --no-ubsan) RUN_UBSAN=0 ;;
    --no-bench) RUN_BENCH=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

if [[ "$(uname -m)" == "x86_64" ]]; then
  echo "== vectorize: filter kernels must auto-vectorize =="
  VEC_OBJ="$(mktemp --suffix=.o)"
  VEC_REPORT="$(g++ -std=c++20 -O3 -march=x86-64-v3 \
    -fopt-info-vec-optimized -Isrc \
    -c scripts/vectorize_probe.cpp -o "$VEC_OBJ" 2>&1)"
  rm -f "$VEC_OBJ"
  VEC_COUNT="$(grep -c "loop vectorized" <<<"$VEC_REPORT" || true)"
  # Distinct filter_kernels.h loop lines with a vectorized report == kernel
  # families that vectorized (AccumBound, AccumRange, MaskCmp, MaskEq,
  # MaskRange, AnyNaN — one for-loop each; instantiations share the line).
  VEC_FAMILIES="$(grep "loop vectorized" <<<"$VEC_REPORT" \
    | grep -o "filter_kernels\.h:[0-9]*" | sort -u | wc -l)"
  echo "vectorized-loop reports: $VEC_COUNT (floor 15);" \
       "kernel families: $VEC_FAMILIES (need 6)"
  FAIL=0
  if (( VEC_COUNT < 15 )); then FAIL=1; fi
  if (( VEC_FAMILIES < 6 )); then FAIL=1; fi
  if (( FAIL )); then
    echo "$VEC_REPORT" >&2
    echo "vectorize gate FAILED" >&2
    exit 1
  fi
else
  echo "== vectorize: skipped (non-x86_64 host) =="
fi

echo "== tier-1: configure + build + ctest =="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

echo "== crash-recovery: checkpoint/restore suite =="
./build/tests/recovery_test

if [[ "$RUN_ASAN" == 1 ]]; then
  echo "== asan: configure + build + ctest =="
  cmake -B build-asan -S . -DTCQ_SANITIZE=address
  cmake --build build-asan -j
  ctest --test-dir build-asan --output-on-failure -j
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "== tsan: configure + build + concurrency suites =="
  cmake -B build-tsan -S . -DTCQ_SANITIZE=thread
  cmake --build build-tsan -j --target \
    exec_test exec_lifecycle_test exec_sharding_test fjords_test cacq_test \
    obs_test window_test server_test recovery_test egress_test
  # exec_test includes ParkRingTest: idle EOs park on their own work
  # signals, and producers on other threads ring them.
  # recovery_test: Checkpoint detaches windowed DUs from their EO threads,
  # drains and exports them on the caller's thread, then re-hosts them.
  # egress_test: several threads offer result batches while a client polls.
  for t in exec_test exec_lifecycle_test exec_sharding_test fjords_test \
           cacq_test obs_test window_test recovery_test egress_test; do
    echo "-- tsan: $t"
    ./build-tsan/tests/"$t"
  done
  # Punctuations flow source -> fjord -> class -> window -> egress across
  # threads; the event-time server suite pins that end-to-end under TSan.
  # The shared-EO suite runs class DUs and windowed DUs on the same EOs.
  # The result-path suites flush result batches from sharded EOs into
  # egresses that the client polls concurrently. The Wrapper* tests run
  # the pump thread, which parks on the wrapper's feed signal, and
  # CloseStreamWakesParkedWindowedQuery rings a parked windowed EO.
  echo "-- tsan: server_test (event-time, shared-EO, result-path, pump suites)"
  ./build-tsan/tests/server_test \
    --gtest_filter='EventTimeServerTest.*:SharedEoServerTest.*:ResultPathTest.*:*ShedAccountingTest.*:ServerTest.Wrapper*:ServerTest.CloseStreamWakesParkedWindowedQuery'
fi

if [[ "$RUN_UBSAN" == 1 ]]; then
  echo "== ubsan: configure + build + trace/queue/routing suites =="
  cmake -B build-ubsan -S . -DTCQ_SANITIZE=undefined
  cmake --build build-ubsan -j --target obs_test fjords_test eddy_test
  for t in obs_test fjords_test eddy_test; do
    echo "-- ubsan: $t"
    UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/"$t"
  done
fi

if [[ "$RUN_BENCH" == 1 ]]; then
  echo "== bench smoke: BENCH_batching.json =="
  scripts/bench_batching.sh build
  echo "== bench smoke: BENCH_exec_lifecycle.json =="
  scripts/bench_exec_lifecycle.sh build
  echo "== bench smoke: BENCH_tracing.json =="
  scripts/bench_tracing.sh build
  echo "== bench smoke: BENCH_cacq_scaling.json =="
  scripts/bench_cacq_scaling.sh build
  echo "== bench smoke: BENCH_disorder.json =="
  scripts/bench_disorder.sh build
  echo "== bench smoke: BENCH_recovery.json =="
  scripts/bench_recovery.sh build
  echo "== 2-shard correctness smoke =="
  ./build/tests/exec_sharding_test \
    --gtest_filter='ExecShardingTest.ShardedJoinMatchesSingleShardAndReference'
fi

echo "== check.sh: all gates passed =="
