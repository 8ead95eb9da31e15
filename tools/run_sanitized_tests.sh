#!/usr/bin/env bash
# Build and run the memory-safety-critical test suites (the robin-hood
# sparse index, the cache policies layered on it, the Zipf samplers, the
# in-house MT19937-64 engine and Rng's float mappings checked bit for bit
# against the standard library, the histogram's inline fixed-point
# rounding, the strategy subsystem driving the data plane, the
# owner-table and on-path serve paths under provisioning, heterogeneous
# quotas and router failures, the topology-resolved flight recorder fed
# from the serve hot path, the route table's search kernels, the
# topology edge-list parser and the argument parser on malformed and
# seeded random input, the sharded request engine, and the fork-join
# worker pool with the replication runner on it) under
# AddressSanitizer + UndefinedBehaviorSanitizer, then the
# concurrency-critical suites again under ThreadSanitizer — the sharded
# engine mutates shared cache stores from pool threads, and
# ThreadPool::run hands each body's writes and exceptions to its caller
# across threads, so TSan is the proof that both are race-free.
#
# Usage: run_sanitized_tests.sh <source-dir> <build-dir>
#
# The sanitized builds are configured into <build-dir> and
# <build-dir>-tsan (typically subdirectories of the main build tree,
# e.g. build/sanitized) so they never contaminate the regular build.
# Registered as the `sanitized_cache_and_sampler` ctest entry; also
# runnable by hand.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <source-dir> <build-dir>" >&2
  exit 2
fi
SOURCE_DIR=$1
BUILD_DIR=$2

TARGETS=(
  test_cache_sparse_slot_map
  test_cache_equivalence
  test_cache_lru
  test_cache_lfu
  test_cache_fifo
  test_cache_partitioned
  test_popularity_sampler
  test_common_random
  test_obs_registry
  test_strategy_registry
  test_strategy_properties
  test_obs_topo
  test_sim_topo
  test_sim_window_order
  test_sim_network
  test_sim_heterogeneous
  test_sim_failures
  test_topology_route_table
  test_topology_io
  test_common_args
  test_golden_digests
  test_runtime_thread_pool
  test_runtime_runners
  test_runtime_shard_scheduler
)

# The shard suites exercise real cross-thread execution; TSan-build these
# on top of the ASan pass. test_golden_digests runs every simulation cell
# on a pooled ShardScheduler, whose fused serve loops write cache stores
# and per-router metric/epoch/topo partials from pool threads —
# TSan proves the router partition really is race-free.
# test_topology_route_table builds tables of 5 and 16 source blocks,
# whose constructor starts helper threads that each claim blocks from one
# atomic counter and fill those rows of the one table.
# test_runtime_thread_pool checks ThreadPool::run's barrier, exception and
# nested/concurrent-run contract on real workers; it runs 20 times over,
# because a race between threads shows only under some interleavings and
# one pass has let a race on the rethrown exception through.
# test_runtime_runners runs replications on 1 and 8 threads.
# test_sim_simulation covers the emission-order stages on shards: pool
# threads call Workload::next() and write epoch, metrics and topo
# partials of on-path runs.
TSAN_TARGETS=(
  test_topology_route_table
  test_golden_digests
  test_sim_simulation
  test_runtime_thread_pool
  test_runtime_runners
  test_runtime_shard_scheduler
)

cmake -S "${SOURCE_DIR}" -B "${BUILD_DIR}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCCNOPT_SANITIZE=address \
  -DCCNOPT_BUILD_BENCH=OFF \
  -DCCNOPT_BUILD_EXAMPLES=OFF \
  >/dev/null

JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
cmake --build "${BUILD_DIR}" --parallel "${JOBS}" --target "${TARGETS[@]}"

# halt_on_error keeps failures loud; detect_leaks stays on by default where
# supported. Death tests fork, so allow ASan in subprocesses.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

STATUS=0
for target in "${TARGETS[@]}"; do
  echo "== sanitized: ${target} =="
  if ! "${BUILD_DIR}/tests/${target}" --gtest_brief=1; then
    STATUS=1
  fi
done

# ThreadSanitizer pass over the shard suites (separate build tree: TSan
# and ASan cannot share objects).
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -S "${SOURCE_DIR}" -B "${TSAN_DIR}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCCNOPT_SANITIZE=thread \
  -DCCNOPT_BUILD_BENCH=OFF \
  -DCCNOPT_BUILD_EXAMPLES=OFF \
  >/dev/null
cmake --build "${TSAN_DIR}" --parallel "${JOBS}" --target "${TSAN_TARGETS[@]}"

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
for target in "${TSAN_TARGETS[@]}"; do
  echo "== tsan: ${target} =="
  repeat=1
  if [[ "${target}" == test_runtime_thread_pool ]]; then repeat=20; fi
  if ! "${TSAN_DIR}/tests/${target}" --gtest_brief=1 \
      --gtest_repeat="${repeat}"; then
    STATUS=1
  fi
done
exit "${STATUS}"
