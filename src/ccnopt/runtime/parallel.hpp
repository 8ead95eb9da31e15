// Data-parallel loops over a ThreadPool with static chunking.
//
// parallel_for(pool, count, body) splits [0, count) into contiguous chunks
// (one per worker by default), runs them on the pool, and blocks until all
// complete. Exceptions thrown by the body are rethrown in the caller —
// the lowest-chunk-index exception wins, deterministically. Items after a
// throwing item in the same chunk are skipped; other chunks still run.
//
// parallel_map(pool, items, fn) is the ordered variant: results land at
// their item's index, so the output is independent of thread count and
// scheduling.
#pragma once

#include <cstddef>
#include <exception>
#include <future>
#include <type_traits>
#include <vector>

#include "ccnopt/runtime/thread_pool.hpp"

namespace ccnopt::runtime {

/// Half-open index range [begin, end).
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Splits [0, count) into at most `chunk_count` contiguous ranges of
/// near-equal size (sizes differ by at most 1, larger chunks first).
/// Returns fewer chunks when count < chunk_count; requires chunk_count >= 1.
std::vector<ChunkRange> static_chunks(std::size_t count,
                                      std::size_t chunk_count);

/// Splits [0, count) into ceil(count / block_size) contiguous ranges of
/// exactly `block_size` items (the last may be short). Unlike
/// static_chunks, block boundaries depend only on block_size — never on
/// the worker count — so work partitioned this way is identical at any
/// thread count (what parallel_for_blocked's per-block setup relies on).
/// Requires block_size >= 1.
std::vector<ChunkRange> fixed_blocks(std::size_t count,
                                     std::size_t block_size);

/// Runs body(i) for every i in [0, count) across the pool. `chunk_count`
/// of 0 means one chunk per worker thread; pass a multiple of
/// pool.thread_count() for finer-grained load balancing when per-item cost
/// varies. Blocks until every chunk finishes, then rethrows the first (by
/// chunk index) captured exception, if any.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t count, const Body& body,
                  std::size_t chunk_count = 0) {
  if (count == 0) return;
  if (chunk_count == 0) chunk_count = pool.thread_count();
  const std::vector<ChunkRange> chunks = static_chunks(count, chunk_count);
  std::vector<std::future<void>> futures;
  futures.reserve(chunks.size());
  for (const ChunkRange& chunk : chunks) {
    futures.push_back(pool.submit([&body, chunk] {
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) body(i);
    }));
  }
  std::exception_ptr first_error;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// Runs body(block) for every fixed-size block of [0, count) across the
/// pool (block boundaries from fixed_blocks, so they are thread-count
/// invariant). Use instead of parallel_for when the body amortizes
/// per-batch setup — e.g. draining a sampler or flushing metrics once per
/// block — while keeping deterministic partitioning.
template <typename Body>
void parallel_for_blocked(ThreadPool& pool, std::size_t count,
                          std::size_t block_size, const Body& body) {
  if (count == 0) return;
  const std::vector<ChunkRange> blocks = fixed_blocks(count, block_size);
  std::vector<std::future<void>> futures;
  futures.reserve(blocks.size());
  for (const ChunkRange& block : blocks) {
    futures.push_back(pool.submit([&body, block] { body(block); }));
  }
  std::exception_ptr first_error;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// Ordered map: result[i] = fn(items[i]). The result type must be
/// default-constructible (slots are preallocated and filled in place).
template <typename T, typename Fn>
auto parallel_map(ThreadPool& pool, const std::vector<T>& items, const Fn& fn,
                  std::size_t chunk_count = 0)
    -> std::vector<std::invoke_result_t<const Fn&, const T&>> {
  using Result = std::invoke_result_t<const Fn&, const T&>;
  std::vector<Result> results(items.size());
  parallel_for(
      pool, items.size(), [&](std::size_t i) { results[i] = fn(items[i]); },
      chunk_count);
  return results;
}

}  // namespace ccnopt::runtime
