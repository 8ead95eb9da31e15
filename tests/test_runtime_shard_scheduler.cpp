// Contract tests for runtime::ShardScheduler: every shard body runs
// exactly once per run_shards() call regardless of pool size, the call is
// a barrier (all writes from region N are visible when region N+1 runs),
// and a throwing body — pooled or inline — surfaces after the barrier.
#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ccnopt/runtime/shard_scheduler.hpp"
#include "ccnopt/runtime/thread_pool.hpp"
#include "ccnopt/sim/sharded.hpp"

namespace ccnopt::runtime {
namespace {

TEST(ShardScheduler, EveryShardRunsExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ThreadPool pool(threads);
    ShardScheduler scheduler(pool);
    for (const std::size_t count : {std::size_t{1}, std::size_t{5},
                                    std::size_t{16}}) {
      std::vector<std::atomic<int>> hits(count);
      scheduler.run_shards(count, [&hits](std::size_t shard) {
        hits[shard].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t shard = 0; shard < count; ++shard) {
        EXPECT_EQ(hits[shard].load(), 1)
            << "threads=" << threads << " count=" << count
            << " shard=" << shard;
      }
    }
  }
}

TEST(ShardScheduler, ZeroShardsIsANoOp) {
  ThreadPool pool(2);
  ShardScheduler scheduler(pool);
  bool ran = false;
  scheduler.run_shards(0, [&ran](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ShardScheduler, RunShardsIsABarrier) {
  // Plain (non-atomic) writes in one region must be visible to the next
  // region's bodies: ThreadPool::run's barrier is the happens-before edge
  // the sharded engine relies on between its generate / merge / serve
  // passes.
  ThreadPool pool(4);
  ShardScheduler scheduler(pool);
  constexpr std::size_t kShards = 8;
  std::vector<std::size_t> staged(kShards, 0);
  std::vector<std::size_t> folded(kShards, 0);
  for (std::size_t round = 1; round <= 50; ++round) {
    scheduler.run_shards(kShards, [&staged, round](std::size_t shard) {
      staged[shard] = round * (shard + 1);
    });
    scheduler.run_shards(kShards, [&staged, &folded](std::size_t shard) {
      folded[shard] = staged[shard];
    });
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      ASSERT_EQ(folded[shard], round * (shard + 1)) << "round " << round;
    }
  }
}

TEST(ShardScheduler, PooledBodyExceptionPropagates) {
  ThreadPool pool(2);
  ShardScheduler scheduler(pool);
  std::atomic<int> completed{0};
  EXPECT_THROW(scheduler.run_shards(6,
                                    [&completed](std::size_t shard) {
                                      if (shard == 0) {
                                        throw std::runtime_error("shard 0");
                                      }
                                      completed.fetch_add(1);
                                    }),
               std::runtime_error);
  // The barrier still held: all non-throwing bodies finished first.
  EXPECT_EQ(completed.load(), 5);
  // The scheduler stays usable after a failed region.
  std::atomic<int> after{0};
  scheduler.run_shards(4, [&after](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 4);
}

TEST(ShardScheduler, InlineBodyExceptionPropagatesAfterBarrier) {
  // The caller runs shards too; an exception from one it ran must not
  // skip the wait on the pooled bodies (they reference the callable).
  ThreadPool pool(2);
  ShardScheduler scheduler(pool);
  std::atomic<int> completed{0};
  constexpr std::size_t kShards = 6;
  EXPECT_THROW(scheduler.run_shards(kShards,
                                    [&completed](std::size_t shard) {
                                      if (shard == kShards - 1) {
                                        throw std::runtime_error("inline");
                                      }
                                      completed.fetch_add(1);
                                    }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), static_cast<int>(kShards) - 1);
}

TEST(ShardScheduler, SerialExecutorMatchesContract) {
  // SerialShardExecutor is the fallback the engine uses when no scheduler
  // is attached; it must honor the same run-once-in-order contract.
  sim::SerialShardExecutor serial;
  std::vector<std::size_t> order;
  serial.run_shards(5, [&order](std::size_t shard) {
    order.push_back(shard);
  });
  const std::vector<std::size_t> expected{0, 1, 2, 3, 4};
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace ccnopt::runtime
