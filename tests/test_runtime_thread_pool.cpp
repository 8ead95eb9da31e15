// Contract tests for runtime::ThreadPool::run: every index runs exactly
// once, run() is a barrier, the lowest-index exception surfaces only after
// every body finished, and nested or concurrent runs complete.
#include "ccnopt/runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace ccnopt::runtime {
namespace {

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  ThreadPool pool;
  EXPECT_EQ(pool.thread_count(), ThreadPool::default_thread_count());
}

TEST(ThreadPool, SubmitReturnsTaskResult) {
  // run() returns no values: a body hands its result back through the
  // slot its index owns, and the barrier makes it visible to the caller.
  ThreadPool pool(2);
  std::vector<int> results(2, 0);
  pool.run(results.size(), [&results](std::size_t i) {
    results[i] = 6 * 7 + static_cast<int>(i);
  });
  EXPECT_EQ(results[0], 42);
  EXPECT_EQ(results[1], 43);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  // A body's exception reaches run()'s caller, whichever thread ran it.
  ThreadPool pool(2);
  EXPECT_THROW(pool.run(2,
                        [](std::size_t) {
                          throw std::runtime_error("task failed");
                        }),
               std::runtime_error);
}

TEST(ThreadPool, RunCallsEveryIndexExactlyOnce) {
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    std::uint64_t expected_executed = 0;
    for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                    std::size_t{5}, std::size_t{16},
                                    std::size_t{100}}) {
      std::vector<std::atomic<int>> hits(count);
      pool.run(count, [&hits](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "threads=" << threads << " count=" << count << " i=" << i;
      }
      expected_executed += count;
    }
    EXPECT_EQ(pool.tasks_executed(), expected_executed);
  }
}

TEST(ThreadPool, RunIsABarrier) {
  // Plain (non-atomic) writes of one run() must be visible to the caller
  // and to the next run()'s bodies, whichever threads ran them.
  ThreadPool pool(4);
  constexpr std::size_t kCount = 8;
  std::vector<std::size_t> staged(kCount, 0);
  std::vector<std::size_t> folded(kCount, 0);
  for (std::size_t round = 1; round <= 50; ++round) {
    pool.run(kCount, [&staged, round](std::size_t i) {
      staged[i] = round * (i + 1);
    });
    pool.run(kCount, [&staged, &folded](std::size_t i) {
      folded[i] = staged[i];
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(folded[i], round * (i + 1)) << "round " << round;
    }
  }
}

TEST(ThreadPool, RethrowsLowestIndexExceptionAfterAllBodies) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    constexpr std::size_t kCount = 12;
    std::atomic<int> completed{0};
    try {
      pool.run(kCount, [&completed](std::size_t i) {
        if (i == 3 || i == 7 || i == 10) {
          throw std::runtime_error("body " + std::to_string(i));
        }
        // Slow bodies: a rethrow that skipped the barrier would read a
        // short count below.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        completed.fetch_add(1);
      });
      ADD_FAILURE() << "run() did not throw, threads=" << threads;
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()), "body 3") << "threads=" << threads;
    }
    EXPECT_EQ(completed.load(), static_cast<int>(kCount) - 3)
        << "threads=" << threads;
  }
}

TEST(ThreadPool, TaskExceptionDoesNotKillWorkers) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run(8,
                        [](std::size_t i) {
                          if (i % 2 == 0) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool stays usable after a failed run, on every worker.
  std::vector<std::atomic<int>> hits(64);
  pool.run(hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
  }
}

TEST(ThreadPool, NestedRunCompletes) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(6 * 5);
  pool.run(6, [&pool, &hits](std::size_t outer) {
    pool.run(5, [&hits, outer](std::size_t inner) {
      hits[outer * 5 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
  }
}

TEST(ThreadPool, ManyTasksFromManySubmitters) {
  // Concurrent run()s from four threads: one posts to the workers, the
  // others find the pool busy and run inline; all must complete.
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&pool, &sum] {
      for (int round = 0; round < 25; ++round) {
        pool.run(4, [&sum](std::size_t) { sum.fetch_add(1); });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(sum.load(), 4 * 25 * 4);
}

// run() as a parallel for loop over [0, count).
TEST(ParallelFor, VisitsEachIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(257);
  pool.run(visits.size(), [&visits](std::size_t i) { ++visits[i]; });
  for (const auto& count : visits) EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.run(0, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(pool.tasks_executed(), 0u);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(4);
  const auto run = [&pool] {
    pool.run(100, [](std::size_t i) {
      if (i == 37) throw std::runtime_error("index 37 failed");
    });
  };
  EXPECT_THROW(run(), std::runtime_error);
}

TEST(ParallelFor, OtherChunksCompleteDespiteException) {
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  try {
    pool.run(64, [&visited](std::size_t i) {
      if (i == 0) throw std::runtime_error("index 0 dies immediately");
      ++visited;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  // run() claims single indices, so only the throwing body is lost: every
  // other index ran to completion before run() returned.
  EXPECT_EQ(visited.load(), 63);
}

TEST(ThreadPoolDeath, ZeroThreadsRejected) {
  EXPECT_DEATH(ThreadPool pool(0), "precondition");
}

}  // namespace
}  // namespace ccnopt::runtime
