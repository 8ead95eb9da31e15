// ShardExecutor on top of the worker pool: the bridge that gives one
// Simulation run real threads. Lives in runtime/ because sim/ sits below
// the pool in the dependency order — the sharded engine only sees the
// ShardExecutor interface.
#pragma once

#include <cstddef>
#include <functional>

#include "ccnopt/runtime/thread_pool.hpp"
#include "ccnopt/sim/sharded.hpp"

namespace ccnopt::runtime {

/// Runs shard bodies with ThreadPool::run, which carries the whole
/// contract: each body once, the calling thread taking part, a barrier at
/// return (every body's writes happen-before the caller resumes), and the
/// lowest-index body exception rethrown after it.
///
/// The scheduler is an execution resource only: the sharded engine's
/// outputs are byte-identical whether regions run here, on a 1-thread
/// pool, or on SerialShardExecutor.
class ShardScheduler final : public sim::ShardExecutor {
 public:
  /// The pool is not owned and must outlive the scheduler. A region
  /// that finds the pool busy (another scheduler or caller is running on
  /// it) runs inline, so sharing a pool cannot deadlock.
  explicit ShardScheduler(ThreadPool& pool) : pool_(&pool) {}

  void run_shards(std::size_t count,
                  const std::function<void(std::size_t)>& body) override {
    pool_->run(count, body);
  }

 private:
  ThreadPool* pool_;
};

}  // namespace ccnopt::runtime
