// Fork-join worker pool: run(count, body) calls body(i) once for every i
// in [0, count) on the calling thread plus the pool's workers, and returns
// once every body has finished.
//
// The pool is an execution resource only — determinism is the job of the
// layers above it (bodies write results by index, ReplicationRunner
// derives per-replication seeds and reduces in index order).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ccnopt::runtime {

class ThreadPool {
 public:
  /// A pool of `thread_count` threads: the caller of run() plus
  /// thread_count - 1 workers, so ThreadPool(1) starts none (fewer when
  /// the system refuses a thread; thread_count() reports what started).
  /// Requires thread_count >= 1.
  explicit ThreadPool(std::size_t thread_count = default_thread_count());

  /// Joins the workers. Calling run() while the destructor runs is a
  /// contract violation.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Calls body(i) exactly once for each i in [0, count). The calling
  /// thread takes part, so at most thread_count() bodies run at once.
  /// Returns only after every body has finished: every body's writes
  /// happen-before the caller's next statement. If bodies throw, the
  /// exception of the lowest index is rethrown once all have finished.
  /// A run() that finds the pool busy — nested inside a body, or issued
  /// from another thread — runs its bodies inline on its own thread.
  void run(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Bodies run so far, inline ones included. Flushed to the scheduling
  /// (obs::perf()) registry by the destructor.
  std::uint64_t tasks_executed() const { return tasks_executed_; }

  /// hardware_concurrency(), or 1 when the runtime cannot report it.
  static std::size_t default_thread_count();

 private:
  struct Job;

  /// Claims indices of `job` until none is left, running each body.
  void work(Job& job);
  void worker_loop();

  // Guards stop_, generation_, job_ and each job's completion state.
  std::mutex mutex_;
  std::condition_variable work_ready_;  // a job was posted, or stop_
  std::condition_variable job_done_;    // a job's last body finished
  bool stop_ = false;
  std::uint64_t generation_ = 0;  // bumped once per posted job
  // The posted job. Workers that wake late keep their own reference to
  // it, so a finished job never dangles under them.
  std::shared_ptr<Job> job_;
  std::atomic<bool> busy_{false};  // a job is posted and not yet finished
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::vector<std::thread> workers_;
};

}  // namespace ccnopt::runtime
