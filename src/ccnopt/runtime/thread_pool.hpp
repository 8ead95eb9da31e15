// Fixed-size worker pool: a mutex+condvar task queue drained by N threads.
// submit() returns a std::future, so results and exceptions propagate to
// the caller; the destructor runs every task already submitted (pending or
// in flight) before joining, so work is never silently dropped.
//
// The pool is an execution resource only — determinism is the job of the
// layers above it (parallel_for writes results by index, SweepRunner /
// ReplicationRunner derive per-task seeds and reduce in index order).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ccnopt::runtime {

class ThreadPool {
 public:
  /// Spawns `thread_count` workers; requires thread_count >= 1.
  explicit ThreadPool(std::size_t thread_count = default_thread_count());

  /// Drains the queue: every submitted task runs to completion, then the
  /// workers are joined. Submitting from another thread while the
  /// destructor runs is a contract violation.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Tasks queued but not yet picked up by a worker.
  std::size_t pending() const;

  // Lifetime accounting, maintained under the queue mutex (no extra
  // synchronization cost) and flushed to the obs::perf() registry by the
  // destructor. Task counts depend on chunking (and therefore the thread
  // count), and queue depth on scheduling, so none of this belongs in the
  // deterministic obs::metrics() domain.
  std::uint64_t tasks_submitted() const;
  std::uint64_t tasks_executed() const;

  /// Enqueues `fn` and returns a future for its result. If `fn` throws,
  /// the exception is captured and rethrown from future::get().
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  /// hardware_concurrency(), or 1 when the runtime cannot report it.
  static std::size_t default_thread_count();

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool accepting_ = true;  // flips when the destructor begins
  std::uint64_t tasks_submitted_ = 0;
  std::uint64_t tasks_executed_ = 0;
  std::size_t max_queue_depth_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace ccnopt::runtime
