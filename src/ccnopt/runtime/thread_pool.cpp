#include "ccnopt/runtime/thread_pool.hpp"

#include <algorithm>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/obs/registry.hpp"

namespace ccnopt::runtime {

ThreadPool::ThreadPool(std::size_t thread_count) {
  CCNOPT_EXPECTS(thread_count >= 1);
  workers_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  CCNOPT_ENSURES(queue_.empty());
  // Workers are joined: the accounting fields are stable without the lock.
  obs::MetricsRegistry& registry = obs::perf();
  registry.incr("runtime.pool.pools");
  registry.incr("runtime.pool.tasks_submitted", tasks_submitted_);
  registry.incr("runtime.pool.tasks_executed", tasks_executed_);
  registry.set_gauge("runtime.pool.last_thread_count",
                     static_cast<double>(workers_.size()));
  registry.set_gauge("runtime.pool.last_max_queue_depth",
                     static_cast<double>(max_queue_depth_));
}

std::size_t ThreadPool::pending() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::uint64_t ThreadPool::tasks_submitted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tasks_submitted_;
}

std::uint64_t ThreadPool::tasks_executed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tasks_executed_;
}

std::size_t ThreadPool::default_thread_count() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    CCNOPT_EXPECTS(accepting_);
    queue_.push_back(std::move(job));
    ++tasks_submitted_;
    max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
  }
  work_available_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return !queue_.empty() || !accepting_; });
      // Shutdown still drains the queue: exit only once it is empty.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++tasks_executed_;
    }
    job();  // packaged_task captures any exception for the future
  }
}

}  // namespace ccnopt::runtime
