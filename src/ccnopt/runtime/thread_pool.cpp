#include "ccnopt/runtime/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <system_error>
#include <utility>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/obs/registry.hpp"

namespace ccnopt::runtime {

struct ThreadPool::Job {
  Job(const std::function<void(std::size_t)>& job_body, std::size_t size)
      : body(&job_body), count(size), remaining(size) {}

  const std::function<void(std::size_t)>* body;
  std::size_t count;
  std::atomic<std::size_t> next{0};  // next index to claim
  // Guarded by the pool's mutex_.
  std::size_t remaining;  // bodies not yet finished
  std::size_t error_index = 0;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t thread_count) {
  CCNOPT_EXPECTS(thread_count >= 1);
  workers_.reserve(thread_count - 1);
  for (std::size_t i = 1; i < thread_count; ++i) {
    // A worker that cannot start leaves its share to the others: run()
    // is correct with any number of workers, and the workers already
    // started must not be destroyed unjoined.
    try {
      workers_.emplace_back([this] { worker_loop(); });
    } catch (const std::system_error&) {
      break;
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  obs::MetricsRegistry& registry = obs::perf();
  registry.incr("runtime.pool.pools");
  registry.incr("runtime.pool.tasks_executed", tasks_executed());
  registry.set_gauge("runtime.pool.last_thread_count",
                     static_cast<double>(thread_count()));
}

std::size_t ThreadPool::default_thread_count() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void ThreadPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  tasks_executed_ += count;
  bool idle = false;
  if (count == 1 || workers_.empty() ||
      !busy_.compare_exchange_strong(idle, true)) {
    std::exception_ptr error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  const auto job = std::make_shared<Job>(body, count);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    ++generation_;
  }
  work_ready_.notify_all();
  work(*job);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    job_done_.wait(lock, [&job] { return job->remaining == 0; });
    job_.reset();
    // Moved out, so a worker that still holds the job never destroys the
    // exception while the caller handles it.
    error = std::move(job->error);
  }
  busy_ = false;
  if (error) std::rethrow_exception(error);
}

void ThreadPool::work(Job& job) {
  for (;;) {
    const std::size_t i = job.next++;
    if (i >= job.count) return;
    std::exception_ptr error;
    try {
      (*job.body)(i);
    } catch (...) {
      error = std::current_exception();
    }
    // Counting the body done under mutex_ is what publishes its writes to
    // the caller, whose wait reads `remaining` under the same mutex.
    bool last = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error && (!job.error || i < job.error_index)) {
        job.error = std::move(error);
        job.error_index = i;
      }
      last = --job.remaining == 0;
    }
    if (last) job_done_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this, seen] {
        return stop_ || generation_ != seen;
      });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    // Null when the job finished before this worker woke.
    if (job) work(*job);
  }
}

}  // namespace ccnopt::runtime
