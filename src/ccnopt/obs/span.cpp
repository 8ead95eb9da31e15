#include "ccnopt/obs/span.hpp"

#include <algorithm>
#include <ctime>

#include "ccnopt/common/assert.hpp"

namespace ccnopt::obs {
namespace {

thread_local ScopedSpan* t_current_span = nullptr;

std::int64_t thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }
#endif
  return 0;
}

}  // namespace

SpanProfiler& SpanProfiler::instance() {
  static SpanProfiler* profiler = new SpanProfiler();
  return *profiler;
}

SpanProfiler::SpanProfiler() : epoch_(std::chrono::steady_clock::now()) {}

SpanProfiler::Shard& SpanProfiler::local_shard() const {
  thread_local Shard* t_span_shard = nullptr;
  if (t_span_shard != nullptr) return *t_span_shard;
  auto shard = std::make_unique<Shard>();
  Shard* raw = shard.get();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    raw->index = static_cast<std::uint32_t>(shards_.size());
    shards_.push_back(std::move(shard));
  }
  t_span_shard = raw;
  return *raw;
}

void SpanProfiler::record(const std::string& path,
                          std::chrono::steady_clock::time_point wall_start,
                          std::int64_t wall_ns, std::int64_t cpu_ns) {
  Shard& shard = local_shard();
  const std::lock_guard<std::mutex> lock(shard.mutex);
  Cell& cell = shard.cells[path];
  ++cell.count;
  cell.wall_ns += wall_ns;
  cell.cpu_ns += cpu_ns;
  if (events_enabled_.load(std::memory_order_relaxed)) {
    if (shard.events.size() < kMaxEventsPerShard) {
      const auto ts_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             wall_start - epoch_)
                             .count();
      shard.events.push_back(SpanEvent{path, shard.index, ts_ns, wall_ns});
    } else {
      ++shard.dropped_events;
    }
  }
}

void SpanProfiler::set_event_recording(bool enabled) {
  events_enabled_.store(enabled, std::memory_order_relaxed);
}

std::vector<SpanEvent> SpanProfiler::events() const {
  std::vector<SpanEvent> result;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& shard : shards_) {
      const std::lock_guard<std::mutex> shard_lock(shard->mutex);
      result.insert(result.end(), shard->events.begin(), shard->events.end());
    }
  }
  std::sort(result.begin(), result.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.path < b.path;
            });
  return result;
}

std::uint64_t SpanProfiler::dropped_events() const {
  std::uint64_t dropped = 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> shard_lock(shard->mutex);
    dropped += shard->dropped_events;
  }
  return dropped;
}

std::vector<SpanAggregate> SpanProfiler::snapshot() const {
  std::unordered_map<std::string, Cell> merged;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& shard : shards_) {
      const std::lock_guard<std::mutex> shard_lock(shard->mutex);
      for (const auto& [path, cell] : shard->cells) {
        Cell& into = merged[path];
        into.count += cell.count;
        into.wall_ns += cell.wall_ns;
        into.cpu_ns += cell.cpu_ns;
      }
    }
  }
  std::vector<SpanAggregate> result;
  result.reserve(merged.size());
  for (const auto& [path, cell] : merged) {
    result.push_back(SpanAggregate{path, cell.count, cell.wall_ns,
                                   cell.cpu_ns});
  }
  std::sort(result.begin(), result.end(),
            [](const SpanAggregate& a, const SpanAggregate& b) {
              return a.path < b.path;
            });
  return result;
}

void SpanProfiler::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> shard_lock(shard->mutex);
    shard->cells.clear();
    shard->events.clear();
    shard->dropped_events = 0;
  }
}

ScopedSpan::ScopedSpan(std::string_view label)
    : parent_(t_current_span),
      wall_start_(std::chrono::steady_clock::now()),
      cpu_start_ns_(thread_cpu_ns()) {
  CCNOPT_EXPECTS(!label.empty());
  CCNOPT_EXPECTS(label.find('/') == std::string_view::npos);
  if (parent_ != nullptr) {
    path_.reserve(parent_->path_.size() + 1 + label.size());
    path_ = parent_->path_;
    path_ += '/';
    path_ += label;
  } else {
    path_ = std::string(label);
  }
  t_current_span = this;
}

ScopedSpan::~ScopedSpan() {
  CCNOPT_ASSERT(t_current_span == this);  // spans must close LIFO per thread
  t_current_span = parent_;
  const auto wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start_)
          .count();
  const std::int64_t cpu_ns = thread_cpu_ns() - cpu_start_ns_;
  SpanProfiler::instance().record(path_, wall_start_, wall_ns,
                                  cpu_ns < 0 ? 0 : cpu_ns);
}

const ScopedSpan* ScopedSpan::current() { return t_current_span; }

}  // namespace ccnopt::obs
