// Phase profiler: RAII ScopedSpan timers with per-thread parent/child
// nesting, aggregated per label path.
//
// Spans opened on the same thread nest: a span opened while another is
// active records under "parent/child". Nesting is per-thread by design —
// a span opened on a ThreadPool worker starts a fresh root there (cross-
// thread parentage would need timestamps or ids that break determinism).
//
// Aggregation is sharded per thread like the metrics registry, so workers
// record without contending; snapshot() merges counts and wall/CPU totals
// per path. Wall and CPU times are inherently nondeterministic, so span
// data belongs to the performance domain: it is exported by
// `--profile-out` and bench JSON, never by `--metrics-out`.
#pragma once

#include <atomic>
#include <cstdint>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ccnopt::obs {

/// Aggregated totals for one label path.
struct SpanAggregate {
  std::string path;  // "parent/child/..." (single label for roots)
  std::uint64_t count = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
};

/// One closed span occurrence, for timeline (Perfetto) export. Only
/// recorded while event recording is enabled — aggregates alone cannot
/// reconstruct when each phase ran.
struct SpanEvent {
  std::string path;
  /// Recording thread, as the profiler's shard index (stable per thread).
  std::uint32_t tid = 0;
  /// Start time relative to the profiler's construction, steady clock.
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
};

class ScopedSpan;

class SpanProfiler {
 public:
  static SpanProfiler& instance();

  SpanProfiler(const SpanProfiler&) = delete;
  SpanProfiler& operator=(const SpanProfiler&) = delete;

  /// Merged per-path aggregates across all threads, sorted by path.
  std::vector<SpanAggregate> snapshot() const;

  /// Opt-in per-occurrence event recording (off by default: aggregates are
  /// cheap and unbounded runs must not grow memory). While enabled, every
  /// span close also appends a SpanEvent to its thread's bounded buffer
  /// (kMaxEventsPerShard; overflow counts into dropped_events()). Enabled
  /// by the CLI when a Perfetto export was requested.
  void set_event_recording(bool enabled);

  /// All recorded events merged across threads, sorted by
  /// (ts_ns, tid, path) — chronological, ties broken deterministically.
  std::vector<SpanEvent> events() const;

  /// Events discarded because a shard's buffer was full.
  std::uint64_t dropped_events() const;

  /// Drops all aggregates and recorded events (open spans still record on
  /// close).
  void reset();

  /// Per-thread event-buffer bound: deep enough for every phase span of a
  /// full bench run, small enough (~a few MB) to never matter.
  static constexpr std::size_t kMaxEventsPerShard = 1u << 16;

 private:
  friend class ScopedSpan;

  struct Cell {
    std::uint64_t count = 0;
    std::int64_t wall_ns = 0;
    std::int64_t cpu_ns = 0;
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<std::string, Cell> cells;
    std::uint32_t index = 0;
    std::vector<SpanEvent> events;
    std::uint64_t dropped_events = 0;
  };

  SpanProfiler();
  Shard& local_shard() const;
  void record(const std::string& path,
              std::chrono::steady_clock::time_point wall_start,
              std::int64_t wall_ns, std::int64_t cpu_ns);

  mutable std::mutex mutex_;
  mutable std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> events_enabled_{false};
  /// Zero point of SpanEvent::ts_ns (profiler construction).
  std::chrono::steady_clock::time_point epoch_;
};

/// Times a scope and records it under the active span path on this thread.
/// Labels should be short dotted identifiers ("sim.replay") and must not
/// contain '/', which joins path segments.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view label);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  const std::string& path() const { return path_; }

  /// Innermost open span on the calling thread, or nullptr.
  static const ScopedSpan* current();

 private:
  std::string path_;
  ScopedSpan* parent_;
  std::chrono::steady_clock::time_point wall_start_;
  std::int64_t cpu_start_ns_;
};

}  // namespace ccnopt::obs
