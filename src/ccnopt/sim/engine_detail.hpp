// Internals of Simulation's request engine (the windowed engine in
// sharded.cpp): interned registry handles, the timeline epoch recorder, the
// end-of-run registry flush, and the per-window order.
// Implementation detail — not installed, not part of the sim API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/obs/registry.hpp"
#include "ccnopt/obs/timeline.hpp"
#include "ccnopt/obs/topo.hpp"
#include "ccnopt/sim/metrics.hpp"
#include "ccnopt/sim/network.hpp"

namespace ccnopt::sim::detail {

// Sub-stream index of the run seed reserved for the trace sampler, far
// outside the per-router clock indices [0, router_count).
inline constexpr std::uint64_t kTraceSeedIndex = 0x7ace5eedULL;

// The engine passes ServeTier values to obs::TopoRecorder::on_request as
// its tier codes.
static_assert(static_cast<std::uint32_t>(ServeTier::kLocal) ==
              obs::kTopoTierLocal);
static_assert(static_cast<std::uint32_t>(ServeTier::kNetwork) ==
              obs::kTopoTierNetwork);
static_assert(static_cast<std::uint32_t>(ServeTier::kOrigin) ==
              obs::kTopoTierOrigin);

// Interned handles into obs::metrics(), resolved once per process. Handles
// survive registry reset(), so the static cache stays valid across runs.
struct RunMetricHandles {
  obs::MetricsRegistry::CounterHandle runs;
  obs::MetricsRegistry::CounterHandle requests_measured;
  obs::MetricsRegistry::CounterHandle requests_local;
  obs::MetricsRegistry::CounterHandle requests_network;
  obs::MetricsRegistry::CounterHandle requests_origin;
  obs::MetricsRegistry::CounterHandle requests_aggregated;
  obs::MetricsRegistry::CounterHandle upstream_fetches;
  obs::MetricsRegistry::CounterHandle coordination_messages;
  obs::MetricsRegistry::CounterHandle trace_sampled;
  obs::MetricsRegistry::HistogramHandle latency_ms;

  static const RunMetricHandles& get() {
    static const RunMetricHandles handles = [] {
      obs::MetricsRegistry& registry = obs::metrics();
      return RunMetricHandles{
          registry.counter_handle("sim.runs"),
          registry.counter_handle("sim.requests.measured"),
          registry.counter_handle("sim.requests.local"),
          registry.counter_handle("sim.requests.network"),
          registry.counter_handle("sim.requests.origin"),
          registry.counter_handle("sim.requests.aggregated"),
          registry.counter_handle("sim.upstream_fetches"),
          registry.counter_handle("sim.coordination_messages"),
          registry.counter_handle("sim.trace.sampled"),
          registry.histogram_handle("sim.latency_ms",
                                    MetricsCollector::latency_bucket_bounds()),
      };
    }();
    return handles;
  }
};

// Accumulates one timeline row per `epoch_requests` emitted requests.
// Fed exclusively from run-local state (per-epoch tallies plus the run's
// own CcnNetwork counters) — never from the process-global obs::metrics()
// registry, which parallel replications share and mutate concurrently.
//
// The per-epoch tallies are PER-ROUTER partials: accumulate() and
// on_aggregated() may be called concurrently for disjoint routers (the
// windowed engine's shards), and a flush sums the partials in
// router-index order — the canonical accumulation order. Every caller
// feeds each router's requests in that router's own order (in emission
// order, or router by router), so partials (and therefore rows) are
// bit-identical whichever serve order ran. The windowed engine aligns its
// windows to epoch boundaries and drives advance() serially, so the
// end-of-epoch network snapshot always sees exactly the epoch's requests.
class EpochRecorder {
 public:
  EpochRecorder(obs::Timeline* timeline, const CcnNetwork* network,
                std::size_t router_count)
      : timeline_(timeline),
        network_(network),
        epoch_requests_(timeline->epoch_requests()),
        slots_(router_count) {}

  /// Tallies one request whose serve outcome is known at emission into
  /// its first-hop router's partial. Thread-safe for DISTINCT routers;
  /// does not advance the epoch clock — pair with advance().
  void accumulate(std::size_t router, const ServeResult& result) {
    RouterSlot& slot = slots_[router];
    ++slot.requests;
    ++slot.tier_counts[static_cast<std::size_t>(result.tier)];
    slot.latency_ms_sum += result.latency_ms;
    slot.hops_sum += static_cast<double>(result.hops);
    slot.tier_latency_ms_sum[static_cast<std::size_t>(result.tier)] +=
        result.latency_ms;
  }

  /// One request that joined an in-flight fetch (interest aggregation),
  /// tallied into its first-hop router's partial: counted in the
  /// `requests` and `aggregated` columns at emission; its tier/latency
  /// resolve when the fetch lands and are not re-binned. Thread-safe for
  /// DISTINCT routers, like accumulate().
  void on_aggregated(std::size_t router) { ++slots_[router].aggregated; }

  /// Advances the epoch clock by `n` emitted requests and flushes a row
  /// when that lands exactly on an epoch boundary. Serial; the windowed
  /// engine keeps its windows epoch-aligned so a boundary can only be hit
  /// at n's end.
  void advance(std::uint64_t n) {
    emitted_ += n;
    if (n > 0 && emitted_ % epoch_requests_ == 0) flush();
  }

  /// Emits the final partial epoch, if any requests are pending in it.
  void finish() {
    if (emitted_ > flushed_) flush();
  }

 private:
  struct RouterSlot {
    std::uint64_t requests = 0;
    std::uint64_t aggregated = 0;
    std::uint64_t tier_counts[3] = {0, 0, 0};
    double latency_ms_sum = 0.0;
    double hops_sum = 0.0;
    double tier_latency_ms_sum[3] = {0.0, 0.0, 0.0};
  };

  void flush() {
    const CcnNetwork::CacheTotals totals = network_->cache_totals();
    const std::uint64_t traversals = network_->total_link_traversals();
    // Sum the per-router partials in router-index order — the fixed
    // grouping every serve order reproduces.
    std::uint64_t requests = 0;
    std::uint64_t aggregated = 0;
    std::uint64_t tier_counts[3] = {0, 0, 0};
    double latency_ms_sum = 0.0;
    double hops_sum = 0.0;
    double tier_latency_ms_sum[3] = {0.0, 0.0, 0.0};
    for (const RouterSlot& slot : slots_) {
      requests += slot.requests + slot.aggregated;
      aggregated += slot.aggregated;
      latency_ms_sum += slot.latency_ms_sum;
      hops_sum += slot.hops_sum;
      for (std::size_t i = 0; i < 3; ++i) {
        tier_counts[i] += slot.tier_counts[i];
        tier_latency_ms_sum[i] += slot.tier_latency_ms_sum[i];
      }
    }
    CCNOPT_ASSERT(requests == emitted_ - flushed_);
    std::vector<double> values;
    values.reserve(15);
    values.push_back(static_cast<double>(requests));
    values.push_back(static_cast<double>(tier_counts[0]));
    values.push_back(static_cast<double>(tier_counts[1]));
    values.push_back(static_cast<double>(tier_counts[2]));
    values.push_back(static_cast<double>(aggregated));
    values.push_back(latency_ms_sum);
    values.push_back(hops_sum);
    values.push_back(tier_latency_ms_sum[0]);
    values.push_back(tier_latency_ms_sum[1]);
    values.push_back(tier_latency_ms_sum[2]);
    values.push_back(static_cast<double>(totals.evictions - prev_evictions_));
    values.push_back(
        static_cast<double>(totals.insertions - prev_insertions_));
    values.push_back(static_cast<double>(totals.occupancy));
    values.push_back(static_cast<double>(traversals - prev_traversals_));
    values.push_back(static_cast<double>(network_->max_link_load()));
    timeline_->push_epoch(flushed_, emitted_ - 1, std::move(values));
    prev_evictions_ = totals.evictions;
    prev_insertions_ = totals.insertions;
    prev_traversals_ = traversals;
    flushed_ = emitted_;
    for (RouterSlot& slot : slots_) slot = RouterSlot{};
  }

  obs::Timeline* timeline_;
  const CcnNetwork* network_;
  std::uint64_t epoch_requests_;
  std::uint64_t emitted_ = 0;
  std::uint64_t flushed_ = 0;  // emitted_ at the last flush
  // Current-epoch per-router tallies, cleared at every flush.
  std::vector<RouterSlot> slots_;
  // Cumulative network counters at the previous epoch boundary, for deltas.
  std::uint64_t prev_evictions_ = 0;
  std::uint64_t prev_insertions_ = 0;
  std::uint64_t prev_traversals_ = 0;
};

// One registry flush per run: integer sums and a fixed-point histogram
// merge, so totals are exact and order-independent no matter which
// thread (or how many) ran the replications.
inline void flush_run_registry(const MetricsCollector& collected,
                               const SimReport& report,
                               std::uint64_t aggregated_count,
                               std::uint64_t upstream_count,
                               std::size_t trace_count) {
  obs::MetricsRegistry& registry = obs::metrics();
  const RunMetricHandles& handles = RunMetricHandles::get();
  registry.incr(handles.runs);
  registry.incr(handles.requests_measured, report.total_requests);
  registry.incr(handles.requests_local,
                collected.tier_count(ServeTier::kLocal));
  registry.incr(handles.requests_network,
                collected.tier_count(ServeTier::kNetwork));
  registry.incr(handles.requests_origin,
                collected.tier_count(ServeTier::kOrigin));
  registry.incr(handles.requests_aggregated, aggregated_count);
  registry.incr(handles.upstream_fetches, upstream_count);
  registry.incr(handles.coordination_messages, report.coordination_messages);
  registry.incr(handles.trace_sampled, trace_count);
  registry.merge_histogram(handles.latency_ms, collected.latency_histogram());
}

// One window's global order, and the scratch that computes it. Reused
// across windows, so its vectors keep their capacity.
struct WindowOrder {
  // The window's active positions, in (time, active position) order.
  std::vector<std::uint32_t> order;
  // end[a]: router a's entries in the window, a prefix of its candidates.
  std::vector<std::size_t> end;
  // order_window()'s scratch: the time of each entry of `order` while it
  // is sorted, and the bucket start offsets.
  std::vector<double> times;
  std::vector<std::uint32_t> bucket_start;
};

// Orders the windowed engine's candidates and cuts the window from them.
// candidates[a] holds active router a's arrival times that may enter the
// window, ascending. Writes the first `window` candidates in (time, active
// position) order into out.order, and each router's count among them into
// out.end.
//
// One stable counting sort on n buckets spread evenly over [lo, hi], the
// first and last candidate times, then one insertion pass. The bucket map
// never decreases as the time grows, in floating point too, so entries of
// distinct buckets are already in time order, and the insertion pass moves
// an entry only within its bucket, past entries with a strictly greater
// time. Candidates are placed router by router in active-position order,
// so ties on one time stay in active-position order. Buckets after the
// one that holds the window's last entry are never placed. Arrival times
// of equal-rate Poisson streams are near-uniform over [lo, hi], so buckets
// hold O(1) entries in expectation and the whole order costs O(n).
inline void order_window(std::span<const std::span<const double>> candidates,
                         std::uint64_t window, WindowOrder& out) {
  std::size_t n = 0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const std::span<const double> times : candidates) {
    if (times.empty()) continue;
    n += times.size();
    lo = std::min(lo, times.front());
    hi = std::max(hi, times.back());
  }
  CCNOPT_EXPECTS(window <= n);
  CCNOPT_EXPECTS(n < std::numeric_limits<std::uint32_t>::max());
  out.end.assign(candidates.size(), 0);
  out.order.clear();
  if (window == 0) return;

  // A span too narrow for a finite scale puts every entry in bucket 0.
  double scale = hi > lo ? static_cast<double>(n) / (hi - lo) : 0.0;
  if (!(scale < std::numeric_limits<double>::infinity())) scale = 0.0;
  const auto bucket = [lo, scale, last = n - 1](double time) {
    return std::min(last, static_cast<std::size_t>((time - lo) * scale));
  };
  std::vector<std::uint32_t>& start = out.bucket_start;
  start.assign(n + 1, 0);
  for (const std::span<const double> times : candidates) {
    for (const double time : times) ++start[bucket(time) + 1];
  }
  for (std::size_t b = 1; b <= n; ++b) start[b] += start[b - 1];
  // Buckets [0, cut) hold the window: bucket cut - 1 holds its last entry.
  const std::size_t cut = static_cast<std::size_t>(
      std::lower_bound(start.begin(), start.end(), window) - start.begin());
  const std::size_t placed = start[cut];
  // reserve() first sizes the buffers exactly, where resize() alone may
  // double them.
  out.order.reserve(placed);
  out.order.resize(placed);
  out.times.reserve(placed);
  out.times.resize(placed);
  for (std::size_t a = 0; a < candidates.size(); ++a) {
    for (const double time : candidates[a]) {
      const std::size_t b = bucket(time);
      if (b >= cut) break;  // the router's later candidates are too
      const std::uint32_t i = start[b]++;
      out.times[i] = time;
      out.order[i] = static_cast<std::uint32_t>(a);
    }
  }
  for (std::size_t i = 1; i < placed; ++i) {
    const double time = out.times[i];
    const std::uint32_t position = out.order[i];
    std::size_t j = i;
    for (; j > 0 && out.times[j - 1] > time; --j) {
      out.times[j] = out.times[j - 1];
      out.order[j] = out.order[j - 1];
    }
    out.times[j] = time;
    out.order[j] = position;
  }

  out.order.resize(window);
  for (const std::uint32_t position : out.order) ++out.end[position];
}

}  // namespace ccnopt::sim::detail
