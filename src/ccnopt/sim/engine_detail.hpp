// Internals shared by Simulation's request engines (the event loop and the
// batched engine in simulation.cpp, the windowed engine in sharded.cpp):
// interned registry handles, the timeline epoch recorder, and the
// end-of-run registry flush. Implementation detail — not installed, not
// part of the sim API.
#pragma once

#include <cstdint>
#include <vector>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/obs/registry.hpp"
#include "ccnopt/obs/timeline.hpp"
#include "ccnopt/sim/metrics.hpp"
#include "ccnopt/sim/network.hpp"

namespace ccnopt::sim::detail {

// Sub-stream index of the run seed reserved for the trace sampler, far
// outside the per-router clock indices [0, router_count).
inline constexpr std::uint64_t kTraceSeedIndex = 0x7ace5eedULL;

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
// The per-epoch tallies are PER-ROUTER partials: accumulate() may be
// called concurrently for disjoint routers (the windowed engine's shards),
// and a flush sums the partials in router-index order — the
// canonical accumulation order shared by every engine. Every engine calls
// accumulate() for each router's requests in that router's own order
// (the serial engines in emission order, the windowed engine router by
// router), so partials (and therefore rows) are bit-identical whichever
// engine ran. Engines align
// their processing blocks/windows to epoch boundaries and drive
// advance() serially, so the end-of-epoch network snapshot always sees
// exactly the epoch's requests.
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

  /// One request that joined an in-flight fetch (interest aggregation):
  /// counted in the `requests` and `aggregated` columns at emission; its
  /// tier/latency resolve at the completion event and are not re-binned.
  /// Event-loop only (aggregation never runs sharded), hence serial.
  void on_aggregated() { ++aggregated_; }

  /// Advances the epoch clock by `n` emitted requests and flushes a row
  /// when that lands exactly on an epoch boundary. Serial; callers keep
  /// blocks/windows epoch-aligned so a boundary can only be hit at n's
  /// end (the event loop advances one request at a time).
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
    std::uint64_t tier_counts[3] = {0, 0, 0};
    double latency_ms_sum = 0.0;
    double hops_sum = 0.0;
    double tier_latency_ms_sum[3] = {0.0, 0.0, 0.0};
  };

  void flush() {
    const CcnNetwork::CacheTotals totals = network_->cache_totals();
    const std::uint64_t traversals = network_->total_link_traversals();
    // Sum the per-router partials in router-index order — the fixed
    // grouping every engine reproduces.
    std::uint64_t requests = aggregated_;
    std::uint64_t tier_counts[3] = {0, 0, 0};
    double latency_ms_sum = 0.0;
    double hops_sum = 0.0;
    double tier_latency_ms_sum[3] = {0.0, 0.0, 0.0};
    for (const RouterSlot& slot : slots_) {
      requests += slot.requests;
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
    values.push_back(static_cast<double>(aggregated_));
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
    aggregated_ = 0;
    for (RouterSlot& slot : slots_) slot = RouterSlot{};
  }

  obs::Timeline* timeline_;
  const CcnNetwork* network_;
  std::uint64_t epoch_requests_;
  std::uint64_t emitted_ = 0;
  std::uint64_t flushed_ = 0;  // emitted_ at the last flush
  // Current-epoch per-router tallies, cleared at every flush.
  std::vector<RouterSlot> slots_;
  std::uint64_t aggregated_ = 0;
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

}  // namespace ccnopt::sim::detail
