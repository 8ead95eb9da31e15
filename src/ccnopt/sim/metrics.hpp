// Simulation measurement: per-tier counts and latency/hop accumulators,
// reported as the quantities the paper evaluates (origin load, average
// latency, average hop count, coordination messages).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "ccnopt/numerics/stats.hpp"
#include "ccnopt/obs/registry.hpp"

namespace ccnopt::sim {

/// Where a request was ultimately served from (the three latency tiers of
/// Figure 2).
enum class ServeTier { kLocal = 0, kNetwork = 1, kOrigin = 2 };

const char* to_string(ServeTier tier);

/// Accumulates per-request measurements into PER-ROUTER partial
/// accumulators (Welford stats, tier counts, a fixed-point latency
/// histogram) and aggregates them on demand through the deterministic
/// fixed-shape merge tree of numerics::merge_tree. The per-router
/// partials are the canonical accumulation order: every request engine
/// records each router's requests in that router's emission order, and
/// the slot array is always sized to the router count — so the
/// aggregated moments are bit-identical whichever engine ran and however
/// many shards recorded concurrently (shards own disjoint routers, hence
/// disjoint slots).
class MetricsCollector {
 public:
  /// One router slot; single-slot collectors behave like a plain global
  /// accumulator (the router-less record() overload below).
  MetricsCollector();

  /// Resizes the per-router slot array, clearing all request
  /// accumulators (coordination messages are preserved — they are
  /// recorded per run, not per router). Engines call this once before
  /// replay with the network's router count.
  void resize_routers(std::size_t router_count);
  std::size_t router_count() const { return slots_.size(); }

  /// Records one served request against `router`'s slot. Safe to call
  /// concurrently for DISTINCT routers; calls for the same router must
  /// be serialized (the windowed engine's router partition guarantees
  /// this).
  void record(std::size_t router, ServeTier tier, double latency_ms,
              std::uint32_t hops);
  /// Single-slot convenience (router 0) for unit tests and call sites
  /// without a router identity.
  void record(ServeTier tier, double latency_ms, std::uint32_t hops) {
    record(0, tier, latency_ms, hops);
  }
  void record_coordination_messages(std::uint64_t count) {
    coordination_messages_ += count;
  }
  /// Returns the collector to its freshly constructed state — every
  /// router slot is cleared back to a single empty slot, including
  /// coordination_messages_ and the latency histograms.
  void reset();

  std::uint64_t total_requests() const;
  std::uint64_t tier_count(ServeTier tier) const;
  /// Fraction of requests served by `tier`; 0 when nothing recorded.
  double tier_fraction(ServeTier tier) const;
  /// Fraction of requests served by the origin (the paper's "load on
  /// origin").
  double origin_load() const { return tier_fraction(ServeTier::kOrigin); }

  /// Mean end-to-end latency over all recorded requests (ms).
  double mean_latency_ms() const;
  /// Mean latency conditional on the tier — the empirical d0/d1/d2.
  double mean_tier_latency_ms(ServeTier tier) const;
  /// Mean router-side hop count per request.
  double mean_hops() const;

  std::uint64_t coordination_messages() const {
    return coordination_messages_;
  }

  /// Fixed-bucket latency distribution accumulated by record(): the
  /// per-router histograms merged in router-index order (fixed-point
  /// sums, so the merge is exact under any grouping). Merged into the
  /// obs::metrics() registry once per simulation run so the hot path
  /// never touches the registry.
  obs::Histogram latency_histogram() const;

  /// Upper bucket bounds (ms) of latency_histogram().
  static std::vector<double> latency_bucket_bounds();

 private:
  /// One router's partial accumulators. Every double-valued statistic
  /// lives here (never globally) so concurrent shards touch disjoint
  /// memory and the aggregation order is canonical.
  struct RouterSlot {
    numerics::RunningStats latency;
    numerics::RunningStats hops;
    numerics::RunningStats tier_latency[3];
    std::uint64_t tier_counts[3] = {0, 0, 0};
    obs::Histogram latency_hist;
  };

  /// Fixed-shape merge-tree fold of one RunningStats member over the
  /// router slots, in router-index order.
  template <typename Member>
  numerics::RunningStats fold(const Member& member) const;

  std::vector<RouterSlot> slots_;
  std::uint64_t coordination_messages_ = 0;
};

/// Final report of one simulation run.
struct SimReport {
  std::uint64_t total_requests = 0;
  /// Requests that joined an in-flight fetch instead of issuing their own
  /// (0 unless SimConfig::interest_aggregation).
  std::uint64_t aggregated_requests = 0;
  /// Upstream fetches actually issued (network + origin tiers, after
  /// aggregation).
  std::uint64_t upstream_fetches = 0;
  double local_fraction = 0.0;
  double network_fraction = 0.0;
  double origin_load = 0.0;
  double mean_latency_ms = 0.0;
  double mean_hops = 0.0;
  double mean_local_latency_ms = 0.0;    // empirical d0
  double mean_network_latency_ms = 0.0;  // empirical d1
  double mean_origin_latency_ms = 0.0;   // empirical d2
  std::uint64_t coordination_messages = 0;
};

SimReport make_report(const MetricsCollector& metrics);

std::ostream& operator<<(std::ostream& out, const SimReport& report);

}  // namespace ccnopt::sim
