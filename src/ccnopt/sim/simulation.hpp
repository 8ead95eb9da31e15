// Ties workload, network and metrics into one run of the windowed request
// engine (sharded.hpp): Poisson request arrivals per router, a warmup phase
// (cache convergence), then a measured phase whose metrics form the
// SimReport.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ccnopt/obs/timeline.hpp"
#include "ccnopt/obs/topo.hpp"
#include "ccnopt/obs/trace.hpp"
#include "ccnopt/sim/network.hpp"
#include "ccnopt/sim/workload.hpp"

namespace ccnopt::sim {

class ShardExecutor;  // sharded.hpp

struct SimConfig {
  NetworkConfig network;
  /// Per-router coordinated storage x (contents). The provisioning epoch
  /// runs once at simulation start.
  std::size_t coordinated_x = 0;
  /// Zipf exponent of the default IRM workload (ignored when a custom
  /// workload is installed).
  double zipf_s = 0.8;
  std::uint64_t warmup_requests = 0;
  std::uint64_t measured_requests = 100000;
  /// Poisson arrival rate per router, requests per millisecond.
  double arrival_rate_per_router = 1.0;
  /// CCN Pending Interest Table semantics: while a router's fetch for a
  /// content is in flight, further local requests for it join the pending
  /// interest instead of issuing their own upstream fetch, and complete
  /// together when the data arrives. The paper's model has no notion of
  /// in-flight time, so this is off by default;
  /// bench_ablation_aggregation measures what it saves.
  bool interest_aggregation = false;
  /// Sampler implementation for the default Zipf workload: kAuto keeps the
  /// alias table at small catalogs and switches to the constant-memory
  /// rejection-inversion sampler at web-scale catalogs.
  popularity::SamplerKind sampler_kind = popularity::SamplerKind::kAuto;
  /// Shards of the windowed request engine (at least 1), which serves
  /// every run, interest aggregation included. A run that qualifies (see
  /// sharded_run_disqualifier in sharded.hpp) has its request stream
  /// partitioned by first-hop router across this many shards, each
  /// serving its routers' window segments router-major against the one
  /// shared network; an attached ShardExecutor (set_shard_executor)
  /// supplies the worker threads, otherwise the shards run serially on
  /// the calling thread. Any other run serves its requests one at a time
  /// in emission order, and only its per-router stages (arrival times,
  /// content draws, recording) run on the shards, with a one-line
  /// CCNOPT_LOG(kWarn) naming the disqualifier when shards > 1, so bench
  /// runs cannot silently measure a serial serve loop. Every output
  /// (report, metrics, timeline, topo, traces) is byte-identical at any
  /// shard count.
  std::size_t shards = 1;
  std::uint64_t seed = 42;
  /// Time-resolved telemetry: when > 0, the run accumulates an
  /// obs::Timeline with one row per `timeline_epoch` emitted requests
  /// (warmup included, so convergence is visible). Epoch boundaries are
  /// request indices — never wall clock — and every column is a pure
  /// function of seeds and inputs, so the timeline is byte-identical for
  /// any thread count. See timeline_columns() for the column roster.
  /// 0 disables timeline accumulation.
  std::uint64_t timeline_epoch = 0;
  /// Deterministic request tracing: every k-th request (1-in-k sampling
  /// keyed off the run seed) is recorded into traces(). 0 disables
  /// tracing; 1 traces every measured request. The sampled set is a pure
  /// function of (seed, request index), so traces are bit-identical across
  /// thread counts. With interest_aggregation, requests that join an
  /// in-flight fetch are not traced (only the initiating fetch is).
  std::uint64_t trace_sample_k = 0;
  /// Topology-resolved telemetry: when true, the run accumulates an
  /// obs::TopoRecorder (per-router tier/latency/placement counters,
  /// per-link traversal loads, the placement-depth histogram) exposed via
  /// topo(). Forces network.track_link_load on so the link counters are
  /// live. Tier counters cover the measured phase only (they reconcile
  /// exactly with the run's SimReport); placements and link loads cover
  /// the whole run. With interest_aggregation, requests that join an
  /// in-flight fetch are not topo-recorded (same rule as traces). Off by
  /// default — the serve path then pays a single null-pointer branch.
  bool record_topo = false;
};

class Simulation {
 public:
  /// Builds the network and a default ZipfWorkload. `routes`, when given,
  /// is the graph's shared RouteTable (see CcnNetwork's constructor).
  Simulation(topology::Graph graph, SimConfig config,
             std::shared_ptr<const topology::RouteTable> routes = nullptr);

  /// Replaces the workload (e.g. CyclicWorkload for the motivating
  /// example). Must be called before run(); the workload must cover
  /// router_count() routers and a catalog within the network's.
  void set_workload(std::unique_ptr<Workload> workload);

  /// Provisions coordination, replays warmup + measured requests, returns
  /// the measured-phase report (coordination messages included).
  SimReport run();

  /// Attaches the executor that runs the windowed engine's shard bodies
  /// (e.g. runtime::ShardScheduler); nullptr (the default) runs the shards
  /// serially on the calling thread. Not owned; must outlive run().
  void set_shard_executor(ShardExecutor* executor) {
    shard_executor_ = executor;
  }

  /// Wall-clock split of the last run(): time spent emitting warmup
  /// requests vs measured requests (benchmarks report the two phases'
  /// throughput separately). Zeroes before the first run.
  struct PhaseSeconds {
    double warmup = 0.0;
    double measured = 0.0;
  };
  PhaseSeconds last_phase_seconds() const { return phase_seconds_; }

  /// Wall-clock seconds the last run() spent in its record stage, summed
  /// over windows: emission-order windows without interest aggregation
  /// serve serially, then record in a separate parallel pass. 0 where
  /// recording is fused into the serve loop — router-major runs and
  /// aggregated windows — and before the first run; benchmarks then
  /// estimate record time per request instead.
  double last_record_seconds() const { return record_seconds_; }

  const CcnNetwork& network() const { return *network_; }
  CcnNetwork& network() { return *network_; }

  /// Sampled request traces of the last run() (empty when
  /// trace_sample_k == 0), in request emission order.
  const obs::TraceBuffer& traces() const { return trace_; }

  /// Per-epoch telemetry of the last run() (disabled/empty when
  /// timeline_epoch == 0), in epoch order. Covers warmup + measured
  /// requests; byte-identical for any thread count.
  const obs::Timeline& timeline() const { return timeline_; }

  /// Topology-resolved telemetry of the last run() (disabled/empty unless
  /// record_topo); byte-identical for any thread count.
  const obs::TopoRecorder& topo() const { return topo_; }

 private:
  /// The windowed request engine (sharded.cpp), which serves every run;
  /// `emission_order` serves serially in the global order (runs
  /// sharded_run_disqualifier rejects), with every other stage on the
  /// shards.
  SimReport run_windowed(ShardExecutor& executor, bool emission_order);

  SimConfig config_;
  std::unique_ptr<CcnNetwork> network_;
  std::unique_ptr<Workload> workload_;
  ShardExecutor* shard_executor_ = nullptr;
  PhaseSeconds phase_seconds_;
  double record_seconds_ = 0.0;
  obs::TraceBuffer trace_;
  obs::Timeline timeline_;
  obs::TopoRecorder topo_;
};

/// The fixed column roster of simulation timelines, in column order:
/// requests, local, network, origin, aggregated, latency_ms_sum, hops_sum,
/// local_latency_ms_sum, network_latency_ms_sum, origin_latency_ms_sum,
/// evictions, insertions, occupancy, link_traversals, max_link_load.
/// All columns are per-epoch deltas except `occupancy` and `max_link_load`,
/// which are end-of-epoch gauges. Link columns are 0 when
/// NetworkConfig::track_link_load is off.
const std::vector<std::string>& timeline_columns();

}  // namespace ccnopt::sim
