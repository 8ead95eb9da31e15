// Monte-Carlo replication of the discrete-event simulator.
//
// Fans out N independent sim::Simulation runs across the pool. Replication
// i runs with seed derive_seed(master, i) (its network RNG gets the next
// sub-stream of that seed), so the set of runs is fixed by the master seed
// alone: results are bit-identical regardless of thread count. Reports are
// kept in replication order and aggregated into mean / stddev / 95%-CI
// summaries per metric.
#pragma once

#include <cstddef>
#include <vector>

#include "ccnopt/obs/trace.hpp"
#include "ccnopt/runtime/thread_pool.hpp"
#include "ccnopt/sim/simulation.hpp"
#include "ccnopt/topology/graph.hpp"

namespace ccnopt::runtime {

/// Normal-approximation summary of one metric across replications
/// (half-width z * sd / sqrt(n), z = 1.96; 0 when n < 2).
struct MetricSummary {
  double mean = 0.0;
  double stddev = 0.0;
  double ci95_half_width = 0.0;
};

struct ReplicationSummary {
  std::uint64_t master_seed = 0;
  std::vector<sim::SimReport> reports;  // one per replication, in order
  /// Sampled request traces concatenated in replication order, with each
  /// event's `replication` field set to its replication index. Empty unless
  /// base.trace_sample_k > 0. Replication order (not completion order), so
  /// the buffer is bit-identical regardless of thread count.
  obs::TraceBuffer traces;
  /// Per-epoch timelines merged in replication order, with each epoch's
  /// `replication` field set to its replication index. Disabled/empty
  /// unless base.timeline_epoch > 0; bit-identical regardless of thread
  /// count for the same reason as `traces`.
  obs::Timeline timeline;
  /// Per-router/per-link flight recorders summed entity-by-entity in
  /// replication index order (replications() tracks how many merged).
  /// Disabled/empty unless base.record_topo; every counter is an integer
  /// sum and the one double accumulates in that fixed order, so the merged
  /// recorder is bit-identical regardless of thread count.
  obs::TopoRecorder topo;
  MetricSummary mean_latency_ms;
  MetricSummary origin_load;
  MetricSummary local_fraction;
  MetricSummary mean_hops;

  std::size_t replications() const { return reports.size(); }
};

class ReplicationRunner {
 public:
  explicit ReplicationRunner(ThreadPool& pool) : pool_(pool) {}

  /// Runs `replications` independent simulations of `base` on `graph`
  /// (base.seed is the master seed), all routing on one shared
  /// RouteTable of `graph`. Requires replications >= 1.
  ReplicationSummary run(const topology::Graph& graph,
                         const sim::SimConfig& base,
                         std::size_t replications) const;

 private:
  ThreadPool& pool_;
};

}  // namespace ccnopt::runtime
