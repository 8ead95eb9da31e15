#include "ccnopt/runtime/replication_runner.hpp"

#include <memory>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/common/random.hpp"
#include "ccnopt/numerics/stats.hpp"
#include "ccnopt/obs/registry.hpp"
#include "ccnopt/obs/span.hpp"
#include "ccnopt/topology/route_table.hpp"

namespace ccnopt::runtime {
namespace {

MetricSummary summarize(const std::vector<sim::SimReport>& reports,
                        double sim::SimReport::* metric) {
  numerics::RunningStats stats;
  for (const sim::SimReport& report : reports) stats.add(report.*metric);
  MetricSummary summary;
  summary.mean = stats.mean();
  if (stats.count() >= 2) {
    summary.stddev = stats.stddev();
    summary.ci95_half_width = stats.mean_ci_half_width();
  }
  return summary;
}

}  // namespace

ReplicationSummary ReplicationRunner::run(const topology::Graph& graph,
                                          const sim::SimConfig& base,
                                          std::size_t replications) const {
  CCNOPT_EXPECTS(replications >= 1);
  const obs::ScopedSpan span("replication.run");
  obs::metrics().incr("sim.replication_batches");
  ReplicationSummary summary;
  summary.master_seed = base.seed;
  summary.reports.resize(replications);
  std::vector<obs::TraceBuffer> trace_slots(replications);
  std::vector<obs::Timeline> timeline_slots(replications);
  std::vector<obs::TopoRecorder> topo_slots(replications);
  // One table for every replication, its blocks built on all cores.
  const auto routes = [&graph] {
    const obs::ScopedSpan route_span("replication.route_table");
    return std::make_shared<const topology::RouteTable>(graph);
  }();
  pool_.run(replications, [&](std::size_t i) {
    const obs::ScopedSpan sim_span("replication.sim");
    sim::SimConfig config = base;
    config.seed = derive_seed(base.seed, i);
    config.network.seed = derive_seed(config.seed, 1);
    sim::Simulation simulation(graph, config, routes);
    summary.reports[i] = simulation.run();
    if (base.trace_sample_k > 0) trace_slots[i] = simulation.traces();
    if (base.timeline_epoch > 0) timeline_slots[i] = simulation.timeline();
    if (base.record_topo) topo_slots[i] = simulation.topo();
  });
  // Concatenate in replication order so the merged buffers are independent
  // of worker scheduling.
  for (std::size_t i = 0; i < replications; ++i) {
    for (obs::TraceEvent event : trace_slots[i]) {
      event.replication = static_cast<std::uint32_t>(i);
      summary.traces.push_back(event);
    }
  }
  if (base.timeline_epoch > 0) {
    summary.timeline =
        obs::Timeline(base.timeline_epoch, sim::timeline_columns());
    for (std::size_t i = 0; i < replications; ++i) {
      summary.timeline.append(timeline_slots[i],
                              static_cast<std::uint32_t>(i));
    }
  }
  if (base.record_topo) {
    for (std::size_t i = 0; i < replications; ++i) {
      summary.topo.merge(topo_slots[i]);
    }
  }
  summary.mean_latency_ms =
      summarize(summary.reports, &sim::SimReport::mean_latency_ms);
  summary.origin_load = summarize(summary.reports, &sim::SimReport::origin_load);
  summary.local_fraction =
      summarize(summary.reports, &sim::SimReport::local_fraction);
  summary.mean_hops = summarize(summary.reports, &sim::SimReport::mean_hops);
  return summary;
}

}  // namespace ccnopt::runtime
