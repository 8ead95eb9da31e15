#include "ccnopt/sim/simulation.hpp"

#include <vector>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/common/logging.hpp"
#include "ccnopt/sim/sharded.hpp"

namespace ccnopt::sim {

const std::vector<std::string>& timeline_columns() {
  static const std::vector<std::string> columns = {
      "requests",
      "local",
      "network",
      "origin",
      "aggregated",
      "latency_ms_sum",
      "hops_sum",
      "local_latency_ms_sum",
      "network_latency_ms_sum",
      "origin_latency_ms_sum",
      "evictions",
      "insertions",
      "occupancy",
      "link_traversals",
      "max_link_load",
  };
  return columns;
}

Simulation::Simulation(topology::Graph graph, SimConfig config,
                       std::shared_ptr<const topology::RouteTable> routes)
    : config_(std::move(config)) {
  CCNOPT_EXPECTS(config_.shards >= 1);
  // The topo recorder exports per-link loads, so its runs keep the link
  // counters live. (Tracking never changes serve outcomes, only counters.)
  if (config_.record_topo) config_.network.track_link_load = true;
  network_ = std::make_unique<CcnNetwork>(std::move(graph), config_.network,
                                          std::move(routes));
  workload_ = std::make_unique<ZipfWorkload>(
      network_->router_count(), config_.network.catalog_size, config_.zipf_s,
      config_.seed, config_.sampler_kind);
}

void Simulation::set_workload(std::unique_ptr<Workload> workload) {
  CCNOPT_EXPECTS(workload != nullptr);
  CCNOPT_EXPECTS(workload->catalog_size() <= config_.network.catalog_size);
  workload_ = std::move(workload);
}

SimReport Simulation::run() {
  CCNOPT_EXPECTS(config_.arrival_rate_per_router > 0.0);
  // The windowed engine: runs that qualify partition the stream by first-hop
  // router and serve shards concurrently; the rest are served on one shard
  // in emission order (sharded.hpp). Outputs are bit-identical at any shard
  // count. Without an attached executor the shards run serially, which
  // keeps the engine testable single-threaded.
  const char* const disqualifier =
      sharded_run_disqualifier(*workload_, *network_);
  if (disqualifier != nullptr && config_.shards > 1) {
    // Same outputs, one thread — never let a bench measure one thread
    // thinking it measured shards.
    CCNOPT_LOG(kWarn) << "windowed engine: shards=" << config_.shards
                      << " requested but the run does not qualify ("
                      << disqualifier
                      << "); serving it on one shard in emission order";
  }
  const bool emission_order = disqualifier != nullptr;
  if (shard_executor_ != nullptr) {
    return run_windowed(*shard_executor_, emission_order);
  }
  SerialShardExecutor serial;
  return run_windowed(serial, emission_order);
}

}  // namespace ccnopt::sim
