// Resilience report: what an operator would run before committing to a
// coordination level.
//
//   resilience_report [topology] [x]
//
// For the chosen provisioning it reports (a) the healthy steady state,
// (b) the worst single-router failure (origin spike, latency, pool
// contents lost, and the link that heats up most), and (c) the state
// after repair — combining the failure-injection and link-load machinery.
#include <algorithm>
#include <iostream>

#include "ccnopt/common/args.hpp"
#include "ccnopt/common/strings.hpp"
#include "ccnopt/common/table.hpp"
#include "ccnopt/sim/network.hpp"
#include "ccnopt/sim/workload.hpp"
#include "ccnopt/topology/datasets.hpp"

namespace {

using namespace ccnopt;

struct Snapshot {
  double origin_load = 0.0;
  double mean_latency_ms = 0.0;
  std::uint64_t max_link = 0;
  std::string hottest;
};

Snapshot measure(sim::CcnNetwork& network, std::uint64_t seed) {
  network.reset_link_load();
  sim::ZipfWorkload workload(network.router_count(),
                             network.config().catalog_size, 0.8, seed);
  double latency = 0.0;
  std::uint64_t origin = 0;
  std::uint64_t served = 0;
  for (std::uint64_t r = 0; r < 80000; ++r) {
    const auto router =
        static_cast<topology::NodeId>(r % network.router_count());
    if (network.is_failed(router)) continue;
    const sim::ServeResult result =
        network.serve(router, workload.next(router));
    latency += result.latency_ms;
    origin += (result.tier == sim::ServeTier::kOrigin) ? 1 : 0;
    ++served;
  }
  Snapshot snapshot;
  snapshot.origin_load =
      static_cast<double>(origin) / static_cast<double>(served);
  snapshot.mean_latency_ms = latency / static_cast<double>(served);
  snapshot.max_link = network.max_link_load();
  auto loads = network.link_load();
  const auto hottest = std::max_element(
      loads.begin(), loads.end(), [](const auto& a, const auto& b) {
        return a.traversals < b.traversals;
      });
  snapshot.hottest = network.graph().node(hottest->u).name + "--" +
                     network.graph().node(hottest->v).name;
  return snapshot;
}

}  // namespace

int main(int argc, char** argv) {
  ArgReader args(argc, argv);
  const std::string topology_name = args.text_at(0, "us-a");
  const std::size_t x = args.count_at(1, 100);
  if (!args.finish(2)) return 2;

  const auto graph = topology::dataset_by_name(topology_name);
  if (!graph) {
    std::cerr << graph.status().to_string() << "\n";
    return 1;
  }

  sim::NetworkConfig config;
  config.catalog_size = 20000;
  config.capacity_c = 200;
  config.local_mode = sim::LocalStoreMode::kStaticTop;
  config.origin_gateway = 0;
  config.origin_extra_ms = 50.0;
  config.track_link_load = true;
  if (x > config.capacity_c) {
    std::cerr << "x must be <= capacity (" << config.capacity_c << ")\n";
    return 1;
  }

  std::cout << "=== Resilience report: " << graph->name() << ", x = " << x
            << " of " << config.capacity_c << " coordinated ===\n\n";
  sim::CcnNetwork network(*graph, config);
  network.provision(x);
  const Snapshot healthy = measure(network, 1);

  // Worst single failure over all non-gateway routers.
  Snapshot worst;
  topology::NodeId worst_router = 0;
  std::size_t worst_lost = 0;
  for (topology::NodeId candidate = 1; candidate < graph->node_count();
       ++candidate) {
    network.set_router_failed(candidate, true);
    const Snapshot snapshot = measure(network, 1);
    if (snapshot.mean_latency_ms > worst.mean_latency_ms) {
      worst = snapshot;
      worst_router = candidate;
      worst_lost = network.coordinated_contents_lost();
    }
    network.set_router_failed(candidate, false);
    network.provision(x);  // restore the full assignment
  }

  // Repair after the worst failure.
  network.set_router_failed(worst_router, true);
  network.provision(x);
  const Snapshot repaired = measure(network, 1);

  TextTable table({"state", "origin load", "mean latency ms",
                   "hottest link", "max link load"});
  table.add_row({"healthy", format_double(healthy.origin_load, 4),
                 format_double(healthy.mean_latency_ms, 2), healthy.hottest,
                 std::to_string(healthy.max_link)});
  table.add_row({"worst failure (" + graph->node(worst_router).name + ")",
                 format_double(worst.origin_load, 4),
                 format_double(worst.mean_latency_ms, 2), worst.hottest,
                 std::to_string(worst.max_link)});
  table.add_row({"after repair", format_double(repaired.origin_load, 4),
                 format_double(repaired.mean_latency_ms, 2),
                 repaired.hottest, std::to_string(repaired.max_link)});
  table.print(std::cout);
  std::cout << "\nworst single failure loses " << worst_lost
            << " coordinated contents until the coordinator re-provisions "
               "over the survivors\n";
  return 0;
}
