// Link-load accounting, multi-origin content mapping in the data plane,
// and hop conservation: reported hops are the links a request walked.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>

#include "ccnopt/common/random.hpp"
#include "ccnopt/sim/network.hpp"
#include "ccnopt/sim/simulation.hpp"
#include "ccnopt/sim/workload.hpp"
#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/generators.hpp"
#include "ccnopt/topology/route_table.hpp"

namespace ccnopt::sim {
namespace {

NetworkConfig tracked_config() {
  NetworkConfig config;
  config.catalog_size = 1000;
  config.capacity_c = 20;
  config.local_mode = LocalStoreMode::kStaticTop;
  config.origin_gateway = 0;
  config.origin_extra_ms = 50.0;
  config.track_link_load = true;
  return config;
}

TEST(LinkLoad, LocalHitsTouchNoLinks) {
  CcnNetwork network(topology::make_ring(4, 1.0), tracked_config());
  network.provision(0);
  for (int i = 0; i < 10; ++i) (void)network.serve(1, 1);
  EXPECT_EQ(network.total_link_traversals(), 0u);
  EXPECT_EQ(network.max_link_load(), 0u);
}

TEST(LinkLoad, OriginFetchWalksTheShortestPath) {
  // Line 0-1-2-3, gateway at 0: a miss at router 3 crosses links
  // (2,3), (1,2), (0,1) exactly once each.
  CcnNetwork network(topology::make_line(4, 1.0), tracked_config());
  network.provision(0);
  (void)network.serve(3, 999);
  EXPECT_EQ(network.total_link_traversals(), 3u);
  for (const auto& load : network.link_load()) {
    EXPECT_EQ(load.traversals, 1u) << load.u << "-" << load.v;
  }
}

TEST(LinkLoad, PeerFetchWalksPathToOwner) {
  CcnNetwork network(topology::make_line(4, 1.0), tracked_config());
  network.provision(10);
  // Find a content owned by router 3 and request it at router 2.
  cache::ContentId owned = 0;
  for (cache::ContentId rank = 11; rank <= 50 && owned == 0; ++rank) {
    if (network.store(3).coordinated_contains(rank)) owned = rank;
  }
  ASSERT_NE(owned, 0u);
  network.reset_link_load();
  const ServeResult result = network.serve(2, owned);
  ASSERT_EQ(result.tier, ServeTier::kNetwork);
  EXPECT_EQ(network.total_link_traversals(), 1u);  // single link 2-3
  const auto loads = network.link_load();
  const auto it = std::find_if(loads.begin(), loads.end(), [](const auto& l) {
    return l.u == 2 && l.v == 3;
  });
  ASSERT_NE(it, loads.end());
  EXPECT_EQ(it->traversals, 1u);
}

TEST(LinkLoad, GatewayAdjacentLinksCarryTheOriginTraffic) {
  // In a star with the hub as gateway, all origin traffic concentrates on
  // leaf-hub links; total traversals == number of origin fetches.
  CcnNetwork network(topology::make_star(5, 1.0), tracked_config());
  network.provision(0);
  ZipfWorkload workload(5, 1000, 0.8, 3);
  std::uint64_t origin_fetches = 0;
  for (std::uint64_t r = 0; r < 20000; ++r) {
    const auto router = static_cast<topology::NodeId>(1 + r % 4);  // leaves
    const ServeResult result = network.serve(router, workload.next(router));
    origin_fetches += (result.tier == ServeTier::kOrigin) ? 1 : 0;
  }
  EXPECT_EQ(network.total_link_traversals(), origin_fetches);
}

TEST(LinkLoad, CoordinationSpreadsTraffic) {
  // Fully coordinated pools exchange traffic among peers instead of
  // funneling everything toward the gateway: the max-loaded link carries a
  // smaller share of total traversals.
  auto share = [](std::size_t x) {
    NetworkConfig config = tracked_config();
    config.catalog_size = 5000;
    config.capacity_c = 100;
    CcnNetwork network(topology::make_ring(8, 1.0), config);
    network.provision(x);
    ZipfWorkload workload(8, 5000, 0.8, 9);
    for (std::uint64_t r = 0; r < 40000; ++r) {
      const auto router = static_cast<topology::NodeId>(r % 8);
      (void)network.serve(router, workload.next(router));
    }
    return static_cast<double>(network.max_link_load()) /
           static_cast<double>(network.total_link_traversals());
  };
  EXPECT_LT(share(100), share(0));
}

TEST(LinkLoad, ResetClears) {
  CcnNetwork network(topology::make_line(3, 1.0), tracked_config());
  network.provision(0);
  (void)network.serve(2, 999);
  EXPECT_GT(network.total_link_traversals(), 0u);
  network.reset_link_load();
  EXPECT_EQ(network.total_link_traversals(), 0u);
  EXPECT_EQ(network.max_link_load(), 0u);
}

TEST(LinkLoadDeath, AccessRequiresTracking) {
  NetworkConfig config = tracked_config();
  config.track_link_load = false;
  CcnNetwork network(topology::make_line(3, 1.0), config);
  EXPECT_DEATH((void)network.link_load(), "precondition");
}

TEST(MultiOrigin, ContentsHashAcrossGateways) {
  NetworkConfig config = tracked_config();
  config.track_link_load = false;
  config.origins = {NetworkConfig::OriginSpec{0, 10.0, 1},
                    NetworkConfig::OriginSpec{2, 30.0, 2}};
  CcnNetwork network(topology::make_ring(4, 1.0), config);
  network.provision(0);
  // content % 2 selects the origin: even -> gateway 0, odd -> gateway 2.
  const ServeResult even = network.serve(1, 998);
  const ServeResult odd = network.serve(1, 999);
  ASSERT_EQ(even.tier, ServeTier::kOrigin);
  ASSERT_EQ(odd.tier, ServeTier::kOrigin);
  EXPECT_EQ(even.served_by, 0u);
  EXPECT_EQ(odd.served_by, 2u);
  // Ring node 1: one hop to either gateway; extras differ per origin.
  EXPECT_DOUBLE_EQ(even.latency_ms, 1.0 + 1.0 + 10.0);
  EXPECT_DOUBLE_EQ(odd.latency_ms, 1.0 + 1.0 + 30.0);
  EXPECT_EQ(even.hops, 2u);
  EXPECT_EQ(odd.hops, 3u);
}

TEST(MultiOrigin, NoOriginGatewayMayFail) {
  NetworkConfig config = tracked_config();
  config.origins = {NetworkConfig::OriginSpec{0, 10.0, 1},
                    NetworkConfig::OriginSpec{2, 30.0, 2}};
  CcnNetwork network(topology::make_ring(4, 1.0), config);
  EXPECT_DEATH(network.set_router_failed(2, true), "precondition");
  network.set_router_failed(1, true);  // non-gateway is fine
  EXPECT_TRUE(network.is_failed(1));
}

/// The default Zipf workload with one router silenced: a failed router
/// must not originate requests.
class SilencedRouterWorkload final : public Workload {
 public:
  SilencedRouterWorkload(const topology::Graph& graph, const SimConfig& config,
                         topology::NodeId silenced)
      : zipf_(graph.node_count(), config.network.catalog_size, config.zipf_s,
              config.seed),
        silenced_(silenced) {}

  cache::ContentId next(std::size_t router) override {
    return zipf_.next(router);
  }
  std::uint64_t catalog_size() const override { return zipf_.catalog_size(); }
  bool active(std::size_t router) const override {
    return router != silenced_;
  }
  bool per_router_streams() const override { return true; }

 private:
  ZipfWorkload zipf_;
  topology::NodeId silenced_;
};

/// The highest-degree router, other than the gateways, whose failure
/// leaves the other routers connected: it lies on many shortest paths.
topology::NodeId hub_to_fail(const topology::Graph& graph,
                             const std::vector<NetworkConfig::OriginSpec>&
                                 origins) {
  topology::NodeId best = 0;
  std::size_t best_degree = 0;
  for (topology::NodeId r = 0; r < graph.node_count(); ++r) {
    const auto is_gateway = [r](const NetworkConfig::OriginSpec& origin) {
      return origin.gateway == r;
    };
    if (std::any_of(origins.begin(), origins.end(), is_gateway)) continue;
    const std::size_t degree = graph.neighbors(r).size();
    if (degree <= best_degree) continue;
    std::vector<bool> blocked(graph.node_count(), false);
    blocked[r] = true;
    const topology::RouteTable table(graph, blocked);
    const std::span<const topology::Route> row =
        table.row(origins[0].gateway);
    const auto unreachable = [](const topology::Route& route) {
      return route.latency_ms >= topology::kUnreachable;
    };
    // Only r itself is cut off from the gateway.
    if (std::count_if(row.begin(), row.end(), unreachable) == 1) {
      best = r;
      best_degree = degree;
    }
  }
  EXPECT_GT(best_degree, 0u) << graph.name();
  return best;
}

TEST(HopConservation, ReportedHopsAreTheWalkedPath) {
  // Every golden topology under owner-table, lcd, peer-fetch and
  // failed-router runs, plus interest aggregation under owner-table and
  // lcd, with every request traced. Two origins with different extra hops
  // pin which origin an origin-tier request's hops count.
  Rng waxman_rng(150);
  std::vector<topology::Graph> graphs = topology::all_datasets();
  graphs.push_back(topology::make_waxman(150, waxman_rng));
  for (const topology::Graph& graph : graphs) {
    SimConfig base;
    base.network.catalog_size = 2000;
    base.network.capacity_c = 50;
    base.network.local_mode = LocalStoreMode::kLru;
    base.network.origins = {
        NetworkConfig::OriginSpec{0, 50.0, 1},
        NetworkConfig::OriginSpec{
            static_cast<topology::NodeId>(graph.node_count() - 1), 30.0, 3}};
    base.coordinated_x = 25;
    base.zipf_s = 0.8;
    base.warmup_requests = 0;  // every request measured and traced
    base.measured_requests = 6000;
    base.seed = 20240806;
    base.trace_sample_k = 1;
    base.record_topo = true;
    base.timeline_epoch = 0;

    struct Variant {
      std::string name;
      SimConfig config;
      bool fail_hub = false;
    };
    std::vector<Variant> variants;
    variants.push_back({"owner_table", base});
    variants.push_back({"lcd", base});
    variants.back().config.network.strategy = "lcd";
    variants.push_back({"peer_fetch", base});
    variants.back().config.network.allow_peer_local_fetch = true;
    variants.push_back({"failed_router", base, true});
    variants.push_back({"aggregation", base});
    variants.back().config.interest_aggregation = true;
    variants.push_back({"aggregation_lcd", base});
    variants.back().config.interest_aggregation = true;
    variants.back().config.network.strategy = "lcd";

    for (const Variant& variant : variants) {
      const std::string where = graph.name() + " " + variant.name;
      const auto& origins = variant.config.network.origins;
      Simulation sim(graph, variant.config);
      if (variant.fail_hub) {
        const topology::NodeId hub = hub_to_fail(graph, origins);
        sim.network().set_router_failed(hub, true);
        sim.set_workload(std::make_unique<SilencedRouterWorkload>(
            graph, variant.config, hub));
      }
      const SimReport report = sim.run();

      // Per request: hops = the traced path's edges, plus the extra hops
      // of the request's origin for origin-tier requests.
      std::size_t mismatched = 0;
      std::uint64_t origin_extra_hops = 0;
      for (const obs::TraceEvent& event : sim.traces()) {
        std::uint64_t expected = event.path.size() - 1;
        if (event.tier == "origin") {
          const std::uint32_t extra =
              origins[event.content % origins.size()].extra_hops;
          expected += extra;
          origin_extra_hops += extra;
        }
        if (event.hops != expected) ++mismatched;
      }
      EXPECT_EQ(mismatched, 0u) << where;

      // Per run: reported hops = links traversed + the origins' extra
      // hops. Aggregated runs are left out: a request that joins a fetch
      // in flight reports that fetch's hops but walks no link itself.
      if (variant.config.interest_aggregation) {
        EXPECT_GT(report.aggregated_requests, 0u) << where;
        continue;
      }
      ASSERT_EQ(sim.traces().size(), report.total_requests) << where;
      std::uint64_t hops_sum = 0;
      for (const obs::TopoNodeStats& node : sim.topo().nodes()) {
        hops_sum += node.hops_sum;
      }
      EXPECT_EQ(hops_sum,
                sim.network().total_link_traversals() + origin_extra_hops)
          << where;
      const auto reported = static_cast<double>(hops_sum);
      EXPECT_NEAR(report.mean_hops * static_cast<double>(report.total_requests),
                  reported, 1e-9 * reported)
          << where;
    }
  }
}

}  // namespace
}  // namespace ccnopt::sim
