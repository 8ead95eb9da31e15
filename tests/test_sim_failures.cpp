// Failure injection: routing around failed routers, loss of their
// coordinated contents, and repair by re-provisioning over the survivors.
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "ccnopt/sim/network.hpp"
#include "ccnopt/sim/workload.hpp"
#include "ccnopt/topology/generators.hpp"

namespace ccnopt::sim {
namespace {

NetworkConfig ring_config() {
  NetworkConfig config;
  config.catalog_size = 1000;
  config.capacity_c = 20;
  config.local_mode = LocalStoreMode::kStaticTop;
  config.origin_gateway = 0;
  config.origin_extra_ms = 50.0;
  return config;
}

TEST(Failures, ReroutesAroundFailedRouter) {
  // Ring of 6 with unit-latency links: 2 -> 0 is 2 hops via 1. Failing 1
  // forces the long way (2 -> 3 -> 4 -> 5 -> 0, 4 hops).
  CcnNetwork network(topology::make_ring(6, 1.0), ring_config());
  network.provision(0);
  EXPECT_EQ(network.serve(2, 999).hops, 3u);  // 2 hops to gateway + origin hop
  network.set_router_failed(1, true);
  EXPECT_TRUE(network.is_failed(1));
  EXPECT_EQ(network.failed_count(), 1u);
  EXPECT_EQ(network.serve(2, 999).hops, 5u);  // 4 hops + origin hop
}

TEST(Failures, CoordinatedContentsOfFailedOwnerGoToOrigin) {
  CcnNetwork network(topology::make_ring(6, 1.0), ring_config());
  network.provision(10);
  // Find a content owned by router 3.
  cache::ContentId owned_by_3 = 0;
  for (cache::ContentId rank = 11; rank <= 70 && owned_by_3 == 0; ++rank) {
    if (network.store(3).coordinated_contains(rank)) owned_by_3 = rank;
  }
  ASSERT_NE(owned_by_3, 0u);
  EXPECT_EQ(network.serve(5, owned_by_3).tier, ServeTier::kNetwork);
  network.set_router_failed(3, true);
  EXPECT_EQ(network.serve(5, owned_by_3).tier, ServeTier::kOrigin);
  EXPECT_EQ(network.coordinated_contents_lost(), 10u);
}

TEST(Failures, NonCoordinatedStoresUnaffectedByPeerFailure) {
  CcnNetwork network(topology::make_ring(6, 1.0), ring_config());
  network.provision(0);
  network.set_router_failed(3, true);
  // Local hits at alive routers are untouched.
  EXPECT_EQ(network.serve(2, 1).tier, ServeTier::kLocal);
  EXPECT_EQ(network.coordinated_contents_lost(), 0u);
}

TEST(Failures, RepairReassignsOverSurvivors) {
  CcnNetwork network(topology::make_ring(6, 1.0), ring_config());
  network.provision(10);
  network.set_router_failed(3, true);
  EXPECT_EQ(network.coordinated_contents_lost(), 10u);
  // Repair: re-provision; the pool now spans 5 routers (50 contents),
  // none owned by the failed one.
  const std::uint64_t messages = network.provision(10);
  EXPECT_EQ(messages, 50u);
  EXPECT_EQ(network.coordinated_contents_lost(), 0u);
  // Every reassigned content is reachable again.
  for (cache::ContentId rank = 11; rank <= 60; ++rank) {
    EXPECT_NE(network.serve(5, rank).tier, ServeTier::kOrigin)
        << "rank=" << rank;
  }
}

TEST(Failures, RecoveryRestoresRouting) {
  CcnNetwork network(topology::make_ring(6, 1.0), ring_config());
  network.provision(0);
  network.set_router_failed(1, true);
  EXPECT_EQ(network.serve(2, 999).hops, 5u);
  network.set_router_failed(1, false);
  EXPECT_EQ(network.failed_count(), 0u);
  EXPECT_EQ(network.serve(2, 999).hops, 3u);
}

TEST(Failures, PeerLocalFetchSkipsFailedReplicas) {
  NetworkConfig config = ring_config();
  config.local_mode = LocalStoreMode::kLru;
  config.allow_peer_local_fetch = true;
  CcnNetwork network(topology::make_ring(6, 1.0), config);
  network.provision(0);
  (void)network.serve(1, 500);  // cache 500 at router 1
  // Healthy: a replica at an alive peer is reachable (note this also
  // path-caches 500 at router 2).
  EXPECT_EQ(network.serve(2, 500).tier, ServeTier::kNetwork);
  // 600 lives only at router 1; once 1 fails the replica is gone.
  (void)network.serve(1, 600);
  network.set_router_failed(1, true);
  EXPECT_EQ(network.serve(2, 600).tier, ServeTier::kOrigin);
}

TEST(Failures, FailureRaisesMeanLatencyUnderCoordination) {
  // Aggregate effect: losing a coordinated router pushes its pool share
  // to the (distant) origin.
  CcnNetwork network(topology::make_ring(6, 2.0), ring_config());
  network.provision(20);  // fully coordinated
  ZipfWorkload workload(6, 1000, 0.8, 12);
  auto measure = [&](std::size_t skip_router) {
    double total = 0.0;
    std::uint64_t count = 0;
    for (std::uint64_t r = 0; r < 30000; ++r) {
      const auto router = static_cast<topology::NodeId>(r % 6);
      if (router == skip_router) continue;
      total += network.serve(router, workload.next(router)).latency_ms;
      ++count;
    }
    return total / static_cast<double>(count);
  };
  const double healthy = measure(3);
  network.set_router_failed(3, true);
  const double degraded = measure(3);
  EXPECT_GT(degraded, healthy);
}

/// Every route of `table`, row by row, as (latency bits, hops, link).
std::vector<std::tuple<double, std::uint32_t, std::uint32_t>> rows_of(
    const topology::RouteTable& table) {
  std::vector<std::tuple<double, std::uint32_t, std::uint32_t>> rows;
  for (topology::NodeId src = 0; src < table.node_count(); ++src) {
    for (const topology::Route& route : table.row(src)) {
      rows.emplace_back(route.latency_ms, route.hops, route.parent_link);
    }
  }
  return rows;
}

TEST(Failures, FailingARouterLeavesASharedTableUntouched) {
  // Two networks route on one table. A failure in one swaps a private
  // table into it; the other keeps serving from the shared one.
  const topology::Graph graph = topology::make_ring(6, 1.0);
  const auto shared = std::make_shared<const topology::RouteTable>(graph);
  const auto original = rows_of(*shared);
  CcnNetwork failing(graph, ring_config(), shared);
  CcnNetwork healthy(graph, ring_config(), shared);
  failing.provision(0);
  healthy.provision(0);
  EXPECT_EQ(&failing.routes(), shared.get());

  failing.set_router_failed(1, true);
  EXPECT_NE(&failing.routes(), shared.get());
  EXPECT_EQ(failing.serve(2, 999).hops, 5u);  // the long way round
  EXPECT_EQ(rows_of(*shared), original);
  EXPECT_EQ(&healthy.routes(), shared.get());
  const ServeResult result = healthy.serve(2, 999);
  EXPECT_EQ(result.hops, 3u);
  EXPECT_DOUBLE_EQ(result.latency_ms, 1.0 + 2.0 + 50.0);
  EXPECT_EQ(healthy.hop_path(2, 999, result),
            (std::vector<topology::NodeId>{2, 1, 0}));

  failing.set_router_failed(1, false);
  EXPECT_EQ(rows_of(failing.routes()), original);
  EXPECT_EQ(failing.serve(2, 999).hops, 3u);
}

TEST(FailuresDeath, Preconditions) {
  CcnNetwork network(topology::make_ring(6, 1.0), ring_config());
  network.provision(0);
  EXPECT_DEATH(network.set_router_failed(0, true), "precondition");  // gateway
  EXPECT_DEATH(network.set_router_failed(9, true), "precondition");
  network.set_router_failed(2, true);
  EXPECT_DEATH((void)network.serve(2, 1), "precondition");
  EXPECT_DEATH((void)network.provision_heterogeneous(
                   {10, 10, 10, 10, 10, 10}),
               "precondition");
}

}  // namespace
}  // namespace ccnopt::sim
