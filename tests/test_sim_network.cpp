#include "ccnopt/sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/generators.hpp"

namespace ccnopt::sim {
namespace {

NetworkConfig small_config() {
  NetworkConfig config;
  config.catalog_size = 100;
  config.capacity_c = 10;
  config.local_mode = LocalStoreMode::kStaticTop;
  config.access_latency_d0_ms = 1.0;
  config.origin_gateway = 0;
  config.origin_extra_ms = 50.0;
  config.origin_extra_hops = 1;
  return config;
}

TEST(CcnNetwork, ProvisionZeroIsNonCoordinated) {
  CcnNetwork network(topology::make_ring(4, 2.0), small_config());
  EXPECT_EQ(network.provision(0), 0u);
  // Every router holds the top-10 locally.
  for (topology::NodeId id = 0; id < 4; ++id) {
    EXPECT_TRUE(network.store(id).contains(1));
    EXPECT_TRUE(network.store(id).contains(10));
    EXPECT_FALSE(network.store(id).contains(11));
  }
}

TEST(CcnNetwork, ProvisionSplitsStores) {
  CcnNetwork network(topology::make_ring(4, 2.0), small_config());
  const std::uint64_t messages = network.provision(4);
  EXPECT_EQ(messages, 16u);  // n * x
  EXPECT_EQ(network.provisioned_x(), 4u);
  // Local tops now cover ranks 1..6; coordinated ranks 7..22 spread over
  // the ring.
  for (topology::NodeId id = 0; id < 4; ++id) {
    EXPECT_TRUE(network.store(id).contains(6));
    EXPECT_EQ(network.store(id).coordinated_contents().size(), 4u);
  }
  // Each coordinated rank lives at exactly one router.
  for (cache::ContentId rank = 7; rank <= 22; ++rank) {
    int holders = 0;
    for (topology::NodeId id = 0; id < 4; ++id) {
      if (network.store(id).coordinated_contains(rank)) ++holders;
    }
    EXPECT_EQ(holders, 1) << "rank=" << rank;
  }
}

TEST(CcnNetwork, ServeLocalHit) {
  CcnNetwork network(topology::make_ring(4, 2.0), small_config());
  network.provision(0);
  const ServeResult result = network.serve(2, 1);
  EXPECT_EQ(result.tier, ServeTier::kLocal);
  EXPECT_DOUBLE_EQ(result.latency_ms, 1.0);
  EXPECT_EQ(result.hops, 0u);
  EXPECT_EQ(result.served_by, 2u);
  EXPECT_FALSE(result.own_coordinated_hit);
}

TEST(CcnNetwork, ServeCoordinatedPeer) {
  CcnNetwork network(topology::make_ring(4, 2.0), small_config());
  network.provision(4);
  // Find a coordinated rank owned by a router other than 0.
  cache::ContentId remote_rank = 0;
  topology::NodeId owner = 0;
  for (cache::ContentId rank = 7; rank <= 22 && remote_rank == 0; ++rank) {
    for (topology::NodeId id = 1; id < 4; ++id) {
      if (network.store(id).coordinated_contains(rank)) {
        remote_rank = rank;
        owner = id;
        break;
      }
    }
  }
  ASSERT_NE(remote_rank, 0u);
  const ServeResult result = network.serve(0, remote_rank);
  EXPECT_EQ(result.tier, ServeTier::kNetwork);
  EXPECT_EQ(result.served_by, owner);
  EXPECT_GT(result.hops, 0u);
  EXPECT_GT(result.latency_ms, 1.0);
}

TEST(CcnNetwork, ServeOwnCoordinatedIsLocalWithFlag) {
  CcnNetwork network(topology::make_ring(4, 2.0), small_config());
  network.provision(4);
  const auto own = network.store(1).coordinated_contents();
  ASSERT_FALSE(own.empty());
  const ServeResult result = network.serve(1, own.front());
  EXPECT_EQ(result.tier, ServeTier::kLocal);
  EXPECT_TRUE(result.own_coordinated_hit);
  EXPECT_EQ(result.hops, 0u);
}

TEST(CcnNetwork, ServeOriginForUncachedContent) {
  CcnNetwork network(topology::make_ring(4, 2.0), small_config());
  network.provision(0);
  const ServeResult result = network.serve(2, 99);
  EXPECT_EQ(result.tier, ServeTier::kOrigin);
  // Ring node 2 -> gateway 0 is 2 hops (+1 to origin); latency
  // 1 (access) + 4 (two ring links) + 50 (origin).
  EXPECT_EQ(result.hops, 3u);
  EXPECT_DOUBLE_EQ(result.latency_ms, 55.0);
}

TEST(CcnNetwork, DynamicLocalModeAdmitsOnMiss) {
  NetworkConfig config = small_config();
  config.local_mode = LocalStoreMode::kLru;
  CcnNetwork network(topology::make_ring(4, 2.0), config);
  network.provision(0);
  EXPECT_EQ(network.serve(1, 42).tier, ServeTier::kOrigin);
  // Path caching: the miss admitted 42 at router 1 only.
  EXPECT_EQ(network.serve(1, 42).tier, ServeTier::kLocal);
  EXPECT_EQ(network.serve(2, 42).tier, ServeTier::kOrigin);
}

TEST(CcnNetwork, PeerLocalFetchFindsNearestReplica) {
  NetworkConfig config = small_config();
  config.local_mode = LocalStoreMode::kLru;
  config.allow_peer_local_fetch = true;
  CcnNetwork network(topology::make_ring(4, 2.0), config);
  network.provision(0);
  (void)network.serve(1, 42);  // 42 now cached at router 1
  const ServeResult result = network.serve(2, 42);
  EXPECT_EQ(result.tier, ServeTier::kNetwork);
  EXPECT_EQ(result.served_by, 1u);
  EXPECT_EQ(result.hops, 1u);
}

TEST(CcnNetwork, CapacityOverridesExcludeRouters) {
  NetworkConfig config = small_config();
  config.capacity_overrides = {0, 10, 10, 10};
  CcnNetwork network(topology::make_ring(4, 2.0), config);
  EXPECT_EQ(network.participants().size(), 3u);
  network.provision(2);
  EXPECT_EQ(network.store(0).capacity(), 0u);
  // Router 0 always goes to the network/origin.
  EXPECT_NE(network.serve(0, 1).tier, ServeTier::kLocal);
}

/// Serves every rank in [1, pool end + 5] at every alive router, checking
/// that the owner table's own-coordinated verdict matches the store's
/// coordinated set and that each store counted exactly the requests it saw.
void expect_owner_table_matches_stores(CcnNetwork& network) {
  cache::ContentId pool_end = 0;
  for (topology::NodeId id = 0; id < network.router_count(); ++id) {
    for (const cache::ContentId rank :
         network.store(id).coordinated_contents()) {
      pool_end = std::max(pool_end, rank);
    }
  }
  ASSERT_GT(pool_end, 0u);
  const cache::ContentId last =
      std::min<cache::ContentId>(pool_end + 5, network.config().catalog_size);
  std::vector<std::uint64_t> served(network.router_count(), 0);
  for (topology::NodeId id = 0; id < network.router_count(); ++id) {
    if (network.is_failed(id)) continue;
    for (cache::ContentId rank = 1; rank <= last; ++rank) {
      const bool coordinated = network.store(id).coordinated_contains(rank);
      ASSERT_EQ(network.serve(id, rank).own_coordinated_hit, coordinated)
          << "router " << id << " rank " << rank;
      ++served[id];
    }
  }
  for (topology::NodeId id = 0; id < network.router_count(); ++id) {
    EXPECT_EQ(network.store(id).stats().requests(), served[id])
        << "router " << id;
  }
}

NetworkConfig dataset_config() {
  NetworkConfig config;
  config.catalog_size = 2000;
  config.capacity_c = 20;
  config.local_mode = LocalStoreMode::kLru;
  return config;
}

TEST(CcnNetwork, OwnerTableDecidesOwnCoordinatedHits) {
  for (const topology::Graph& graph : {topology::abilene(), topology::us_a()}) {
    CcnNetwork network(graph, dataset_config());
    network.provision(8);
    expect_owner_table_matches_stores(network);
  }
}

TEST(CcnNetwork, OwnerTableDecidesOwnCoordinatedHitsHeterogeneous) {
  CcnNetwork network(topology::us_a(), dataset_config());
  std::vector<std::size_t> x;
  for (std::size_t i = 0; i < network.participants().size(); ++i) {
    x.push_back(i % 5 * 4);  // 0, 4, ..., 16 of each router's 20
  }
  network.provision_heterogeneous(x);
  expect_owner_table_matches_stores(network);
}

TEST(CcnNetwork, OwnerTableDecidesOwnCoordinatedHitsAfterFailure) {
  // US-A router 9 lies on many shortest paths; re-provisioning deals the
  // pool over the survivors only.
  CcnNetwork network(topology::us_a(), dataset_config());
  network.provision(8);
  network.set_router_failed(9, true);
  network.provision(8);
  EXPECT_TRUE(network.store(9).coordinated_contents().empty());
  expect_owner_table_matches_stores(network);
}

TEST(CcnNetworkDeath, Preconditions) {
  NetworkConfig config = small_config();
  CcnNetwork network(topology::make_ring(4, 2.0), config);
  EXPECT_DEATH((void)network.serve(9, 1), "precondition");
  EXPECT_DEATH((void)network.serve(0, 0), "precondition");
  EXPECT_DEATH((void)network.serve(0, 101), "precondition");
  EXPECT_DEATH((void)network.provision(11), "precondition");
}

}  // namespace
}  // namespace ccnopt::sim
