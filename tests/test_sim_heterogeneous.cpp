// Heterogeneous provisioning in the simulator: weighted coordinator
// assignment, provision_heterogeneous store layout, and agreement with the
// heterogeneous analytical model.
#include <gtest/gtest.h>

#include <numeric>

#include "ccnopt/model/heterogeneous.hpp"
#include "ccnopt/sim/network.hpp"
#include "ccnopt/sim/workload.hpp"
#include "ccnopt/strategy/coordinator.hpp"
#include "ccnopt/topology/generators.hpp"

namespace ccnopt::sim {
namespace {

TEST(CoordinatorWeighted, ExactQuotas) {
  const strategy::Coordinator coordinator({10, 20, 30});
  const auto assignment = coordinator.assign_weighted(100, {1, 3, 2});
  EXPECT_EQ(assignment.per_router[0].size(), 1u);
  EXPECT_EQ(assignment.per_router[1].size(), 3u);
  EXPECT_EQ(assignment.per_router[2].size(), 2u);
  EXPECT_EQ(assignment.owner.size(), 6u);
  EXPECT_EQ(assignment.messages, 6u);
  // Contiguous range 100..105, each rank owned exactly once.
  for (cache::ContentId rank = 100; rank <= 105; ++rank) {
    EXPECT_EQ(assignment.owner.count(rank), 1u);
  }
}

TEST(CoordinatorWeighted, RoundRobinSpreadsPopularRanks) {
  const strategy::Coordinator coordinator({0, 1});
  const auto assignment = coordinator.assign_weighted(1, {2, 2});
  // Dealt alternately: router 0 gets ranks {1, 3}, router 1 gets {2, 4}.
  EXPECT_EQ(assignment.per_router[0],
            (std::vector<cache::ContentId>{1, 3}));
  EXPECT_EQ(assignment.per_router[1],
            (std::vector<cache::ContentId>{2, 4}));
}

TEST(CoordinatorWeighted, ZeroQuotaRouterSkipped) {
  const strategy::Coordinator coordinator({5, 6, 7});
  const auto assignment = coordinator.assign_weighted(10, {0, 3, 0});
  EXPECT_TRUE(assignment.per_router[0].empty());
  EXPECT_EQ(assignment.per_router[1].size(), 3u);
  EXPECT_TRUE(assignment.per_router[2].empty());
}

TEST(CoordinatorWeighted, MatchesUniformAssignWhenEqual) {
  const strategy::Coordinator coordinator({1, 2, 3});
  const auto uniform = coordinator.assign(7, 4);
  const auto weighted = coordinator.assign_weighted(7, {4, 4, 4});
  EXPECT_EQ(uniform.per_router, weighted.per_router);
  EXPECT_EQ(uniform.messages, weighted.messages);
}

NetworkConfig hetero_config() {
  NetworkConfig config;
  config.catalog_size = 5000;
  config.capacity_c = 0;  // overridden per router
  config.capacity_overrides = {50, 150, 50, 150};
  config.local_mode = LocalStoreMode::kStaticTop;
  config.origin_extra_ms = 40.0;
  return config;
}

TEST(ProvisionHeterogeneous, StoreLayout) {
  CcnNetwork network(topology::make_ring(4, 2.0), hetero_config());
  // Equal coverage m = 30: x = {20, 120, 20, 120}, pool ranks 31..310.
  const std::uint64_t messages =
      network.provision_heterogeneous({20, 120, 20, 120});
  EXPECT_EQ(messages, 280u);
  for (topology::NodeId id = 0; id < 4; ++id) {
    EXPECT_TRUE(network.store(id).contains(30));   // local coverage
    EXPECT_FALSE(network.store(id).local().contains(31));
  }
  // Every pool rank owned exactly once.
  for (cache::ContentId rank = 31; rank <= 310; ++rank) {
    int holders = 0;
    for (topology::NodeId id = 0; id < 4; ++id) {
      if (network.store(id).coordinated_contains(rank)) ++holders;
    }
    EXPECT_EQ(holders, 1) << "rank=" << rank;
  }
  // Quotas respected.
  EXPECT_EQ(network.store(0).coordinated_contents().size(), 20u);
  EXPECT_EQ(network.store(1).coordinated_contents().size(), 120u);
}

TEST(ProvisionHeterogeneous, UnequalCoverageCreatesDeadZone) {
  CcnNetwork network(topology::make_ring(4, 2.0), hetero_config());
  // Uniform fraction 0.4: x = {20, 60, 20, 60} -> m = {30, 90, 30, 90};
  // L = 90, pool starts at rank 91. Ranks 31..90 at small routers are a
  // dead zone: not local, not in the pool -> origin.
  network.provision_heterogeneous({20, 60, 20, 60});
  const ServeResult dead = network.serve(0, 50);
  EXPECT_EQ(dead.tier, ServeTier::kOrigin);
  // The same rank at a big router is a local hit.
  EXPECT_EQ(network.serve(1, 50).tier, ServeTier::kLocal);
}

TEST(ProvisionHeterogeneous, AgreesWithHeterogeneousModel) {
  // Tier fractions measured from the simulator track the analytic
  // heterogeneous model on the same provisioning.
  const std::vector<std::size_t> x_sim = {20, 120, 20, 120};
  CcnNetwork network(topology::make_ring(4, 2.0), hetero_config());
  network.provision_heterogeneous(x_sim);

  model::HeterogeneousParams hp;
  hp.alpha = 1.0;
  hp.s = 0.8;
  hp.catalog_n = 5000.0;
  hp.capacities = {50.0, 150.0, 50.0, 150.0};
  hp.latency = model::LatencyProfile{1.0, 2.0, 3.0};  // tiers unused here
  const model::HeterogeneousModel analytic(hp);
  const std::vector<double> x_model = {20.0, 120.0, 20.0, 120.0};

  ZipfWorkload workload(4, 5000, 0.8, 77);
  std::array<std::uint64_t, 4> local{}, origin{};
  std::array<std::uint64_t, 4> requests{};
  for (std::uint64_t r = 0; r < 160000; ++r) {
    const auto router = static_cast<topology::NodeId>(r % 4);
    const ServeResult served = network.serve(router, workload.next(router));
    ++requests[router];
    if (served.tier == ServeTier::kLocal && !served.own_coordinated_hit) {
      ++local[router];
    }
    if (served.tier == ServeTier::kOrigin) ++origin[router];
  }
  // Tolerance covers sampling noise plus Eq. 6's continuous-F error at the
  // small local coverage (m = 30 of a 5000 catalog).
  for (std::size_t i = 0; i < 4; ++i) {
    const auto split = analytic.tier_split(i, x_model);
    EXPECT_NEAR(static_cast<double>(local[i]) / static_cast<double>(requests[i]),
                split.local, 0.035)
        << "router " << i;
    EXPECT_NEAR(static_cast<double>(origin[i]) / static_cast<double>(requests[i]),
                split.origin, 0.035)
        << "router " << i;
  }
}

TEST(ProvisionHeterogeneousDeath, QuotaExceedsCapacity) {
  CcnNetwork network(topology::make_ring(4, 2.0), hetero_config());
  EXPECT_DEATH((void)network.provision_heterogeneous({60, 0, 0, 0}),
               "precondition");
}

TEST(ProvisionHeterogeneousDeath, WrongVectorLength) {
  CcnNetwork network(topology::make_ring(4, 2.0), hetero_config());
  EXPECT_DEATH((void)network.provision_heterogeneous({10, 10}),
               "precondition");
}

}  // namespace
}  // namespace ccnopt::sim
