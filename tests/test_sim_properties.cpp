// Simulator-wide property suite: invariants that must hold for every
// combination of topology family, local store mode, and coordination
// level (TEST_P sweep).
#include <gtest/gtest.h>

#include <cstddef>

#include "ccnopt/sim/simulation.hpp"
#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/generators.hpp"

namespace ccnopt::sim {
namespace {

// gtest prints a SimCase as a raw byte dump, and that dump is part of the
// test names gtest_discover_tests registers. Its first byte is the low byte
// of `topology`'s address, which for a string literal moves with any change
// to the binary's layout (other sources, the build directory's path). The
// topology names therefore sit at fixed offsets in one 256-byte-aligned
// block; "ring" at 0xA0 keeps the names its cases have been registered under.
struct alignas(256) TopologyNameBlock {
  char grid[0x20];
  char abilene[0x20];
  char geant[0x60];
  char ring[0x20];
};
static_assert(offsetof(TopologyNameBlock, ring) == 0xA0);
constexpr TopologyNameBlock kTopologyNames{"grid", "abilene", "geant",
                                          "ring"};

struct SimCase {
  const char* topology;  // a member of kTopologyNames
  LocalStoreMode mode;
  std::size_t coordinated_x;  // out of capacity 40
};

topology::Graph build_topology(const std::string& name) {
  if (name == "ring") return topology::make_ring(6, 2.0);
  if (name == "grid") return topology::make_grid(3, 3, 1.5);
  const auto graph = topology::dataset_by_name(name);
  CCNOPT_ASSERT(graph.has_value());
  return *graph;
}

class SimInvariants : public ::testing::TestWithParam<SimCase> {
 protected:
  SimReport run(std::uint64_t seed = 5) const {
    SimConfig config;
    config.network.catalog_size = 4000;
    config.network.capacity_c = 40;
    config.network.local_mode = GetParam().mode;
    config.network.origin_extra_ms = 40.0;
    config.coordinated_x = GetParam().coordinated_x;
    config.zipf_s = 0.8;
    config.warmup_requests = 5000;
    config.measured_requests = 15000;
    config.seed = seed;
    Simulation simulation(build_topology(GetParam().topology), config);
    return simulation.run();
  }
};

TEST_P(SimInvariants, TierFractionsFormADistribution) {
  const SimReport report = run();
  EXPECT_NEAR(report.local_fraction + report.network_fraction +
                  report.origin_load,
              1.0, 1e-12);
  EXPECT_GE(report.local_fraction, 0.0);
  EXPECT_GE(report.network_fraction, 0.0);
  EXPECT_GE(report.origin_load, 0.0);
}

TEST_P(SimInvariants, LatencyBoundedByTierStructure) {
  const SimReport report = run();
  // Every request costs at least the access latency; nothing exceeds the
  // worst origin path by construction.
  EXPECT_GE(report.mean_latency_ms, 1.0);
  EXPECT_LT(report.mean_latency_ms, 200.0);
  if (report.network_fraction > 0.0 && report.local_fraction > 0.0) {
    EXPECT_GT(report.mean_network_latency_ms, report.mean_local_latency_ms);
  }
  if (report.origin_load > 0.0 && report.network_fraction > 0.0) {
    EXPECT_GT(report.mean_origin_latency_ms, report.mean_network_latency_ms);
  }
}

TEST_P(SimInvariants, CoordinationMessagesMatchEquationThree) {
  const SimReport report = run();
  const std::size_t n = build_topology(GetParam().topology).node_count();
  EXPECT_EQ(report.coordination_messages,
            static_cast<std::uint64_t>(n) * GetParam().coordinated_x);
}

TEST_P(SimInvariants, DeterministicReplay) {
  const SimReport a = run(7);
  const SimReport b = run(7);
  EXPECT_DOUBLE_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_DOUBLE_EQ(a.origin_load, b.origin_load);
  EXPECT_EQ(a.total_requests, b.total_requests);
}

TEST_P(SimInvariants, CoordinationNeverRaisesOriginLoad) {
  if (GetParam().coordinated_x == 0) GTEST_SKIP();
  SimConfig config;
  config.network.catalog_size = 4000;
  config.network.capacity_c = 40;
  config.network.local_mode = GetParam().mode;
  config.network.origin_extra_ms = 40.0;
  config.zipf_s = 0.8;
  config.warmup_requests = 5000;
  config.measured_requests = 15000;
  config.seed = 5;
  Simulation plain(build_topology(GetParam().topology), config);
  config.coordinated_x = GetParam().coordinated_x;
  Simulation coordinated(build_topology(GetParam().topology), config);
  // Same streams: coordination can only widen the set of contents served
  // inside the network.
  EXPECT_LE(coordinated.run().origin_load, plain.run().origin_load + 0.01);
}

std::string sim_case_name(const ::testing::TestParamInfo<SimCase>& info) {
  return std::string(info.param.topology) + "_" +
         to_string(info.param.mode) + "_x" +
         std::to_string(info.param.coordinated_x);
}

INSTANTIATE_TEST_SUITE_P(
    AcrossConfigurations, SimInvariants,
    ::testing::Values(
        SimCase{kTopologyNames.ring, LocalStoreMode::kStaticTop, 0},
        SimCase{kTopologyNames.ring, LocalStoreMode::kStaticTop, 20},
        SimCase{kTopologyNames.ring, LocalStoreMode::kLru, 20},
        SimCase{kTopologyNames.ring, LocalStoreMode::kLfu, 40},
        SimCase{kTopologyNames.grid, LocalStoreMode::kStaticTop, 20},
        SimCase{kTopologyNames.grid, LocalStoreMode::kFifo, 10},
        SimCase{kTopologyNames.grid, LocalStoreMode::kRandom, 30},
        SimCase{kTopologyNames.abilene, LocalStoreMode::kStaticTop, 0},
        SimCase{kTopologyNames.abilene, LocalStoreMode::kStaticTop, 40},
        SimCase{kTopologyNames.abilene, LocalStoreMode::kLfu, 20},
        SimCase{kTopologyNames.geant, LocalStoreMode::kStaticTop, 20},
        SimCase{kTopologyNames.geant, LocalStoreMode::kLru, 40}),
    sim_case_name);

}  // namespace
}  // namespace ccnopt::sim
