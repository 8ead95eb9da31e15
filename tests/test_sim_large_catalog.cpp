// Web-scale smoke test: a 10^7-content catalog with per-router capacity
// 10^3 must build and run in capacity-proportional time and memory. Before
// the sparse index / rejection sampler work, this configuration allocated
// multiple dense O(N) vectors per router and an O(N) alias table per
// workload stream; now the only O(N)-free invariants are checked directly.
#include <gtest/gtest.h>

#include "ccnopt/cache/lru.hpp"
#include "ccnopt/sim/simulation.hpp"
#include "ccnopt/topology/datasets.hpp"

namespace ccnopt::sim {
namespace {

TEST(SimLargeCatalog, TenMillionContentsRunToCompletion) {
  SimConfig config;
  config.network.catalog_size = 10000000;
  config.network.capacity_c = 1000;
  config.network.local_mode = LocalStoreMode::kLru;
  config.coordinated_x = 500;
  config.zipf_s = 0.8;
  config.warmup_requests = 2000;
  config.measured_requests = 3000;
  config.seed = 20240806;

  Simulation sim(topology::us_a(), config);
  const SimReport report = sim.run();

  EXPECT_EQ(report.total_requests, 3000u);
  EXPECT_GE(report.local_fraction, 0.0);
  EXPECT_LE(report.local_fraction, 1.0);
  EXPECT_GE(report.network_fraction, 0.0);
  EXPECT_LE(report.network_fraction, 1.0);
  EXPECT_GE(report.origin_load, 0.0);
  EXPECT_LE(report.origin_load, 1.0);
  EXPECT_NEAR(
      report.local_fraction + report.network_fraction + report.origin_load,
      1.0, 1e-9);
  EXPECT_GT(report.mean_latency_ms, 0.0);
  EXPECT_GT(report.mean_hops, 0.0);

  // The auto rule (dense table >= 512 KiB, catalog/capacity >= 64) must
  // have switched every dynamic local partition to the robin-hood index —
  // the dense path would need a 10 M-slot vector per router.
  for (topology::NodeId id = 0; id < sim.network().router_count(); ++id) {
    const auto* local =
        dynamic_cast<const cache::LruCache*>(&sim.network().store(id).local());
    ASSERT_NE(local, nullptr) << "router " << id;
    EXPECT_TRUE(local->index_is_sparse()) << "router " << id;
  }
}

TEST(SimLargeCatalog, LargeCatalogRunIsSeedDeterministic) {
  SimConfig config;
  config.network.catalog_size = 10000000;
  config.network.capacity_c = 1000;
  config.network.local_mode = LocalStoreMode::kLfu;
  config.coordinated_x = 200;
  config.zipf_s = 1.0;
  config.warmup_requests = 500;
  config.measured_requests = 2000;
  config.seed = 99;

  const auto run = [&] {
    Simulation sim(topology::us_a(), config);
    return sim.run();
  };
  const SimReport a = run();
  const SimReport b = run();
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.upstream_fetches, b.upstream_fetches);
  EXPECT_EQ(a.local_fraction, b.local_fraction);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.mean_hops, b.mean_hops);
}

}  // namespace
}  // namespace ccnopt::sim
