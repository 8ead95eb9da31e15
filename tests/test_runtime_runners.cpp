// Determinism contract of the replication engine: output is bit-identical
// whatever the thread count.
#include <gtest/gtest.h>

#include <cmath>

#include "ccnopt/runtime/replication_runner.hpp"
#include "ccnopt/topology/datasets.hpp"

namespace ccnopt::runtime {
namespace {

sim::SimConfig small_sim_config() {
  sim::SimConfig config;
  config.network.catalog_size = 2000;
  config.network.capacity_c = 50;
  config.coordinated_x = 20;
  config.measured_requests = 4000;
  config.seed = 99;
  return config;
}

TEST(ReplicationRunner, OneThreadEqualsEightThreads) {
  const topology::Graph graph = topology::abilene();
  const sim::SimConfig config = small_sim_config();
  ThreadPool one(1);
  ThreadPool eight(8);
  const ReplicationSummary a = ReplicationRunner(one).run(graph, config, 6);
  const ReplicationSummary b = ReplicationRunner(eight).run(graph, config, 6);
  ASSERT_EQ(a.replications(), 6u);
  ASSERT_EQ(b.replications(), 6u);
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_EQ(a.reports[i].mean_latency_ms, b.reports[i].mean_latency_ms)
        << "replication " << i;
    EXPECT_EQ(a.reports[i].origin_load, b.reports[i].origin_load)
        << "replication " << i;
    EXPECT_EQ(a.reports[i].mean_hops, b.reports[i].mean_hops)
        << "replication " << i;
  }
  EXPECT_EQ(a.mean_latency_ms.mean, b.mean_latency_ms.mean);
  EXPECT_EQ(a.origin_load.stddev, b.origin_load.stddev);
  EXPECT_EQ(a.mean_hops.ci95_half_width, b.mean_hops.ci95_half_width);
}

TEST(ReplicationRunner, ReplicationsAreIndependentRuns) {
  ThreadPool pool(4);
  const ReplicationSummary summary = ReplicationRunner(pool).run(
      topology::abilene(), small_sim_config(), 4);
  // Different derived seeds give different sample paths...
  EXPECT_NE(summary.reports[0].mean_latency_ms,
            summary.reports[1].mean_latency_ms);
  // ...while measuring the same system, so the spread is small.
  EXPECT_GT(summary.mean_latency_ms.stddev, 0.0);
  EXPECT_LT(summary.mean_latency_ms.stddev,
            summary.mean_latency_ms.mean * 0.2);
}

TEST(ReplicationRunner, SummaryMatchesHandComputedStats) {
  ThreadPool pool(2);
  const ReplicationSummary summary = ReplicationRunner(pool).run(
      topology::abilene(), small_sim_config(), 5);
  double sum = 0.0;
  for (const auto& report : summary.reports) sum += report.origin_load;
  const double mean = sum / 5.0;
  EXPECT_NEAR(summary.origin_load.mean, mean, 1e-12);
  double sq = 0.0;
  for (const auto& report : summary.reports) {
    sq += (report.origin_load - mean) * (report.origin_load - mean);
  }
  const double stddev = std::sqrt(sq / 4.0);
  EXPECT_NEAR(summary.origin_load.stddev, stddev, 1e-12);
  EXPECT_NEAR(summary.origin_load.ci95_half_width,
              1.96 * stddev / std::sqrt(5.0), 1e-12);
}

TEST(ReplicationRunner, SingleReplicationHasNoSpread) {
  ThreadPool pool(2);
  const ReplicationSummary summary = ReplicationRunner(pool).run(
      topology::abilene(), small_sim_config(), 1);
  EXPECT_EQ(summary.replications(), 1u);
  EXPECT_EQ(summary.origin_load.stddev, 0.0);
  EXPECT_EQ(summary.origin_load.ci95_half_width, 0.0);
  EXPECT_EQ(summary.origin_load.mean, summary.reports[0].origin_load);
}

}  // namespace
}  // namespace ccnopt::runtime
