#include "ccnopt/sim/simulation.hpp"

#include <cstdint>
#include <ios>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ccnopt/obs/export.hpp"
#include "ccnopt/obs/span.hpp"
#include "ccnopt/runtime/shard_scheduler.hpp"
#include "ccnopt/runtime/thread_pool.hpp"
#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/generators.hpp"

namespace ccnopt::sim {
namespace {

SimConfig base_config() {
  SimConfig config;
  config.network.catalog_size = 2000;
  config.network.capacity_c = 50;
  config.network.local_mode = LocalStoreMode::kStaticTop;
  config.network.origin_extra_ms = 50.0;
  config.zipf_s = 0.8;
  config.warmup_requests = 0;
  config.measured_requests = 20000;
  config.seed = 5;
  return config;
}

TEST(Simulation, ReportAccountsEveryRequest) {
  Simulation simulation(topology::make_ring(5, 2.0), base_config());
  const SimReport report = simulation.run();
  EXPECT_EQ(report.total_requests, 20000u);
  EXPECT_NEAR(report.local_fraction + report.network_fraction +
                  report.origin_load,
              1.0, 1e-12);
}

TEST(Simulation, DeterministicAcrossRuns) {
  const SimConfig config = base_config();
  Simulation a(topology::make_ring(5, 2.0), config);
  Simulation b(topology::make_ring(5, 2.0), config);
  const SimReport ra = a.run();
  const SimReport rb = b.run();
  EXPECT_EQ(ra.total_requests, rb.total_requests);
  EXPECT_DOUBLE_EQ(ra.mean_latency_ms, rb.mean_latency_ms);
  EXPECT_DOUBLE_EQ(ra.origin_load, rb.origin_load);
  EXPECT_DOUBLE_EQ(ra.mean_hops, rb.mean_hops);
}

TEST(Simulation, SeedChangesRealization) {
  SimConfig other = base_config();
  other.seed = 6;
  Simulation a(topology::make_ring(5, 2.0), base_config());
  Simulation b(topology::make_ring(5, 2.0), other);
  EXPECT_NE(a.run().mean_latency_ms, b.run().mean_latency_ms);
}

TEST(Simulation, CoordinationReducesOriginLoad) {
  SimConfig coordinated = base_config();
  coordinated.coordinated_x = 40;
  Simulation plain(topology::make_ring(5, 2.0), base_config());
  Simulation coord(topology::make_ring(5, 2.0), coordinated);
  const SimReport r0 = plain.run();
  const SimReport r1 = coord.run();
  EXPECT_LT(r1.origin_load, r0.origin_load);
  EXPECT_GT(r1.network_fraction, r0.network_fraction);
  EXPECT_EQ(r0.coordination_messages, 0u);
  EXPECT_EQ(r1.coordination_messages, 5u * 40u);
}

TEST(Simulation, CoordinationImprovesLatencyWhenOriginIsFar) {
  SimConfig coordinated = base_config();
  coordinated.coordinated_x = 40;
  Simulation plain(topology::make_ring(5, 2.0), base_config());
  Simulation coord(topology::make_ring(5, 2.0), coordinated);
  EXPECT_LT(coord.run().mean_latency_ms, plain.run().mean_latency_ms);
}

TEST(Simulation, EmpiricalTiersAreOrdered) {
  SimConfig config = base_config();
  config.coordinated_x = 25;
  Simulation simulation(topology::us_a(), config);
  const SimReport report = simulation.run();
  // d0 < d1 < d2 empirically.
  EXPECT_LT(report.mean_local_latency_ms, report.mean_network_latency_ms);
  EXPECT_LT(report.mean_network_latency_ms, report.mean_origin_latency_ms);
}

TEST(Simulation, WarmupExcludedFromMetrics) {
  SimConfig config = base_config();
  config.network.local_mode = LocalStoreMode::kLfu;
  config.warmup_requests = 30000;
  config.measured_requests = 10000;
  Simulation simulation(topology::make_ring(5, 2.0), config);
  const SimReport report = simulation.run();
  EXPECT_EQ(report.total_requests, 10000u);
  // After warmup, LFU locals approximate top-50; the local fraction must
  // be within a few points of the Zipf CDF at 50 (~F(50)).
  EXPECT_GT(report.local_fraction, 0.3);
}

TEST(Simulation, LfuConvergesTowardStaticTopBehavior) {
  SimConfig static_cfg = base_config();
  SimConfig lfu_cfg = base_config();
  lfu_cfg.network.local_mode = LocalStoreMode::kLfu;
  lfu_cfg.warmup_requests = 60000;
  Simulation s_static(topology::make_ring(5, 2.0), static_cfg);
  Simulation s_lfu(topology::make_ring(5, 2.0), lfu_cfg);
  const SimReport r_static = s_static.run();
  const SimReport r_lfu = s_lfu.run();
  EXPECT_NEAR(r_lfu.local_fraction, r_static.local_fraction, 0.05);
}

TEST(Simulation, CustomWorkloadInstalls) {
  SimConfig config = base_config();
  config.measured_requests = 600;
  Simulation simulation(topology::make_ring(3, 1.0), config);
  simulation.set_workload(std::make_unique<CyclicWorkload>(
      std::vector<std::vector<cache::ContentId>>{{1}, {1}, {1}}));
  const SimReport report = simulation.run();
  // Rank 1 is in every static top-50: all local.
  EXPECT_DOUBLE_EQ(report.local_fraction, 1.0);
  EXPECT_DOUBLE_EQ(report.mean_hops, 0.0);
}

/// Closed spans recorded under `path` since the last profiler reset.
std::uint64_t span_count(const std::string& path) {
  for (const obs::SpanAggregate& span :
       obs::SpanProfiler::instance().snapshot()) {
    if (span.path == path) return span.count;
  }
  return 0;
}

TEST(Simulation, StageSpansRecordEachWindow) {
  // 12 epoch-aligned windows of 1000 requests.
  SimConfig config = base_config();
  config.network.local_mode = LocalStoreMode::kLru;
  config.warmup_requests = 2000;
  config.measured_requests = 10000;
  config.timeline_epoch = 1000;
  SimConfig lcd = config;
  lcd.network.strategy = "lcd";
  obs::SpanProfiler::instance().reset();
  Simulation on_path(topology::cernet(), lcd);
  on_path.run();
  EXPECT_EQ(span_count("sim.run/sim.replay/sim.generate"), 12u);
  EXPECT_EQ(span_count("sim.run/sim.replay/sim.order"), 12u);
  EXPECT_EQ(span_count("sim.run/sim.replay/sim.select"), 0u);
  EXPECT_EQ(span_count("sim.run/sim.replay/sim.draw"), 12u);
  EXPECT_EQ(span_count("sim.run/sim.replay/sim.serve"), 12u);
  EXPECT_EQ(span_count("sim.run/sim.replay/sim.record"), 12u);

  // Aggregated emission-order windows record inside the serve loop.
  lcd.interest_aggregation = true;
  obs::SpanProfiler::instance().reset();
  Simulation aggregated(topology::cernet(), lcd);
  aggregated.run();
  EXPECT_EQ(span_count("sim.run/sim.replay/sim.draw"), 12u);
  EXPECT_EQ(span_count("sim.run/sim.replay/sim.serve"), 12u);
  EXPECT_EQ(span_count("sim.run/sim.replay/sim.record"), 0u);

  // Untraced router-major windows need no global order: they bisect, and
  // draw and record inside the serve loop.
  obs::SpanProfiler::instance().reset();
  Simulation router_major(topology::us_a(), config);
  router_major.run();
  EXPECT_EQ(span_count("sim.run/sim.replay/sim.order"), 0u);
  EXPECT_EQ(span_count("sim.run/sim.replay/sim.select"), 12u);
  EXPECT_EQ(span_count("sim.run/sim.replay/sim.draw"), 0u);
  EXPECT_EQ(span_count("sim.run/sim.replay/sim.serve"), 12u);
  EXPECT_EQ(span_count("sim.run/sim.replay/sim.record"), 0u);

  // A traced run sorts its 10 measured windows and bisects its 2 warmup
  // windows.
  config.trace_sample_k = 64;
  obs::SpanProfiler::instance().reset();
  Simulation traced(topology::us_a(), config);
  traced.run();
  EXPECT_EQ(span_count("sim.run/sim.replay/sim.order"), 10u);
  EXPECT_EQ(span_count("sim.run/sim.replay/sim.select"), 2u);
}

TEST(RecordPassTiming, RecordSecondsCountOnlyASeparateRecordStage) {
  // Emission-order windows without aggregation record in a stage of their
  // own, which the run clocks; router-major runs and aggregated windows
  // record inside the serve loop, so there is no record stage to clock.
  SimConfig config = base_config();
  config.network.local_mode = LocalStoreMode::kLru;
  runtime::ThreadPool pool(4);
  runtime::ShardScheduler scheduler(pool);
  const auto record_seconds = [&scheduler](const SimConfig& run) {
    Simulation simulation(topology::us_a(), run);
    simulation.set_shard_executor(&scheduler);
    EXPECT_EQ(simulation.last_record_seconds(), 0.0);
    simulation.run();
    return simulation.last_record_seconds();
  };
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    config.shards = shards;
    config.network.strategy = "coordinated-split";
    config.interest_aggregation = false;
    EXPECT_EQ(record_seconds(config), 0.0);
    config.interest_aggregation = true;
    EXPECT_EQ(record_seconds(config), 0.0);
    config.network.strategy = "lcd";
    EXPECT_EQ(record_seconds(config), 0.0);
    config.interest_aggregation = false;
    EXPECT_GT(record_seconds(config), 0.0);
  }
}

TEST(SimulationShards, EmissionOrderStagesOnPoolThreadsMatchOneShard) {
  // An on-path run serves in emission order, but pool threads draw its
  // contents and write its epoch, metrics and topo partials; every export
  // must equal the one-shard run's.
  SimConfig config = base_config();
  config.network.local_mode = LocalStoreMode::kLru;
  config.network.strategy = "lcd";
  config.warmup_requests = 2000;
  config.timeline_epoch = 700;
  config.trace_sample_k = 16;
  config.record_topo = true;
  const auto exports = [](const Simulation& simulation,
                          const SimReport& report) {
    std::ostringstream out;
    out << std::hexfloat << report.local_fraction << ' ' << report.network_fraction << ' '
        << report.origin_load << ' ' << report.mean_latency_ms << ' '
        << report.mean_hops << ' ' << report.upstream_fetches << '\n';
    obs::write_timeline_json(out, simulation.timeline());
    obs::write_topo_json(out, simulation.topo());
    obs::write_traces_json(out, simulation.traces());
    return out.str();
  };
  Simulation one(topology::us_a(), config);
  const std::string expected = exports(one, one.run());
  runtime::ThreadPool pool(4);
  runtime::ShardScheduler scheduler(pool);
  config.shards = 5;
  Simulation sharded(topology::us_a(), config);
  sharded.set_shard_executor(&scheduler);
  EXPECT_EQ(exports(sharded, sharded.run()), expected);
}

TEST(SimulationDeath, WorkloadLargerThanCatalogRejected) {
  Simulation simulation(topology::make_ring(3, 1.0), base_config());
  EXPECT_DEATH(simulation.set_workload(std::make_unique<CyclicWorkload>(
                   std::vector<std::vector<cache::ContentId>>{
                       {99999}, {1}, {1}})),
               "precondition");
}

}  // namespace
}  // namespace ccnopt::sim
