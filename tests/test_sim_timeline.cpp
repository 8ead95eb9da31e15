// Tests of the time-resolved telemetry contract: timelines are
// byte-identical for any thread count, per-epoch deltas and end-of-epoch
// gauges reconcile with the whole-run report and network counters, the
// aggregated column counts interest joiners, and a timeline rebuilds the
// run's report.
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ccnopt/obs/timeline.hpp"
#include "ccnopt/runtime/replication_runner.hpp"
#include "ccnopt/runtime/thread_pool.hpp"
#include "ccnopt/sim/simulation.hpp"
#include "ccnopt/sim/steady_state.hpp"
#include "ccnopt/topology/datasets.hpp"

namespace ccnopt {
namespace {

sim::SimConfig small_config() {
  sim::SimConfig config;
  config.network.catalog_size = 2000;
  config.network.capacity_c = 60;
  config.network.local_mode = sim::LocalStoreMode::kLru;
  config.coordinated_x = 30;
  config.zipf_s = 0.8;
  config.warmup_requests = 0;
  config.measured_requests = 6000;
  config.seed = 1234;
  config.timeline_epoch = 500;
  return config;
}

std::string timeline_bytes(const obs::Timeline& timeline) {
  std::ostringstream out;
  obs::write_timeline_json(out, timeline);
  return out.str();
}

double column_sum(const obs::Timeline& timeline, const char* name) {
  const std::size_t column = timeline.column_index(name);
  EXPECT_NE(column, obs::Timeline::npos) << name;
  return timeline.column_sum(column);
}

TEST(SimTimeline, ByteIdenticalAcrossThreadCountsOnAllDatasets) {
  // The determinism contract on every Table II topology: the merged
  // replication timeline from 1 worker and from 8 workers must serialize
  // to the same bytes.
  for (const topology::Graph& graph : topology::all_datasets()) {
    sim::SimConfig config = small_config();
    std::string serial_bytes, parallel_bytes;
    {
      runtime::ThreadPool pool(1);
      const runtime::ReplicationRunner runner(pool);
      serial_bytes = timeline_bytes(runner.run(graph, config, 3).timeline);
    }
    {
      runtime::ThreadPool pool(8);
      const runtime::ReplicationRunner runner(pool);
      parallel_bytes = timeline_bytes(runner.run(graph, config, 3).timeline);
    }
    EXPECT_FALSE(serial_bytes.empty());
    EXPECT_EQ(serial_bytes, parallel_bytes) << graph.name();
  }
}

TEST(SimTimeline, EpochDeltasSumToWholeRunReport) {
  const sim::SimConfig config = small_config();
  sim::Simulation simulation(topology::abilene(), config);
  const sim::SimReport report = simulation.run();
  const obs::Timeline& timeline = simulation.timeline();
  ASSERT_TRUE(timeline.enabled());
  ASSERT_EQ(timeline.epochs().size(), 12u);  // 6000 / 500

  const double requests = column_sum(timeline, "requests");
  EXPECT_EQ(static_cast<std::uint64_t>(requests), report.total_requests);
  EXPECT_NEAR(column_sum(timeline, "local") / requests,
              report.local_fraction, 1e-12);
  EXPECT_NEAR(column_sum(timeline, "network") / requests,
              report.network_fraction, 1e-12);
  EXPECT_NEAR(column_sum(timeline, "origin") / requests, report.origin_load,
              1e-12);
  EXPECT_NEAR(column_sum(timeline, "latency_ms_sum") / requests,
              report.mean_latency_ms, 1e-9);
  EXPECT_NEAR(column_sum(timeline, "hops_sum") / requests, report.mean_hops,
              1e-9);
  EXPECT_EQ(static_cast<std::uint64_t>(column_sum(timeline, "aggregated")),
            report.aggregated_requests);
}

TEST(SimTimeline, EvictionAndOccupancyColumnsMatchEndOfRunCounters) {
  const sim::SimConfig config = small_config();
  sim::Simulation simulation(topology::abilene(), config);
  simulation.run();
  const obs::Timeline& timeline = simulation.timeline();
  const sim::CcnNetwork::CacheTotals totals =
      simulation.network().cache_totals();

  EXPECT_EQ(static_cast<std::uint64_t>(column_sum(timeline, "evictions")),
            totals.evictions);
  EXPECT_EQ(static_cast<std::uint64_t>(column_sum(timeline, "insertions")),
            totals.insertions);
  // occupancy is an end-of-epoch gauge, not a delta: the last row holds the
  // final network-wide occupancy.
  const std::size_t occupancy = timeline.column_index("occupancy");
  ASSERT_NE(occupancy, obs::Timeline::npos);
  const std::vector<double> series = timeline.series(occupancy);
  ASSERT_FALSE(series.empty());
  EXPECT_EQ(static_cast<std::uint64_t>(series.back()), totals.occupancy);
  EXPECT_LE(totals.occupancy, totals.capacity);
}

TEST(SimTimeline, LinkColumnsMatchNetworkCountersWhenTracked) {
  sim::SimConfig config = small_config();
  config.network.track_link_load = true;
  sim::Simulation simulation(topology::abilene(), config);
  simulation.run();
  const obs::Timeline& timeline = simulation.timeline();
  const sim::CcnNetwork& network = simulation.network();

  EXPECT_EQ(
      static_cast<std::uint64_t>(column_sum(timeline, "link_traversals")),
      network.total_link_traversals());
  const std::size_t column = timeline.column_index("max_link_load");
  ASSERT_NE(column, obs::Timeline::npos);
  EXPECT_EQ(static_cast<std::uint64_t>(timeline.series(column).back()),
            network.max_link_load());
}

TEST(SimTimeline, LinkColumnsAreZeroWhenTrackingIsOff) {
  const sim::SimConfig config = small_config();
  sim::Simulation simulation(topology::abilene(), config);
  simulation.run();
  EXPECT_EQ(column_sum(simulation.timeline(), "link_traversals"), 0.0);
  EXPECT_EQ(column_sum(simulation.timeline(), "max_link_load"), 0.0);
}

TEST(SimTimeline, AggregatedColumnAccountsForInterestJoiners) {
  sim::SimConfig config = small_config();
  config.interest_aggregation = true;
  sim::Simulation simulation(topology::abilene(), config);
  const sim::SimReport report = simulation.run();
  const obs::Timeline& timeline = simulation.timeline();

  // Per epoch: every emitted request is either served at a tier or joined
  // an in-flight fetch.
  const std::size_t requests = timeline.column_index("requests");
  const std::size_t local = timeline.column_index("local");
  const std::size_t network = timeline.column_index("network");
  const std::size_t origin = timeline.column_index("origin");
  const std::size_t aggregated = timeline.column_index("aggregated");
  for (const obs::TimelineEpoch& row : timeline.epochs()) {
    EXPECT_DOUBLE_EQ(row.values[requests],
                     row.values[local] + row.values[network] +
                         row.values[origin] + row.values[aggregated]);
  }
  EXPECT_EQ(static_cast<std::uint64_t>(column_sum(timeline, "aggregated")),
            report.aggregated_requests);
}

TEST(SimTimeline, WarmupRequestsAppearInTheTimeline) {
  // The timeline covers warmup + measured (convergence must be visible),
  // while the report covers only the measured phase.
  sim::SimConfig config = small_config();
  config.warmup_requests = 1000;
  config.measured_requests = 5000;
  sim::Simulation simulation(topology::abilene(), config);
  const sim::SimReport report = simulation.run();
  const obs::Timeline& timeline = simulation.timeline();
  EXPECT_EQ(report.total_requests, 5000u);
  EXPECT_EQ(static_cast<std::uint64_t>(column_sum(timeline, "requests")),
            6000u);
}

TEST(SimTimeline, ReportFromTimelineReconstructsTheFullReport) {
  sim::SimConfig config = small_config();
  sim::Simulation simulation(topology::us_a(), config);
  const sim::SimReport report = simulation.run();
  const sim::SimReport rebuilt = sim::report_from_timeline(
      simulation.timeline(), 0, report.coordination_messages);

  EXPECT_EQ(rebuilt.total_requests, report.total_requests);
  EXPECT_EQ(rebuilt.aggregated_requests, report.aggregated_requests);
  EXPECT_EQ(rebuilt.upstream_fetches, report.upstream_fetches);
  EXPECT_NEAR(rebuilt.local_fraction, report.local_fraction, 1e-12);
  EXPECT_NEAR(rebuilt.network_fraction, report.network_fraction, 1e-12);
  EXPECT_NEAR(rebuilt.origin_load, report.origin_load, 1e-12);
  EXPECT_NEAR(rebuilt.mean_latency_ms, report.mean_latency_ms, 1e-9);
  EXPECT_NEAR(rebuilt.mean_hops, report.mean_hops, 1e-9);
  EXPECT_NEAR(rebuilt.mean_local_latency_ms, report.mean_local_latency_ms,
              1e-9);
  EXPECT_NEAR(rebuilt.mean_network_latency_ms,
              report.mean_network_latency_ms, 1e-9);
  EXPECT_NEAR(rebuilt.mean_origin_latency_ms, report.mean_origin_latency_ms,
              1e-9);
  EXPECT_EQ(rebuilt.coordination_messages, report.coordination_messages);
}

TEST(SimTimeline, RunToSteadyStateSplitsTheBudgetConsistently) {
  sim::SimConfig config = small_config();
  config.warmup_requests = 2000;  // folded into the measured budget
  config.measured_requests = 4000;
  config.timeline_epoch = 0;  // defaulted to total/64 inside
  const sim::SteadyStateRun run =
      sim::run_to_steady_state(topology::abilene(), config);

  EXPECT_EQ(run.full_report.total_requests, 6000u);
  EXPECT_EQ(run.report.total_requests + run.steady_state_requests, 6000u);
  ASSERT_TRUE(run.timeline.enabled());
  EXPECT_EQ(run.timeline.epoch_requests(), 6000u / 64u);
  if (run.steady.converged) {
    EXPECT_EQ(run.measured_from_epoch, run.steady.epoch);
  } else {
    EXPECT_EQ(run.measured_from_epoch, run.timeline.epochs().size() / 2);
  }
  // Deterministic: the same config reproduces the identical run.
  const sim::SteadyStateRun again =
      sim::run_to_steady_state(topology::abilene(), config);
  EXPECT_EQ(timeline_bytes(run.timeline), timeline_bytes(again.timeline));
  EXPECT_EQ(again.steady_state_requests, run.steady_state_requests);
}

TEST(SimTimeline, DisabledByDefault) {
  sim::SimConfig config = small_config();
  config.timeline_epoch = 0;
  sim::Simulation simulation(topology::abilene(), config);
  simulation.run();
  EXPECT_FALSE(simulation.timeline().enabled());
  EXPECT_TRUE(simulation.timeline().empty());
}

}  // namespace
}  // namespace ccnopt
