// Workload definitions, set-up, output checks, and the untraced run that
// produces the end-to-end metrics.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <thread>

#include "bench.hpp"
#include "ccnopt/common/random.hpp"
#include "ccnopt/model/optimizer.hpp"
#include "ccnopt/obs/process.hpp"
#include "ccnopt/runtime/replication_runner.hpp"
#include "ccnopt/runtime/shard_scheduler.hpp"
#include "ccnopt/runtime/thread_pool.hpp"
#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/generators.hpp"

namespace perfbench {
namespace {

/// x for usa-paper-scale: round(l* c) with l* = 0.93663 from
/// model::optimize(SystemParams::paper_defaults()) and c = 1000. Fixed here
/// so that a change to the model does not change the workload.
constexpr std::size_t kPaperScaleX = 937;

/// The largest |closed form - exact| that bench_theorem2_closedform reports
/// on its grid (0.0341, at s = 1.9, gamma = 2, n = 20), rounded up.
constexpr double kTheorem2Gap = 0.035;

/// run() calls per set-up in the untraced run. Each call re-provisions and
/// replays a full batch, continuing the workload's request streams, so
/// every call is a complete run of the same size; repeating them spreads
/// the Waxman graph's seconds-long set-up over more samples.
constexpr int kRunsPerSetup = 6;

/// Replicated sweeps per round. A Waxman sweep sets up nproc graphs, so
/// two sweeps take about as long as the round's run() calls.
constexpr int kSweepsPerRound = 2;

/// The set-up at shards = 1 is repeated (each one timed, the last one kept)
/// until a round has spent this long on it, so that setup_s gets enough
/// samples on workloads that set up in milliseconds.
constexpr double kSetupSecondsPerRound = 0.5;

/// Run rates are reported at this quantile of their samples and set-up
/// times at 1 - kFastQuantile: the fast tail, not the median. The host's
/// cores are shared with other tenants, whose load slows this program by
/// up to half for seconds at a time (thread CPU time slows alike, so it is
/// not preemption or steal) and never speeds it up; the median follows how
/// much of the minute they were busy, the fast tail stays near the
/// program's own speed.
constexpr double kFastQuantile = 0.9;
Workload make_workload(std::uint64_t catalog, std::size_t capacity,
                       std::size_t x, std::uint64_t requests) {
  Workload w;
  sim::SimConfig& c = w.config;
  c.network.catalog_size = catalog;
  c.network.capacity_c = capacity;
  c.network.local_mode = sim::LocalStoreMode::kLru;
  c.coordinated_x = x;
  c.zipf_s = 0.8;
  // A fixed fifth of the batch warms the caches; the detector in
  // sim/steady_state is not used, so changes to it cannot move the split.
  c.warmup_requests = requests / 5;
  c.measured_requests = requests - c.warmup_requests;
  return w;
}

/// Prints one line with every sample behind a metric and their median,
/// for the reader.
void print_samples(const std::string& name, const std::vector<double>& values) {
  std::cout << "samples " << name << " (median " << median(values) << "):";
  for (const double v : values) std::cout << " " << v;
  std::cout << "\n";
}

}  // namespace

topology::Graph Workload::build_graph() const {
  if (waxman_nodes == 0) return topology::us_a();
  Rng rng(graph_seed);
  return topology::make_waxman(waxman_nodes, rng);
}

std::vector<std::string> workload_names() {
  return {"usa-paper-scale", "waxman1k-onpath"};
}

bool find_workload(const std::string& name, bool tiny, Workload* out) {
  if (name == "usa-paper-scale") {
    // Table IV scale: the alias table and the dense indexes (20 x 10^6
    // slots) are far past the LLC, so serve is bound by cache misses.
    *out = tiny ? make_workload(100000, 100, 94, 20000)
                : make_workload(1000000, 1000, kPaperScaleX, 2000000);
  } else if (name == "waxman1k-onpath") {
    // n^2 routing state dominates set-up; every miss writes copies along
    // its path; sparse indexes and the rejection sampler; no sharding.
    *out = make_workload(tiny ? 100000 : 10000000, 100, 0,
                         tiny ? 20000 : 1000000);
    out->waxman_nodes = tiny ? 100 : 1000;
    out->graph_seed = 1000;
    out->config.network.strategy = "lcd";
    out->config.record_topo = true;
    out->config.timeline_epoch = out->total_requests() / 64;
  } else {
    return false;
  }
  return true;
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << "check failed: " << what << "\n";
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void release_free_memory() { malloc_trim(0); }

Setup set_up(const Workload& workload, const sim::SimConfig& config) {
  release_free_memory();
  const Stopwatch clock;
  topology::Graph graph = workload.build_graph();
  auto simulation = std::make_unique<sim::Simulation>(graph, config);
  simulation->network().provision(config.coordinated_x);
  const double seconds = clock.seconds();
  return Setup{std::move(graph), std::move(simulation), seconds};
}

void check_report(Checks& checks, const sim::SimReport& report,
                  std::uint64_t measured, const std::string& what) {
  const double tiers =
      report.local_fraction + report.network_fraction + report.origin_load;
  checks.expect(std::abs(tiers - 1.0) <= 1e-9,
                what + ": tier fractions sum to " + std::to_string(tiers));
  checks.expect(report.total_requests == measured,
                what + ": total_requests " +
                    std::to_string(report.total_requests) + " != budget " +
                    std::to_string(measured));
}

void check_identical(Checks& checks, const sim::SimReport& a,
                     const sim::SimReport& b, const std::string& what) {
  const bool same =
      a.total_requests == b.total_requests &&
      a.aggregated_requests == b.aggregated_requests &&
      a.upstream_fetches == b.upstream_fetches &&
      a.local_fraction == b.local_fraction &&
      a.network_fraction == b.network_fraction &&
      a.origin_load == b.origin_load &&
      a.mean_latency_ms == b.mean_latency_ms && a.mean_hops == b.mean_hops &&
      a.mean_local_latency_ms == b.mean_local_latency_ms &&
      a.mean_network_latency_ms == b.mean_network_latency_ms &&
      a.mean_origin_latency_ms == b.mean_origin_latency_ms &&
      a.coordination_messages == b.coordination_messages;
  checks.expect(same, what + ": report differs from the shards = 1 report");
}

void check_topo(Checks& checks, const sim::Simulation& simulation,
                const sim::SimReport& report) {
  const obs::TopoRecorder& topo = simulation.topo();
  std::uint64_t local = 0;
  std::uint64_t network = 0;
  std::uint64_t origin = 0;
  for (const obs::TopoNodeStats& node : topo.nodes()) {
    local += node.local;
    network += node.network;
    origin += node.origin;
  }
  const double total = static_cast<double>(report.total_requests);
  const auto count = [total](double fraction) {
    return static_cast<std::uint64_t>(std::llround(fraction * total));
  };
  checks.expect(topo.total_requests() == report.total_requests &&
                    local == count(report.local_fraction) &&
                    network == count(report.network_fraction) &&
                    origin == count(report.origin_load),
                "topo tier sums differ from the report counts");
  std::uint64_t links = 0;
  for (const obs::TopoLinkStats& link : topo.links()) links += link.traversals;
  checks.expect(links == simulation.network().total_link_traversals(),
                "topo link loads sum to " + std::to_string(links) +
                    ", network counted " +
                    std::to_string(
                        simulation.network().total_link_traversals()));
}

void check_theorem2(Checks& checks) {
  const model::SystemParams base =
      model::with_alpha(model::SystemParams::paper_defaults(), 1.0);
  for (const double s : {0.3, 0.5, 0.8, 1.2, 1.5, 1.9}) {
    for (const double gamma : {2.0, 5.0, 10.0}) {
      for (const double n : {20.0, 100.0}) {
        const model::SystemParams p = model::with_routers(
            model::with_gamma(model::with_zipf(base, s), gamma), n);
        const auto closed = model::closed_form_alpha1(p);
        const auto exact = model::solve_exact_first_order(p);
        checks.expect(closed && exact &&
                          std::abs(*closed - exact->ell_star) <= kTheorem2Gap,
                      "theorem 2 closed form off the exact optimum at s=" +
                          std::to_string(s) + " gamma=" +
                          std::to_string(gamma) + " n=" + std::to_string(n));
      }
    }
  }
}

Metrics run_end_to_end(const Workload& workload, const Options& options,
                       Checks& checks) {
  check_theorem2(checks);
  sim::SimConfig config = workload.config;
  config.seed = options.seed;
  sim::SimConfig sharded_config = config;
  sharded_config.shards = options.shards;
  const double requests = static_cast<double>(workload.total_requests());
  const std::uint64_t measured = config.measured_requests;

  runtime::ThreadPool pool(options.threads);
  runtime::ShardScheduler scheduler(pool);
  const runtime::ReplicationRunner runner(pool);
  std::vector<double> setup_s;
  std::vector<double> single_rps;
  std::vector<double> sharded_rps;
  std::vector<double> replicated_rps;
  // Rounds until the time is used: set up the run at shards = 1 and at
  // --shards, run() each kRunsPerSetup times, alternating so that load
  // from other processes falls on both alike, then kSweepsPerRound
  // replicated sweeps.
  // Each figure is taken over all its samples. A round
  // starts if half of it is expected to fit in --seconds; inside it, each
  // run pair and sweep after the first starts only while time is left, so
  // the run ends within one step of --seconds.
  const Stopwatch clock;
  const auto time_left = [&clock, &options] {
    return clock.seconds() < options.seconds;
  };
  double round_s = 0.0;
  int rounds = 0;
  do {
    const Stopwatch round;
    Setup single = set_up(workload, config);
    setup_s.push_back(single.seconds);
    for (double spent = single.seconds; spent < kSetupSecondsPerRound;
         spent += single.seconds) {
      single.sim.reset();
      single = set_up(workload, config);
      setup_s.push_back(single.seconds);
    }
    Setup sharded = set_up(workload, sharded_config);
    setup_s.push_back(sharded.seconds);
    sharded.sim->set_shard_executor(&scheduler);
    for (int i = 0; i < kRunsPerSetup && (i == 0 || time_left()); ++i) {
      const Stopwatch timer;
      const sim::SimReport reference = single.sim->run();
      single_rps.push_back(requests / timer.seconds());
      check_report(checks, reference, measured, "shards = 1 run");
      if (config.record_topo) check_topo(checks, *single.sim, reference);
      const Stopwatch sharded_timer;
      const sim::SimReport report = sharded.sim->run();
      sharded_rps.push_back(requests / sharded_timer.seconds());
      check_identical(checks, reference, report,
                      "shards = " + std::to_string(options.shards) + " run");
    }
    single.sim.reset();
    sharded.sim.reset();
    release_free_memory();
    const topology::Graph graph = workload.build_graph();
    for (int i = 0; i < kSweepsPerRound && (i == 0 || time_left()); ++i) {
      const Stopwatch timer;
      const runtime::ReplicationSummary summary =
          runner.run(graph, config, options.threads);
      replicated_rps.push_back(
          requests * static_cast<double>(options.threads) / timer.seconds());
      for (const sim::SimReport& report : summary.reports) {
        check_report(checks, report, measured, "replication");
      }
    }
    round_s = round.seconds();
    ++rounds;
  } while (clock.seconds() + round_s / 2.0 < options.seconds);

  std::cout << "rounds: " << rounds << "\n";
  print_samples("setup_s", setup_s);
  print_samples("requests_per_s", single_rps);
  print_samples("requests_per_s_sharded", sharded_rps);
  print_samples("replicated_requests_per_s", replicated_rps);
  Metrics metrics;
  emit(metrics, "setup_s", quantile(setup_s, 1.0 - kFastQuantile), "s");
  emit(metrics, "requests_per_s", quantile(single_rps, kFastQuantile), "1/s");
  emit(metrics, "requests_per_s_sharded", quantile(sharded_rps, kFastQuantile),
       "1/s");
  // A sweep ends when the slowest of its nproc replications does, so some
  // core is slowed in nearly every sweep and the fast tail is rare and
  // erratic; the median of the sweeps is the steady figure here.
  emit(metrics, "replicated_requests_per_s", median(replicated_rps), "1/s");
  emit(metrics, "peak_rss_mb",
       static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0), "MiB");
  return metrics;
}

}  // namespace perfbench
