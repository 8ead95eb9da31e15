// The traced run: calls each module's public functions from the
// benchmark's own ScopedSpans, times them in blocks so the clock does not
// dominate, emits the per-layer metrics, and writes every span as a
// ccnopt-spans-v1 file. README.md lists which end-to-end metric each
// per-layer metric should move, and on which workload.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "bench.hpp"
#include "ccnopt/cache/lru.hpp"
#include "ccnopt/experiments/figures.hpp"
#include "ccnopt/model/optimizer.hpp"
#include "ccnopt/model/sensitivity.hpp"
#include "ccnopt/obs/export.hpp"
#include "ccnopt/obs/span.hpp"
#include "ccnopt/popularity/sampler.hpp"
#include "ccnopt/popularity/zipf.hpp"
#include "ccnopt/runtime/replication_runner.hpp"
#include "ccnopt/runtime/shard_scheduler.hpp"
#include "ccnopt/runtime/thread_pool.hpp"
#include "ccnopt/sim/metrics.hpp"
#include "ccnopt/sim/workload.hpp"
#include "ccnopt/topology/shortest_paths.hpp"

namespace perfbench {
namespace {

/// Calls per timed block: long enough that two clock reads per block are
/// noise, short enough that a p99 over blocks has samples beyond it.
constexpr std::size_t kBlock = 1024;

/// Repeated one-shot timings (set-up work) run at least this long.
constexpr double kMinRepeatSeconds = 0.05;

/// Nanoseconds per call of fn(i), i in [0, count), one value per block.
template <typename Fn>
std::vector<double> block_ns(std::size_t count, Fn&& fn) {
  std::vector<double> ns;
  for (std::size_t begin = 0; begin < count; begin += kBlock) {
    const std::size_t end = std::min(count, begin + kBlock);
    const Stopwatch clock;
    for (std::size_t i = begin; i < end; ++i) fn(i);
    ns.push_back(clock.seconds() * 1e9 / static_cast<double>(end - begin));
  }
  return ns;
}

/// Mean seconds per call of fn(), repeated for at least kMinRepeatSeconds.
template <typename Fn>
double seconds_per_call(Fn&& fn) {
  double total = 0.0;
  std::size_t calls = 0;
  do {
    const Stopwatch clock;
    fn();
    total += clock.seconds();
    ++calls;
  } while (total < kMinRepeatSeconds);
  return total / static_cast<double>(calls);
}

/// Mean wall seconds of the spans at `path` (summed over every path ending
/// in `path` when `suffix` is set); throws when none was recorded.
double span_seconds(const std::vector<obs::SpanAggregate>& spans,
                    const std::string& path, bool suffix = false) {
  std::int64_t wall_ns = 0;
  std::uint64_t count = 0;
  for (const obs::SpanAggregate& span : spans) {
    const bool match =
        span.path == path ||
        (suffix && span.path.size() > path.size() &&
         span.path.compare(span.path.size() - path.size() - 1,
                           std::string::npos, "/" + path) == 0);
    if (!match) continue;
    wall_ns += span.wall_ns;
    count += span.count;
  }
  if (count == 0) throw std::runtime_error("span '" + path + "' not recorded");
  return static_cast<double>(wall_ns) * 1e-9 / static_cast<double>(count);
}

/// Prints each span path's count, wall and self time (wall minus the wall
/// of its direct children on the same thread).
void print_self_times(const std::vector<obs::SpanAggregate>& spans) {
  std::cout << "spans (path, count, wall ms, self ms):\n";
  for (const obs::SpanAggregate& span : spans) {
    std::int64_t children_ns = 0;
    const std::string prefix = span.path + "/";
    for (const obs::SpanAggregate& child : spans) {
      if (child.path.compare(0, prefix.size(), prefix) == 0 &&
          child.path.find('/', prefix.size()) == std::string::npos) {
        children_ns += child.wall_ns;
      }
    }
    std::cout << "  " << span.path << "  " << span.count << "  "
              << static_cast<double>(span.wall_ns) * 1e-6 << "  "
              << static_cast<double>(span.wall_ns - children_ns) * 1e-6
              << "\n";
  }
}

/// Every valid parameter point of the Figure 4-13 sweeps.
std::vector<model::SystemParams> figure_grid() {
  using model::SweepParameter;
  const model::SystemParams base = model::SystemParams::paper_defaults();
  std::vector<model::SystemParams> grid;
  const auto add = [&grid](const model::SystemParams& series,
                           SweepParameter parameter,
                           const std::vector<double>& values) {
    for (const double value : values) {
      const model::SystemParams p =
          model::apply_sweep_parameter(series, parameter, value);
      if (p.validate().is_ok()) grid.push_back(p);
    }
  };
  for (const double gamma : experiments::gamma_series_values()) {
    add(model::with_gamma(base, gamma), SweepParameter::kAlpha,
        experiments::alpha_grid());
  }
  for (const double alpha : experiments::alpha_series_values()) {
    const model::SystemParams series = model::with_alpha(base, alpha);
    add(series, SweepParameter::kZipf, experiments::zipf_grid());
    add(series, SweepParameter::kRouters, experiments::router_grid());
    add(series, SweepParameter::kUnitCost, experiments::unit_cost_grid());
  }
  return grid;
}

/// One Simulation run and the per-run figures the layers read from it.
struct RunOutcome {
  sim::SimReport report;
  double rps = 0.0;
  sim::Simulation::PhaseSeconds phases;
  double record_s = 0.0;
  double placements_per_request = 0.0;
  double mean_placement_depth = 0.0;
  double link_traversals_per_request = 0.0;
  double insertions_per_request = 0.0;
  double evictions_per_request = 0.0;
};

RunOutcome run_once(const Workload& workload, const sim::SimConfig& config,
                    sim::ShardExecutor* executor, Checks& checks,
                    const std::string& what) {
  Setup run = set_up(workload, config);
  run.sim->set_shard_executor(executor);
  RunOutcome out;
  const Stopwatch clock;
  out.report = run.sim->run();
  const double requests = static_cast<double>(config.warmup_requests +
                                              config.measured_requests);
  out.rps = requests / clock.seconds();
  out.phases = run.sim->last_phase_seconds();
  out.record_s = run.sim->last_record_seconds();
  const sim::CcnNetwork& network = run.sim->network();
  const sim::CcnNetwork::CacheTotals cache = network.cache_totals();
  out.insertions_per_request = static_cast<double>(cache.insertions) / requests;
  out.evictions_per_request = static_cast<double>(cache.evictions) / requests;
  out.link_traversals_per_request =
      static_cast<double>(network.total_link_traversals()) / requests;
  if (config.record_topo) {
    const obs::TopoRecorder& topo = run.sim->topo();
    out.placements_per_request =
        static_cast<double>(topo.total_placements()) / requests;
    out.mean_placement_depth = topo.mean_placement_depth();
    check_topo(checks, *run.sim, out.report);
  }
  check_report(checks, out.report, config.measured_requests, what);
  return out;
}

/// Requests per second of `replications` replicated runs on `pool`.
double replicated_rps(runtime::ThreadPool& pool, const Workload& workload,
                      const sim::SimConfig& config, std::size_t replications,
                      Checks& checks) {
  release_free_memory();
  const topology::Graph graph = workload.build_graph();
  const runtime::ReplicationRunner runner(pool);
  const Stopwatch clock;
  const runtime::ReplicationSummary summary =
      runner.run(graph, config, replications);
  const double seconds = clock.seconds();
  for (const sim::SimReport& report : summary.reports) {
    check_report(checks, report, config.measured_requests, "replication");
  }
  return static_cast<double>(workload.total_requests() * replications) /
         seconds;
}

}  // namespace

Metrics run_layers(const Workload& workload, const Options& options,
                   Checks& checks) {
  const Stopwatch deadline;
  obs::SpanProfiler& profiler = obs::SpanProfiler::instance();
  profiler.reset();
  profiler.set_event_recording(true);
  check_theorem2(checks);

  sim::SimConfig config = workload.config;
  config.seed = options.seed;
  const sim::NetworkConfig& net = config.network;
  const std::uint64_t requests = workload.total_requests();

  // --- model / numerics: the closed-form optimizer over Figures 4-13.
  std::vector<double> optimize_us;
  double iterations = 0.0;
  {
    const obs::ScopedSpan span("model.optimize");
    const std::vector<model::SystemParams> grid = figure_grid();
    constexpr int kRepeats = 4;
    for (const model::SystemParams& p : grid) {
      const Stopwatch clock;
      Expected<model::StrategyResult> result = model::optimize(p);
      for (int r = 1; r < kRepeats; ++r) result = model::optimize(p);
      optimize_us.push_back(clock.seconds() * 1e6 / kRepeats);
      checks.expect(result.has_value(), "model::optimize failed on the grid");
      if (result) iterations += result->iterations;
    }
    iterations /= static_cast<double>(grid.size());
  }

  // --- topology.
  const topology::Graph graph = workload.build_graph();
  const std::size_t routers = graph.node_count();
  double all_pairs_s = 0.0;
  {
    const obs::ScopedSpan span("topology.all_pairs");
    all_pairs_s = seconds_per_call([&] { (void)topology::all_pairs(graph); });
  }

  // --- popularity.
  double sampler_build_s = 0.0;
  std::vector<double> draw_ns;
  {
    const obs::ScopedSpan span("popularity.sampler_build");
    sampler_build_s = seconds_per_call([&] {
      (void)popularity::make_zipf_sampler(net.catalog_size, config.zipf_s,
                                          config.sampler_kind);
    });
  }
  {
    const obs::ScopedSpan span("popularity.draw");
    const auto sampler = popularity::make_zipf_sampler(
        net.catalog_size, config.zipf_s, config.sampler_kind);
    Rng rng(derive_seed(options.seed, 2));
    std::vector<std::uint64_t> out(kBlock);
    for (std::uint64_t drawn = 0; drawn < requests; drawn += kBlock) {
      const Stopwatch clock;
      sampler->sample_block(rng, out.data(), kBlock);
      draw_ns.push_back(clock.seconds() * 1e9 / static_cast<double>(kBlock));
    }
  }

  // --- sim workload: the pre-drawn request stream every data-plane layer
  // below replays.
  std::vector<std::uint32_t> first_hops(requests);
  std::vector<cache::ContentId> contents(requests);
  std::vector<double> next_ns;
  {
    Rng rng(derive_seed(options.seed, 3));
    for (std::uint32_t& r : first_hops) {
      r = static_cast<std::uint32_t>(rng.uniform_int(0, routers - 1));
    }
    sim::ZipfWorkload stream(routers, net.catalog_size, config.zipf_s,
                             derive_seed(options.seed, 4),
                             config.sampler_kind);
    const obs::ScopedSpan span("workload.next");
    next_ns = block_ns(requests, [&](std::size_t i) {
      contents[i] = stream.next(first_hops[i]);
    });
  }

  // --- sim network: construct, provision, then serve the stream (the
  // first fifth warms the caches untimed).
  double construct_s = 0.0;
  double provision_s = 0.0;
  std::vector<double> serve_ns;
  std::vector<sim::ServeResult> results(requests);
  {
    sim::NetworkConfig network_config = net;
    network_config.track_link_load |= config.record_topo;
    std::unique_ptr<sim::CcnNetwork> network;
    {
      const obs::ScopedSpan span("network.construct");
      double total = 0.0;
      std::size_t calls = 0;
      do {
        network.reset();
        const Stopwatch clock;
        network = std::make_unique<sim::CcnNetwork>(graph, network_config);
        total += clock.seconds();
        ++calls;
      } while (total < kMinRepeatSeconds);
      construct_s = total / static_cast<double>(calls);
    }
    {
      const obs::ScopedSpan span("network.provision");
      provision_s =
          seconds_per_call([&] { network->provision(config.coordinated_x); });
    }
    const std::size_t warm = requests / 5;
    for (std::size_t i = 0; i < warm; ++i) {
      results[i] = network->serve(first_hops[i], contents[i]);
    }
    const obs::ScopedSpan span("network.serve");
    serve_ns = block_ns(requests - warm, [&](std::size_t i) {
      results[warm + i] =
          network->serve(first_hops[warm + i], contents[warm + i]);
    });
  }

  // --- cache: the local partition's policy alone, at its capacity c - x.
  std::vector<double> admit_ns;
  {
    cache::LruCache lru(net.capacity_c - config.coordinated_x,
                        cache::IndexSpec{net.cache_index_mode,
                                         net.catalog_size});
    const obs::ScopedSpan span("cache.admit");
    admit_ns = block_ns(requests,
                        [&](std::size_t i) { (void)lru.admit(contents[i]); });
  }

  // --- sim metrics.
  std::vector<double> record_ns;
  {
    sim::MetricsCollector collector;
    collector.resize_routers(routers);
    const obs::ScopedSpan span("metrics.record");
    record_ns = block_ns(requests, [&](std::size_t i) {
      collector.record(first_hops[i], results[i].tier, results[i].latency_ms,
                       results[i].hops);
    });
  }

  // --- sim engine, strategy, obs: whole runs. A round runs the workload
  // traced (inside a bench span, span events on), untraced, and untraced
  // with topo + timeline telemetry toggled. One sharded run and one
  // replicated pass follow the first round; further rounds run while time
  // remains.
  sim::SimConfig toggled = config;
  toggled.record_topo = !config.record_topo;
  toggled.timeline_epoch = config.timeline_epoch > 0 ? 0 : requests / 64;
  std::vector<double> traced_rps;
  std::vector<double> untraced_rps;
  std::vector<double> telemetry_on_rps;
  std::vector<double> telemetry_off_rps;
  RunOutcome traced;
  RunOutcome telemetry_on;
  double round_s = 0.0;
  const auto run_round = [&] {
    const Stopwatch round;
    {
      const obs::ScopedSpan span("sim.single");
      traced = run_once(workload, config, nullptr, checks, "traced run");
    }
    profiler.set_event_recording(false);
    const RunOutcome plain =
        run_once(workload, config, nullptr, checks, "untraced run");
    const RunOutcome other =
        run_once(workload, toggled, nullptr, checks, "telemetry-toggled run");
    profiler.set_event_recording(true);
    check_identical(checks, traced.report, plain.report, "untraced run");
    traced_rps.push_back(traced.rps);
    untraced_rps.push_back(plain.rps);
    telemetry_on = config.record_topo ? plain : other;
    telemetry_on_rps.push_back(telemetry_on.rps);
    telemetry_off_rps.push_back(config.record_topo ? other.rps : plain.rps);
    round_s = round.seconds();
  };
  run_round();

  runtime::ThreadPool pool(options.threads);
  runtime::ShardScheduler scheduler(pool);
  sim::SimConfig sharded_config = config;
  sharded_config.shards = options.shards;
  RunOutcome sharded;
  {
    const obs::ScopedSpan span("sim.sharded");
    sharded =
        run_once(workload, sharded_config, &scheduler, checks, "sharded run");
  }
  check_identical(checks, traced.report, sharded.report, "sharded run");
  double replicated = 0.0;
  double replicated_one = 0.0;
  {
    const obs::ScopedSpan span("runtime.replicated");
    replicated =
        replicated_rps(pool, workload, config, options.threads, checks);
    runtime::ThreadPool single_pool(1);
    replicated_one = replicated_rps(single_pool, workload, config, 1, checks);
  }
  while (deadline.seconds() + round_s < options.seconds) run_round();
  std::cout << "rounds: " << traced_rps.size() << "\n";

  profiler.set_event_recording(false);
  const std::vector<obs::SpanAggregate> spans = profiler.snapshot();
  print_self_times(spans);
  if (!options.span_out.empty()) {
    std::ofstream out(options.span_out);
    obs::write_trace_events_json(out, profiler.events(),
                                 profiler.dropped_events());
    if (!out) {
      throw std::runtime_error("cannot write span file " + options.span_out);
    }
    std::cout << "span file: " << options.span_out << "\n";
  }

  const double replay_s = span_seconds(spans, "sim.single/sim.run/sim.replay");
  const double single_rps = median(traced_rps);
  // The single-thread engines do not clock their record pass; there the
  // record work is estimated from the metrics layer's own timing.
  const double record_s =
      sharded.record_s > 0.0
          ? sharded.record_s
          : static_cast<double>(config.measured_requests) * median(record_ns) *
                1e-9;
  const popularity::ContinuousZipf zipf(
      static_cast<double>(net.catalog_size), config.zipf_s);
  const double covered = static_cast<double>(
      net.capacity_c - config.coordinated_x + routers * config.coordinated_x);
  const double model_origin = 1.0 - zipf.cdf(covered);
  const double per_request_ns =
      median(next_ns) + median(serve_ns) + median(record_ns);

  Metrics m;
  emit(m, "topology.all_pairs_s", all_pairs_s, "s");
  emit(m, "network.construct_s", construct_s, "s");
  emit(m, "network.rebuild_routing_s",
       span_seconds(spans, "network.rebuild_routing", true), "s");
  emit(m, "network.provision_s", provision_s, "s");
  emit(m, "network.serve_ns.p50", quantile(serve_ns, 0.5), "ns");
  emit(m, "network.serve_ns.p99", quantile(serve_ns, 0.99), "ns");
  emit(m, "network.link_traversals_per_request",
       telemetry_on.link_traversals_per_request, "count");
  emit(m, "network.local_fraction", traced.report.local_fraction, "ratio");
  emit(m, "network.network_fraction", traced.report.network_fraction,
       "ratio");
  emit(m, "network.origin_fraction", traced.report.origin_load, "ratio");
  emit(m, "popularity.sampler_build_s", sampler_build_s, "s");
  emit(m, "popularity.draw_ns", median(draw_ns), "ns");
  emit(m, "cache.admit_ns", median(admit_ns), "ns");
  emit(m, "cache.insertions_per_request", traced.insertions_per_request,
       "count");
  emit(m, "cache.evictions_per_request", traced.evictions_per_request,
       "count");
  emit(m, "workload.next_ns", median(next_ns), "ns");
  emit(m, "metrics.record_ns", median(record_ns), "ns");
  emit(m, "sim.run_s", span_seconds(spans, "sim.single/sim.run"), "s");
  emit(m, "sim.replay_s", replay_s, "s");
  emit(m, "sim.provision_s",
       span_seconds(spans, "sim.single/sim.run/sim.provision"), "s");
  emit(m, "sim.warmup_phase_rps",
       static_cast<double>(config.warmup_requests) / traced.phases.warmup,
       "1/s");
  emit(m, "sim.measured_phase_rps",
       static_cast<double>(config.measured_requests) / traced.phases.measured,
       "1/s");
  emit(m, "sim.record_s", record_s, "s");
  emit(m, "sim.shard_speedup", sharded.rps / single_rps, "ratio");
  emit(m, "sim.shards", static_cast<double>(options.shards), "count");
  emit(m, "sim.engine_share",
       1.0 - static_cast<double>(requests) * per_request_ns * 1e-9 / replay_s,
       "ratio");
  emit(m, "strategy.placements_per_request",
       telemetry_on.placements_per_request, "count");
  emit(m, "strategy.mean_placement_depth", telemetry_on.mean_placement_depth,
       "hops");
  emit(m, "strategy.coordination_messages",
       static_cast<double>(traced.report.coordination_messages), "count");
  emit(m, "runtime.replication_efficiency",
       replicated /
           (static_cast<double>(options.threads) * replicated_one),
       "ratio");
  emit(m, "runtime.threads", static_cast<double>(options.threads), "count");
  emit(m, "obs.telemetry_cost",
       1.0 - median(telemetry_on_rps) / median(telemetry_off_rps), "ratio");
  emit(m, "trace.overhead", 1.0 - single_rps / median(untraced_rps),
       "ratio");
  emit(m, "model.optimize_us.p50", quantile(optimize_us, 0.5), "us");
  emit(m, "model.optimize_us.p99", quantile(optimize_us, 0.99), "us");
  emit(m, "model.solver_iterations", iterations, "count");
  emit(m, "model.origin_load_residual",
       traced.report.origin_load - model_origin, "ratio");
  return m;
}

}  // namespace perfbench
