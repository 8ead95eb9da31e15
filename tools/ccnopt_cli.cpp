// ccnopt — command-line front end for the library.
//
//   ccnopt optimize  [--topology=us-a] [--alpha=0.7] [--gamma=5] [--s=0.8]
//                    [--n=] [--c=1000] [--catalog=1e6] [--w=]
//   ccnopt sweep     --figure=4..13 [--csv=path]
//   ccnopt simulate  [--topology=geant] [--x=100] [--requests=100000]
//                    [--policy=static|lru|lfu|fifo|random] [--s=0.8]
//                    [--strategy=coordinated-split] [--catalog=20000]
//                    [--c=200] [--seed=42] [--replications=1] [--threads=N]
//                    [--shards=S] [--trace-out=path]
//                    [--trace-sample=K]
//
// --strategy picks a registered caching strategy (coordinated-split, lce,
// lcd, prob, prob-cap, coop-degree, ...); an unknown name fails with the
// full registered list. --policy defaults to static, and to lru for the
// on-path strategies (lce, lcd, prob, prob-cap): static partitions never
// admit, so an on-path strategy with --policy=static is rejected.
//
// simulate range-checks its numbers before anything runs: --catalog >= 1,
// --c >= 1, 0 <= --x <= --c, --requests >= 1 and --s > 0.
//
// --threads sizes the simulate worker pool (replications, or the shards of
// one run) and defaults to the hardware concurrency; results are
// bit-identical for any thread count (deterministic seeding + ordered
// reduction). sweep always runs on one thread: a figure's grid solves in
// about a millisecond.
//
// --shards=S parallelizes a SINGLE simulate run across S worker shards
// (windowed request engine; see DESIGN.md §14), which also serves
// --shards=1 runs on one thread. Outputs are bit-identical to --shards=1
// for any S. Configurations the windowed engine cannot shard exactly
// (on-path strategies, peer-local fetch, globally coupled workloads) are
// served serially in emission order, with only their arrival times,
// content draws and record pass on the S shards; when S > 1 the run logs
// the disqualifying reason.
//
// Observability (any subcommand):
//   --metrics-out=path   deterministic metrics registry snapshot (.csv → CSV,
//                        else JSON); byte-identical across --threads values
//   --profile-out=path   wall/CPU span profile + perf registry (timings and
//                        scheduling counters — NOT deterministic)
//   --trace-out=path     (simulate) sampled per-request trace; deterministic
//   --trace-sample=K     trace 1-in-K measured requests (default 100 when
//                        --trace-out is given; 1 = every measured request)
//   --timeline-out=path  (simulate) per-epoch telemetry timeline
//                        (ccnopt-timeline-v1; .csv → CSV, else JSON);
//                        byte-identical across --threads values
//   --timeline-epoch=E   requests per timeline epoch (default 5000 when
//                        --timeline-out is given)
//   --topo-out=path      (simulate) per-router / per-link flight recorder
//                        (ccnopt-topo-v1; .csv → CSV, else JSON); render as
//                        a Graphviz heatmap with tools/render_topo.py;
//                        byte-identical across --threads values
//   --perfetto-out=path  span occurrences as Chrome trace events
//                        (ccnopt-spans-v1; open in Perfetto / about:tracing);
//                        also auto-emitted as <profile-out>.perfetto.json
//                        whenever --profile-out is given
//   ccnopt adaptive  [--topology=geant] [--epochs=6]
//   ccnopt hetero    [--capacities=500x10,1500x10] [--alpha=1] [--gamma=5]
//                    [--s=0.8] [--catalog=1e6]
//   ccnopt regret    [--topology=us-a] [--alpha=0.7] [--true-s=0.8]
//   ccnopt topology  [--name=us-a] [--dot=path] [--edges=path]
//                    [--load=path]
//   ccnopt help
#include <algorithm>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string_view>

#include "ccnopt/common/args.hpp"
#include "ccnopt/common/strings.hpp"
#include "ccnopt/common/table.hpp"
#include "ccnopt/experiments/adaptive_loop.hpp"
#include "ccnopt/experiments/figures.hpp"
#include "ccnopt/experiments/report.hpp"
#include "ccnopt/model/gains.hpp"
#include "ccnopt/model/heterogeneous.hpp"
#include "ccnopt/model/robustness.hpp"
#include "ccnopt/model/sensitivity.hpp"
#include "ccnopt/obs/export.hpp"
#include "ccnopt/obs/topo.hpp"
#include "ccnopt/obs/trace.hpp"
#include "ccnopt/runtime/replication_runner.hpp"
#include "ccnopt/runtime/shard_scheduler.hpp"
#include "ccnopt/runtime/thread_pool.hpp"
#include "ccnopt/sim/simulation.hpp"
#include "ccnopt/strategy/registry.hpp"
#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/io.hpp"
#include "ccnopt/topology/params.hpp"

namespace {

using namespace ccnopt;

int usage() {
  std::cout <<
      "ccnopt — coordinated in-network caching: model, optimizer, simulator\n"
      "\n"
      "subcommands:\n"
      "  optimize   compute the optimal coordination level for a topology\n"
      "  sweep      regenerate a paper figure (4-13), optionally to CSV\n"
      "  simulate   run the discrete-event simulator\n"
      "  adaptive   run the online controller against a drifting workload\n"
      "  hetero     optimize per-router coordination for mixed capacities\n"
      "  regret     cost of misestimating the Zipf exponent\n"
      "  topology   inspect/export/load a topology\n"
      "  help       this text\n"
      "\n"
      "run a subcommand with no arguments for its defaults; see the header\n"
      "of tools/ccnopt_cli.cpp for every option.\n";
  return 0;
}

int fail(const Status& status) {
  std::cerr << "error: " << status.to_string() << "\n";
  return 1;
}

/// Every --key that some subcommand or write_obs_outputs reads.
bool is_known_option(const std::string& key) {
  static constexpr std::string_view kKnown[] = {
      "alpha", "c", "capacities", "catalog", "csv", "dot", "edges",
      "epochs", "figure", "gamma", "load", "metrics-out", "n", "name",
      "perfetto-out", "policy", "profile-out", "replications", "requests",
      "s", "seed", "shards", "strategy", "threads", "timeline-epoch",
      "timeline-out", "topo-out", "topology", "trace-out", "trace-sample",
      "true-s", "w", "x"};
  return std::find(std::begin(kKnown), std::end(kKnown), key) !=
         std::end(kKnown);
}

bool wants_csv(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

/// Writes an obs snapshot to `path` (CSV when the extension is .csv).
int write_obs_export(const std::string& path, obs::ExportOptions options) {
  options.format = wants_csv(path) ? obs::ExportFormat::kCsv
                                   : obs::ExportFormat::kJson;
  std::ofstream out(path);
  if (!out) {
    return fail(Status(ErrorCode::kInvalidArgument, "cannot open " + path));
  }
  obs::export_snapshot(out, options);
  return 0;
}

/// Writes the recorded span occurrences as a Perfetto-loadable trace.
int write_perfetto_out(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return fail(Status(ErrorCode::kInvalidArgument, "cannot open " + path));
  }
  const obs::SpanProfiler& profiler = obs::SpanProfiler::instance();
  obs::write_trace_events_json(out, profiler.events(),
                               profiler.dropped_events());
  return 0;
}

/// --metrics-out / --profile-out / --perfetto-out, honoured after every
/// subcommand.
int write_obs_outputs(const ArgParser& args) {
  if (args.has("metrics-out")) {
    obs::ExportOptions options;  // deterministic metrics registry only
    if (int code = write_obs_export(args.get("metrics-out", ""), options)) {
      return code;
    }
  }
  if (args.has("profile-out")) {
    obs::ExportOptions options;
    options.include_metrics = false;
    options.include_perf = true;
    options.include_spans = true;
    if (int code = write_obs_export(args.get("profile-out", ""), options)) {
      return code;
    }
  }
  // A profile without a timeline view is half the story: every --profile-out
  // also gets the Perfetto form, under an explicit path when given.
  if (args.has("perfetto-out")) {
    if (int code = write_perfetto_out(args.get("perfetto-out", ""))) {
      return code;
    }
  } else if (args.has("profile-out")) {
    if (int code = write_perfetto_out(args.get("profile-out", "") +
                                      ".perfetto.json")) {
      return code;
    }
  }
  return 0;
}

int write_trace_out(const std::string& path, const obs::TraceBuffer& traces) {
  std::ofstream out(path);
  if (!out) {
    return fail(Status(ErrorCode::kInvalidArgument, "cannot open " + path));
  }
  if (wants_csv(path)) {
    obs::write_traces_csv(out, traces);
  } else {
    obs::write_traces_json(out, traces);
  }
  std::cout << "trace written to " << path << " (" << traces.size()
            << " events)\n";
  return 0;
}

int write_timeline_out(const std::string& path,
                       const obs::Timeline& timeline) {
  std::ofstream out(path);
  if (!out) {
    return fail(Status(ErrorCode::kInvalidArgument, "cannot open " + path));
  }
  if (wants_csv(path)) {
    obs::write_timeline_csv(out, timeline);
  } else {
    obs::write_timeline_json(out, timeline);
  }
  std::cout << "timeline written to " << path << " ("
            << timeline.epochs().size() << " epochs)\n";
  return 0;
}

int write_topo_out(const std::string& path, const obs::TopoRecorder& topo) {
  std::ofstream out(path);
  if (!out) {
    return fail(Status(ErrorCode::kInvalidArgument, "cannot open " + path));
  }
  if (wants_csv(path)) {
    obs::write_topo_csv(out, topo);
  } else {
    obs::write_topo_json(out, topo);
  }
  std::cout << "topo telemetry written to " << path << " ("
            << topo.nodes().size() << " nodes, " << topo.links().size()
            << " links)\n";
  return 0;
}

/// --threads, defaulting to the hardware concurrency.
Expected<std::size_t> parse_threads(const ArgParser& args) {
  const auto threads = args.get_int(
      "threads",
      static_cast<std::int64_t>(runtime::ThreadPool::default_thread_count()));
  if (!threads) return threads.status();
  if (*threads < 1 || *threads > 256) {
    return Status(ErrorCode::kInvalidArgument,
                  "--threads must be in [1, 256]");
  }
  return static_cast<std::size_t>(*threads);
}

Expected<topology::Graph> load_topology(const ArgParser& args,
                                        const std::string& key,
                                        const std::string& fallback) {
  return topology::dataset_by_name(args.get(key, fallback));
}

/// Shared parameter assembly: topology-derived defaults with overrides.
Expected<model::SystemParams> build_params(const ArgParser& args,
                                           const topology::Graph& graph) {
  const topology::TopologyParameters derived =
      topology::derive_parameters(graph);
  model::SystemParams params = model::SystemParams::paper_defaults();
  params.n = static_cast<double>(derived.n);
  const auto gamma = args.get_double("gamma", 5.0);
  if (!gamma) return gamma.status();
  params.latency =
      model::LatencyProfile::from_gamma(1.0, derived.mean_hops, *gamma);
  const auto w = args.get_double("w", derived.unit_cost_w_ms);
  if (!w) return w.status();
  params.cost.unit_cost_w = *w;
  const auto s = args.get_double("s", 0.8);
  if (!s) return s.status();
  params.s = *s;
  const auto n = args.get_double("n", params.n);
  if (!n) return n.status();
  params.n = *n;
  const auto c = args.get_double("c", 1000.0);
  if (!c) return c.status();
  params.capacity_c = *c;
  const auto catalog = args.get_double("catalog", 1e6);
  if (!catalog) return catalog.status();
  params.catalog_n = *catalog;
  const auto alpha = args.get_double("alpha", 0.7);
  if (!alpha) return alpha.status();
  params.alpha = 1.0;  // calibrate against a valid alpha, then set
  params.cost.amortization = 1.0;
  if (Status st = params.validate(); !st.is_ok()) return st;
  params.cost.amortization = model::calibrate_amortization(params);
  params.alpha = *alpha;
  if (Status st = params.validate(); !st.is_ok()) return st;
  return params;
}

int cmd_optimize(const ArgParser& args) {
  const auto graph = load_topology(args, "topology", "us-a");
  if (!graph) return fail(graph.status());
  const auto params = build_params(args, *graph);
  if (!params) return fail(params.status());
  const auto strategy = model::optimize(*params);
  if (!strategy) return fail(strategy.status());
  const model::PerformanceModel perf(*params);
  const model::GainReport gains = model::compute_gains(perf, strategy->x_star);

  std::cout << "topology " << graph->name() << ": n=" << params->n
            << " gamma=" << format_double(params->latency.gamma(), 2)
            << " s=" << params->s << " alpha=" << params->alpha << "\n"
            << "l* = " << format_double(strategy->ell_star, 4) << "  (x* = "
            << format_double(strategy->x_star, 1) << " of "
            << params->capacity_c << " contents per router)\n"
            << "G_O = " << format_percent(gains.origin_load_reduction)
            << ", G_R = " << format_percent(gains.routing_improvement)
            << "\n";
  return 0;
}

int cmd_sweep(const ArgParser& args) {
  const auto figure = args.get_int("figure", 4);
  if (!figure) return fail(figure.status());
  const model::SystemParams base = model::SystemParams::paper_defaults();
  experiments::FigureData data;
  experiments::Metric metric = experiments::Metric::kEllStar;
  switch (*figure) {
    case 4:
    case 8:
    case 12:
      data = experiments::sweep_vs_alpha(base);
      break;
    case 5:
    case 9:
    case 13:
      data = experiments::sweep_vs_zipf(base);
      break;
    case 6:
    case 10:
      data = experiments::sweep_vs_routers(base);
      break;
    case 7:
    case 11:
      data = experiments::sweep_vs_unit_cost(base);
      break;
    default:
      return fail(Status(ErrorCode::kInvalidArgument,
                         "--figure must be 4..13"));
  }
  if (*figure >= 8 && *figure <= 11) {
    metric = experiments::Metric::kOriginGain;
  } else if (*figure >= 12) {
    metric = experiments::Metric::kRoutingGain;
  }
  experiments::print_series_table(data, metric, std::cout);
  if (args.has("csv")) {
    const std::string path = args.get("csv", "");
    std::ofstream out(path);
    if (!out) {
      return fail(Status(ErrorCode::kInvalidArgument,
                         "cannot open csv path " + path));
    }
    experiments::write_series_csv(data, out);
    std::cout << "CSV written to " << path << "\n";
  }
  return 0;
}

int cmd_simulate(const ArgParser& args) {
  const auto graph = load_topology(args, "topology", "geant");
  if (!graph) return fail(graph.status());
  sim::SimConfig config;
  const auto catalog = args.get_int("catalog", 20000);
  if (!catalog) return fail(catalog.status());
  if (*catalog < 1) {
    return fail(Status(ErrorCode::kInvalidArgument, "--catalog must be >= 1"));
  }
  config.network.catalog_size = static_cast<std::uint64_t>(*catalog);
  const auto capacity = args.get_int("c", 200);
  if (!capacity) return fail(capacity.status());
  if (*capacity < 1) {
    return fail(Status(ErrorCode::kInvalidArgument, "--c must be >= 1"));
  }
  config.network.capacity_c = static_cast<std::size_t>(*capacity);
  const auto x = args.get_int("x", 100);
  if (!x) return fail(x.status());
  if (*x < 0 || *x > *capacity) {
    return fail(Status(ErrorCode::kInvalidArgument,
                       "--x must be in [0, --c]"));
  }
  config.coordinated_x = static_cast<std::size_t>(*x);
  const auto requests = args.get_int("requests", 100000);
  if (!requests) return fail(requests.status());
  if (*requests < 1) {
    return fail(
        Status(ErrorCode::kInvalidArgument, "--requests must be >= 1"));
  }
  config.measured_requests = static_cast<std::uint64_t>(*requests);
  const auto s = args.get_double("s", 0.8);
  if (!s) return fail(s.status());
  if (*s <= 0.0) {
    return fail(Status(ErrorCode::kInvalidArgument, "--s must be > 0"));
  }
  config.zipf_s = *s;
  const auto seed = args.get_int("seed", 42);
  if (!seed) return fail(seed.status());
  config.seed = static_cast<std::uint64_t>(*seed);

  const bool want_trace = args.has("trace-out");
  const std::string trace_path = args.get("trace-out", "");
  const auto trace_sample = args.get_int("trace-sample", want_trace ? 100 : 0);
  if (!trace_sample) return fail(trace_sample.status());
  if (*trace_sample < 0) {
    return fail(Status(ErrorCode::kInvalidArgument,
                       "--trace-sample must be >= 0"));
  }
  config.trace_sample_k = static_cast<std::uint64_t>(*trace_sample);

  const bool want_timeline = args.has("timeline-out");
  const std::string timeline_path = args.get("timeline-out", "");
  const auto timeline_epoch =
      args.get_int("timeline-epoch", want_timeline ? 5000 : 0);
  if (!timeline_epoch) return fail(timeline_epoch.status());
  if (*timeline_epoch < 0 || (want_timeline && *timeline_epoch < 1)) {
    return fail(Status(ErrorCode::kInvalidArgument,
                       "--timeline-epoch must be >= 1"));
  }
  config.timeline_epoch = static_cast<std::uint64_t>(*timeline_epoch);

  const bool want_topo = args.has("topo-out");
  const std::string topo_path = args.get("topo-out", "");
  config.record_topo = want_topo;

  const std::string strategy_name = args.get("strategy", "coordinated-split");
  // Resolve through the registry so an unknown name fails with the full
  // list of registered strategies rather than an opaque error.
  const auto bundle = strategy::make_strategy(strategy_name);
  if (!bundle) return fail(bundle.status());
  config.network.strategy = strategy_name;
  // On-path strategies place copies through the local policy's admit(),
  // which a static partition never does.
  const bool on_path =
      bundle->data_plane().forwarding == strategy::ForwardingMode::kOnPath;

  const std::string policy = args.get("policy", on_path ? "lru" : "static");
  if (policy == "static") {
    if (on_path) {
      return fail(Status(ErrorCode::kInvalidArgument,
                         "--policy=static never admits, so --strategy=" +
                             strategy_name +
                             " would place no copy; use "
                             "--policy=lru|lfu|fifo|random"));
    }
    config.network.local_mode = sim::LocalStoreMode::kStaticTop;
  } else if (policy == "lru") {
    config.network.local_mode = sim::LocalStoreMode::kLru;
    config.warmup_requests = config.measured_requests / 2;
  } else if (policy == "lfu") {
    config.network.local_mode = sim::LocalStoreMode::kLfu;
    config.warmup_requests = config.measured_requests / 2;
  } else if (policy == "fifo") {
    config.network.local_mode = sim::LocalStoreMode::kFifo;
    config.warmup_requests = config.measured_requests / 2;
  } else if (policy == "random") {
    config.network.local_mode = sim::LocalStoreMode::kRandom;
    config.warmup_requests = config.measured_requests / 2;
  } else {
    return fail(Status(ErrorCode::kInvalidArgument,
                       "--policy must be static|lru|lfu|fifo|random"));
  }

  const auto replications = args.get_int("replications", 1);
  if (!replications) return fail(replications.status());
  if (*replications < 1 || *replications > 10000) {
    return fail(Status(ErrorCode::kInvalidArgument,
                       "--replications must be in [1, 10000]"));
  }
  const auto threads = parse_threads(args);
  if (!threads) return fail(threads.status());
  const auto shards = args.get_int("shards", 1);
  if (!shards) return fail(shards.status());
  if (*shards < 1 || *shards > 256) {
    return fail(Status(ErrorCode::kInvalidArgument,
                       "--shards must be in [1, 256]"));
  }
  config.shards = static_cast<std::size_t>(*shards);
  if (*replications > 1) {
    runtime::ThreadPool pool(*threads);
    const runtime::ReplicationRunner runner(pool);
    const runtime::ReplicationSummary summary = runner.run(
        *graph, config, static_cast<std::size_t>(*replications));
    std::cout << "topology " << graph->name() << ", policy " << policy
              << ", strategy " << strategy_name
              << ", x=" << config.coordinated_x << ", " << *replications
              << " replications (master seed " << config.seed << ", "
              << pool.thread_count() << " threads)\n";
    TextTable table({"metric", "mean", "stddev", "ci95 half-width"});
    const auto row = [&table](const char* name,
                              const runtime::MetricSummary& m) {
      table.add_row({name, format_double(m.mean, 4),
                     format_double(m.stddev, 4),
                     format_double(m.ci95_half_width, 4)});
    };
    row("mean_latency_ms", summary.mean_latency_ms);
    row("origin_load", summary.origin_load);
    row("local_fraction", summary.local_fraction);
    row("mean_hops", summary.mean_hops);
    table.print(std::cout);
    if (want_trace) {
      if (int trace_code = write_trace_out(trace_path, summary.traces)) {
        return trace_code;
      }
    }
    if (want_timeline) {
      if (int code = write_timeline_out(timeline_path, summary.timeline)) {
        return code;
      }
    }
    if (want_topo) {
      return write_topo_out(topo_path, summary.topo);
    }
    return 0;
  }

  sim::Simulation simulation(*graph, config);
  // Give the windowed engine real threads for the single-run case; pool
  // size tracks --threads so --shards=8 --threads=1 still means one core,
  // and --shards=1 starts no thread.
  runtime::ThreadPool pool(std::min(*threads, config.shards));
  runtime::ShardScheduler scheduler(pool);
  simulation.set_shard_executor(&scheduler);
  const sim::SimReport report = simulation.run();
  std::cout << "topology " << graph->name() << ", policy " << policy
            << ", strategy " << strategy_name
            << ", x=" << config.coordinated_x << "\n"
            << report << "\n"
            << "empirical tiers: d0^=" << format_double(report.mean_local_latency_ms, 2)
            << " d1^=" << format_double(report.mean_network_latency_ms, 2)
            << " d2^=" << format_double(report.mean_origin_latency_ms, 2)
            << " ms\n";
  if (want_trace) {
    if (int trace_code = write_trace_out(trace_path, simulation.traces())) {
      return trace_code;
    }
  }
  if (want_timeline) {
    if (int code = write_timeline_out(timeline_path, simulation.timeline())) {
      return code;
    }
  }
  if (want_topo) {
    return write_topo_out(topo_path, simulation.topo());
  }
  return 0;
}

int cmd_adaptive(const ArgParser& args) {
  const auto graph = load_topology(args, "topology", "geant");
  if (!graph) return fail(graph.status());
  const auto epochs = args.get_int("epochs", 6);
  if (!epochs) return fail(epochs.status());
  if (*epochs < 2 || *epochs > 64) {
    return fail(Status(ErrorCode::kInvalidArgument,
                       "--epochs must be in [2, 64]"));
  }
  experiments::AdaptiveLoopOptions options;
  options.requests_per_epoch = 30000;
  options.s_per_epoch.clear();
  for (int e = 0; e < *epochs; ++e) {
    options.s_per_epoch.push_back(
        0.6 + 0.8 * static_cast<double>(e) / static_cast<double>(*epochs - 1));
  }
  const auto result = experiments::run_adaptive_loop(*graph, options);
  if (!result) return fail(result.status());
  TextTable table({"epoch", "true s", "estimated", "l* set", "latency ms",
                   "static ms", "oracle ms"});
  for (const auto& epoch : result->epochs) {
    table.add_row({std::to_string(epoch.epoch),
                   format_double(epoch.true_s, 2),
                   format_double(epoch.estimated_s, 3),
                   format_double(epoch.ell_adaptive, 3),
                   format_double(epoch.latency_adaptive_ms, 2),
                   format_double(epoch.latency_static_ms, 2),
                   format_double(epoch.latency_oracle_ms, 2)});
  }
  table.print(std::cout);
  std::cout << "means: adaptive "
            << format_double(result->mean_latency_adaptive_ms, 2)
            << ", static " << format_double(result->mean_latency_static_ms, 2)
            << ", oracle " << format_double(result->mean_latency_oracle_ms, 2)
            << " ms\n";
  return 0;
}

int cmd_hetero(const ArgParser& args) {
  const auto capacities =
      model::parse_capacity_spec(args.get("capacities", "500x10,1500x10"));
  if (!capacities) return fail(capacities.status());
  model::HeterogeneousParams params;
  const auto alpha = args.get_double("alpha", 1.0);
  if (!alpha) return fail(alpha.status());
  params.alpha = *alpha;
  const auto s = args.get_double("s", 0.8);
  if (!s) return fail(s.status());
  params.s = *s;
  const auto catalog = args.get_double("catalog", 1e6);
  if (!catalog) return fail(catalog.status());
  params.catalog_n = *catalog;
  const auto gamma = args.get_double("gamma", 5.0);
  if (!gamma) return fail(gamma.status());
  params.latency = model::LatencyProfile::from_gamma(1.0, 2.2842, *gamma);
  params.cost = model::SystemParams::paper_defaults().cost;
  params.capacities = *capacities;
  if (Status st = params.validate(); !st.is_ok()) return fail(st);

  const model::HeterogeneousModel hetero(params);
  const auto uniform = hetero.optimize_uniform_level();
  if (!uniform) return fail(uniform.status());
  const auto equal = hetero.optimize_equal_coverage();
  if (!equal) return fail(equal.status());
  const auto descent = hetero.optimize_coordinate_descent();
  if (!descent) return fail(descent.status());

  std::cout << params.capacities.size()
            << " routers, heterogeneous capacities; baseline T(0) = "
            << format_double(hetero.baseline_performance(), 4) << "\n";
  TextTable table({"strategy", "objective", "coordination level"});
  table.add_row({"uniform level", format_double(uniform->objective, 5),
                 format_double(uniform->coordination_level(params), 4)});
  table.add_row({"equal coverage", format_double(equal->objective, 5),
                 format_double(equal->coordination_level(params), 4)});
  table.add_row({"coordinate descent", format_double(descent->objective, 5),
                 format_double(descent->coordination_level(params), 4)});
  table.print(std::cout);
  std::cout << "per-router plan (coordinate descent): x_i =";
  for (std::size_t i = 0; i < std::min<std::size_t>(descent->x.size(), 8);
       ++i) {
    std::cout << " " << format_double(descent->x[i], 1);
  }
  if (descent->x.size() > 8) std::cout << " ...";
  std::cout << "\n";
  return 0;
}

int cmd_regret(const ArgParser& args) {
  const auto graph = load_topology(args, "topology", "us-a");
  if (!graph) return fail(graph.status());
  const auto params = build_params(args, *graph);
  if (!params) return fail(params.status());
  const auto true_s = args.get_double("true-s", params->s);
  if (!true_s) return fail(true_s.status());
  const model::SystemParams truth = model::with_zipf(*params, *true_s);
  if (Status st = truth.validate(); !st.is_ok()) return fail(st);

  const auto curve =
      model::zipf_regret_curve(truth, model::linspace(0.2, 1.8, 33));
  if (!curve) return fail(curve.status());
  TextTable table({"believed s", "regret", "relative", "x believed",
                   "x true"});
  for (const auto& point : *curve) {
    table.add_row({format_double(point.believed_parameter, 2),
                   format_double(point.regret.absolute, 5),
                   format_percent(point.regret.relative, 2),
                   format_double(point.regret.x_believed, 0),
                   format_double(point.regret.x_true, 0)});
  }
  std::cout << "regret of provisioning with a believed Zipf exponent when "
               "the truth is s = "
            << *true_s << " (" << graph->name() << ")\n";
  table.print(std::cout);
  return 0;
}

int cmd_topology(const ArgParser& args) {
  topology::Graph graph("unset");
  if (args.has("load")) {
    const std::string path = args.get("load", "");
    std::ifstream in(path);
    if (!in) {
      return fail(Status(ErrorCode::kNotFound, "cannot open " + path));
    }
    auto parsed = topology::read_edge_list(in);
    if (!parsed) return fail(parsed.status());
    graph = *std::move(parsed);
  } else {
    auto loaded = load_topology(args, "name", "us-a");
    if (!loaded) return fail(loaded.status());
    graph = *std::move(loaded);
  }
  if (!graph.is_connected()) {
    return fail(Status(ErrorCode::kFailedPrecondition,
                       "topology is not connected"));
  }
  const topology::TopologyParameters derived =
      topology::derive_parameters(graph);
  std::cout << "topology " << graph.name() << ": " << derived.n
            << " routers, " << derived.directed_edges
            << " directed edges\n"
            << "w = " << format_double(derived.unit_cost_w_ms, 1)
            << " ms, d1-d0 = " << format_double(derived.mean_latency_ms, 1)
            << " ms / " << format_double(derived.mean_hops, 4)
            << " hops, diameter " << derived.diameter_hops << " hops\n";
  if (args.has("dot")) {
    const std::string path = args.get("dot", "");
    std::ofstream out(path);
    if (!out) return fail(Status(ErrorCode::kInvalidArgument,
                                 "cannot open " + path));
    topology::write_dot(graph, out);
    std::cout << "DOT written to " << path << "\n";
  }
  if (args.has("edges")) {
    const std::string path = args.get("edges", "");
    std::ofstream out(path);
    if (!out) return fail(Status(ErrorCode::kInvalidArgument,
                                 "cannot open " + path));
    topology::write_edge_list(graph, out);
    std::cout << "edge list written to " << path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = ArgParser::parse(argc, argv);
  if (!parsed) return fail(parsed.status());
  const ArgParser& args = *parsed;
  if (args.positional().empty()) return usage();
  const std::string command = args.positional().front();

  // Perfetto export needs per-occurrence span events, which are off by
  // default; turn recording on before any span opens.
  if (args.has("perfetto-out") || args.has("profile-out")) {
    obs::SpanProfiler::instance().set_event_recording(true);
  }

  int code = 0;
  if (command == "optimize") {
    code = cmd_optimize(args);
  } else if (command == "sweep") {
    code = cmd_sweep(args);
  } else if (command == "simulate") {
    code = cmd_simulate(args);
  } else if (command == "adaptive") {
    code = cmd_adaptive(args);
  } else if (command == "hetero") {
    code = cmd_hetero(args);
  } else if (command == "regret") {
    code = cmd_regret(args);
  } else if (command == "topology") {
    code = cmd_topology(args);
  } else if (command == "help" || command == "--help") {
    return usage();
  } else {
    std::cerr << "unknown subcommand '" << command << "'\n";
    return usage(), 1;
  }
  // A failed subcommand ran nothing worth exporting. Any failure stops
  // before the later flags are read, so then only a flag that no
  // subcommand reads is surely misspelled.
  if (code == 0) code = write_obs_outputs(args);
  for (const std::string& key : args.unused_keys()) {
    if (code != 0 && is_known_option(key)) continue;
    std::cerr << "warning: unused option --" << key << "\n";
  }
  return code;
}
