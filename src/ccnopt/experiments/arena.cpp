#include "ccnopt/experiments/arena.hpp"

#include <algorithm>
#include <ostream>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/common/random.hpp"
#include "ccnopt/common/strings.hpp"
#include "ccnopt/common/table.hpp"
#include "ccnopt/obs/export.hpp"
#include "ccnopt/obs/registry.hpp"
#include "ccnopt/runtime/thread_pool.hpp"
#include "ccnopt/sim/steady_state.hpp"
#include "ccnopt/strategy/registry.hpp"
#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/generators.hpp"

namespace ccnopt::experiments {
namespace {

ArenaCell run_cell(const ArenaOptions& options, const topology::Graph& graph,
                   const std::string& strategy) {
  sim::SimConfig config;
  config.network.catalog_size = options.catalog_size;
  config.network.capacity_c = options.capacity_c;
  config.network.local_mode = options.local_mode;
  config.network.strategy = strategy;
  config.network.seed = options.seed;
  config.coordinated_x = options.coordinated_x;
  config.zipf_s = options.zipf_s;
  config.warmup_requests = options.warmup_requests;
  config.measured_requests = options.measured_requests;
  config.seed = options.seed;
  config.record_topo = true;

  ArenaCell cell;
  cell.strategy = strategy;
  cell.topology = graph.name();
  cell.routers = graph.node_count();
  const auto summarize_topo = [&cell](const obs::TopoRecorder& topo) {
    cell.placements = topo.total_placements();
    cell.mean_placement_depth = topo.mean_placement_depth();
    cell.placement_depths = topo.placement_depths();
    cell.link_traversals = topo.total_link_traversals();
    cell.max_link_load = topo.max_link_load();
    cell.topo = topo;
  };
  if (options.detect_steady_state) {
    config.timeline_epoch = options.timeline_epoch;
    const sim::SteadyStateRun run = sim::run_to_steady_state(
        graph, std::move(config), options.steady_options);
    cell.report = run.report;
    cell.converged = run.steady.converged;
    cell.steady_state_epoch = run.measured_from_epoch;
    cell.steady_state_requests = run.steady_state_requests;
    summarize_topo(run.topo);
  } else {
    sim::Simulation simulation(graph, std::move(config));
    cell.report = simulation.run();
    summarize_topo(simulation.topo());
  }
  return cell;
}

}  // namespace

std::vector<topology::Graph> default_arena_topologies(std::uint64_t seed) {
  std::vector<topology::Graph> roster = topology::all_datasets();
  roster.push_back(topology::make_grid(6, 6));
  Rng rng(derive_seed(seed, 0xA12E7A));
  roster.push_back(topology::make_waxman(32, rng));
  return roster;
}

ArenaResult run_arena(const ArenaOptions& options,
                      runtime::ThreadPool* pool) {
  ArenaResult result;
  result.options = options;
  result.strategies = options.strategies.empty() ? strategy::strategy_names()
                                                 : options.strategies;
  for (const std::string& name : result.strategies) {
    const std::vector<std::string> known = strategy::strategy_names();
    CCNOPT_EXPECTS(std::find(known.begin(), known.end(), name) != known.end());
  }
  result.options.strategies = result.strategies;
  const std::vector<topology::Graph> roster =
      options.topologies.empty() ? default_arena_topologies(options.seed)
                                 : options.topologies;
  CCNOPT_EXPECTS(!roster.empty());
  for (const topology::Graph& graph : roster) {
    result.topologies.push_back(graph.name());
  }

  // Topology-major, as ArenaResult::cells documents.
  const std::size_t strategy_count = result.strategies.size();
  result.cells.resize(roster.size() * strategy_count);
  runtime::ThreadPool serial(1);
  runtime::ThreadPool& workers = pool != nullptr ? *pool : serial;
  workers.run(result.cells.size(), [&](std::size_t i) {
    result.cells[i] = run_cell(result.options, roster[i / strategy_count],
                               result.strategies[i % strategy_count]);
  });
  return result;
}

void print_arena_tables(const ArenaResult& result, std::ostream& out) {
  const std::size_t strategy_count = result.strategies.size();
  const bool detected = result.options.detect_steady_state;
  for (std::size_t t = 0; t < result.topologies.size(); ++t) {
    const ArenaCell& first = result.cells[t * strategy_count];
    out << "--- " << result.topologies[t] << " (" << first.routers
        << " routers) ---\n";
    std::vector<std::string> header{"strategy", "hit ratio", "local frac",
                                    "network frac", "origin load",
                                    "mean latency ms", "mean hops",
                                    "coord msgs", "placements", "mean depth",
                                    "max link load"};
    if (detected) header.push_back("steady after req");
    TextTable table(header);
    for (std::size_t s = 0; s < strategy_count; ++s) {
      const ArenaCell& cell = result.cells[t * strategy_count + s];
      const sim::SimReport& report = cell.report;
      std::vector<std::string> row{
          cell.strategy,
          format_double(1.0 - report.origin_load, 4),
          format_double(report.local_fraction, 4),
          format_double(report.network_fraction, 4),
          format_double(report.origin_load, 4),
          format_double(report.mean_latency_ms, 2),
          format_double(report.mean_hops, 3),
          std::to_string(report.coordination_messages),
          std::to_string(cell.placements),
          format_double(cell.mean_placement_depth, 3),
          std::to_string(cell.max_link_load)};
      if (detected) {
        // "~" marks the not-converged fallback (second half of the run).
        row.push_back(std::to_string(cell.steady_state_requests) +
                      (cell.converged ? "" : " ~"));
      }
      table.add_row(std::move(row));
    }
    table.print(out);
    out << "\n";

    // Where along the delivery path each strategy leaves copies: the
    // fraction of its placements at each hop distance from the requester.
    // This is the LCD-vs-LCE signature — LCE smears mass over the whole
    // path, LCD keeps it one hop below the serving point.
    std::size_t max_depth = 0;
    for (std::size_t s = 0; s < strategy_count; ++s) {
      max_depth = std::max(
          max_depth,
          result.cells[t * strategy_count + s].placement_depths.size());
    }
    if (max_depth > 0) {
      out << "--- " << result.topologies[t]
          << ": placement-depth distribution (fraction of placements at "
             "d hops from the requester) ---\n";
      std::vector<std::string> depth_header{"strategy", "placements"};
      for (std::size_t d = 0; d < max_depth; ++d) {
        depth_header.push_back("d=" + std::to_string(d));
      }
      TextTable depths(depth_header);
      for (std::size_t s = 0; s < strategy_count; ++s) {
        const ArenaCell& cell = result.cells[t * strategy_count + s];
        std::vector<std::string> row{cell.strategy,
                                     std::to_string(cell.placements)};
        for (std::size_t d = 0; d < max_depth; ++d) {
          const std::uint64_t count = d < cell.placement_depths.size()
                                          ? cell.placement_depths[d]
                                          : 0;
          row.push_back(cell.placements == 0
                            ? "-"
                            : format_double(static_cast<double>(count) /
                                                static_cast<double>(
                                                    cell.placements),
                                            3));
        }
        depths.add_row(std::move(row));
      }
      depths.print(out);
      out << "\n";
    }
  }

  out << "--- origin load across topologies (lower is better) ---\n";
  std::vector<std::string> header{"strategy"};
  header.insert(header.end(), result.topologies.begin(),
                result.topologies.end());
  TextTable summary(header);
  for (std::size_t s = 0; s < strategy_count; ++s) {
    std::vector<std::string> row{result.strategies[s]};
    for (std::size_t t = 0; t < result.topologies.size(); ++t) {
      row.push_back(format_double(
          result.cells[t * strategy_count + s].report.origin_load, 4));
    }
    summary.add_row(std::move(row));
  }
  summary.print(out);
}

namespace {

void write_cell_json(const ArenaCell& cell, std::ostream& out,
                     const char* indent) {
  const sim::SimReport& report = cell.report;
  out << indent << "{\n"
      << indent << "  \"strategy\": \"" << obs::json_escape(cell.strategy)
      << "\",\n"
      << indent << "  \"topology\": \"" << obs::json_escape(cell.topology)
      << "\",\n"
      << indent << "  \"routers\": " << cell.routers << ",\n"
      << indent << "  \"total_requests\": " << report.total_requests << ",\n"
      << indent << "  \"hit_ratio\": "
      << obs::json_number(1.0 - report.origin_load) << ",\n"
      << indent << "  \"local_fraction\": "
      << obs::json_number(report.local_fraction) << ",\n"
      << indent << "  \"network_fraction\": "
      << obs::json_number(report.network_fraction) << ",\n"
      << indent << "  \"origin_load\": " << obs::json_number(report.origin_load)
      << ",\n"
      << indent << "  \"mean_latency_ms\": "
      << obs::json_number(report.mean_latency_ms) << ",\n"
      << indent << "  \"mean_hops\": " << obs::json_number(report.mean_hops)
      << ",\n"
      << indent << "  \"mean_local_latency_ms\": "
      << obs::json_number(report.mean_local_latency_ms) << ",\n"
      << indent << "  \"mean_network_latency_ms\": "
      << obs::json_number(report.mean_network_latency_ms) << ",\n"
      << indent << "  \"mean_origin_latency_ms\": "
      << obs::json_number(report.mean_origin_latency_ms) << ",\n"
      << indent << "  \"coordination_messages\": "
      << report.coordination_messages << ",\n"
      << indent << "  \"converged\": " << (cell.converged ? "true" : "false")
      << ",\n"
      << indent << "  \"steady_state_epoch\": " << cell.steady_state_epoch
      << ",\n"
      << indent << "  \"steady_state_requests\": "
      << cell.steady_state_requests << ",\n"
      << indent << "  \"placements\": " << cell.placements << ",\n"
      << indent << "  \"mean_placement_depth\": "
      << obs::json_number(cell.mean_placement_depth) << ",\n"
      << indent << "  \"placement_depths\": [";
  for (std::size_t d = 0; d < cell.placement_depths.size(); ++d) {
    out << (d ? ", " : "") << cell.placement_depths[d];
  }
  out << "],\n"
      << indent << "  \"link_traversals\": " << cell.link_traversals << ",\n"
      << indent << "  \"max_link_load\": " << cell.max_link_load << "\n"
      << indent << "}";
}

void write_string_array(const std::vector<std::string>& values,
                        std::ostream& out) {
  out << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i ? ", " : "") << "\"" << obs::json_escape(values[i]) << "\"";
  }
  out << "]";
}

}  // namespace

void write_arena_json(const ArenaResult& result, std::ostream& out) {
  const ArenaOptions& options = result.options;
  out << "{\n  \"schema\": \"ccnopt-arena-v1\",\n  \"config\": {\n"
      << "    \"catalog_size\": " << options.catalog_size << ",\n"
      << "    \"capacity_c\": " << options.capacity_c << ",\n"
      << "    \"coordinated_x\": " << options.coordinated_x << ",\n"
      << "    \"zipf_s\": " << obs::json_number(options.zipf_s) << ",\n"
      << "    \"warmup_requests\": " << options.warmup_requests << ",\n"
      << "    \"measured_requests\": " << options.measured_requests << ",\n"
      << "    \"local_mode\": \"" << sim::to_string(options.local_mode)
      << "\",\n"
      << "    \"seed\": " << options.seed << ",\n"
      << "    \"detect_steady_state\": "
      << (options.detect_steady_state ? "true" : "false") << ",\n"
      << "    \"timeline_epoch\": " << options.timeline_epoch << "\n  },\n"
      << "  \"strategies\": ";
  write_string_array(result.strategies, out);
  out << ",\n  \"topologies\": ";
  write_string_array(result.topologies, out);
  out << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    write_cell_json(result.cells[i], out, "    ");
    out << (i + 1 < result.cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

void write_arena_csv(const ArenaResult& result, std::ostream& out) {
  out << "topology,strategy,routers,total_requests,hit_ratio,local_fraction,"
         "network_fraction,origin_load,mean_latency_ms,mean_hops,"
         "mean_local_latency_ms,mean_network_latency_ms,"
         "mean_origin_latency_ms,coordination_messages,converged,"
         "steady_state_epoch,steady_state_requests,placements,"
         "mean_placement_depth,link_traversals,max_link_load\n";
  for (const ArenaCell& cell : result.cells) {
    const sim::SimReport& report = cell.report;
    out << cell.topology << "," << cell.strategy << "," << cell.routers << ","
        << report.total_requests << ","
        << obs::json_number(1.0 - report.origin_load) << ","
        << obs::json_number(report.local_fraction) << ","
        << obs::json_number(report.network_fraction) << ","
        << obs::json_number(report.origin_load) << ","
        << obs::json_number(report.mean_latency_ms) << ","
        << obs::json_number(report.mean_hops) << ","
        << obs::json_number(report.mean_local_latency_ms) << ","
        << obs::json_number(report.mean_network_latency_ms) << ","
        << obs::json_number(report.mean_origin_latency_ms) << ","
        << report.coordination_messages << ","
        << (cell.converged ? 1 : 0) << "," << cell.steady_state_epoch << ","
        << cell.steady_state_requests << "," << cell.placements << ","
        << obs::json_number(cell.mean_placement_depth) << ","
        << cell.link_traversals << "," << cell.max_link_load << "\n";
  }
}

void record_arena_metrics(const ArenaResult& result) {
  obs::MetricsRegistry& registry = obs::metrics();
  for (const ArenaCell& cell : result.cells) {
    const std::string prefix = "arena." + cell.topology + "." + cell.strategy;
    registry.set_gauge(prefix + ".hit_ratio", 1.0 - cell.report.origin_load);
    registry.set_gauge(prefix + ".origin_load", cell.report.origin_load);
    registry.set_gauge(prefix + ".mean_latency_ms",
                       cell.report.mean_latency_ms);
    registry.set_gauge(prefix + ".coordination_messages",
                       static_cast<double>(cell.report.coordination_messages));
    registry.set_gauge(prefix + ".mean_placement_depth",
                       cell.mean_placement_depth);
    registry.set_gauge(prefix + ".max_link_load",
                       static_cast<double>(cell.max_link_load));
  }
}

}  // namespace ccnopt::experiments
