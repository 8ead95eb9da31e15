// Strategy arena bench: every registered caching strategy head-to-head on
// the default topology roster (four embedded datasets + grid + Waxman),
// same seeded workload per topology so the comparison is paired. Prints
// per-topology comparison tables and writes the machine-readable
// ARENA_results.{json,csv} (schema ccnopt-arena-v1, validated by
// tools/check_bench_json.py) next to the BENCH_arena.json record, plus
// one TOPO_arena_<topology>_<strategy>.json flight-recorder export
// (ccnopt-topo-v1) per cell for tools/render_topo.py heatmaps.
//
// Steady state is detected, not asserted: by default each cell runs its
// whole warmup+measured budget through the sliding-window convergence
// detector (sim::run_to_steady_state) and reports the post-convergence
// epochs, with a per-strategy "steady after req" column;
// --fixed-warmup restores the hard-coded split.
//
// Usage: bench_arena [--measured R] [--warmup R] [--catalog N]
//                    [--capacity C] [--x X] [--threads T] [--seed S]
//                    [--strategies a,b,c] [--fixed-warmup]
#include <algorithm>
#include <cctype>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "ccnopt/common/args.hpp"
#include "ccnopt/experiments/arena.hpp"
#include "ccnopt/obs/topo.hpp"
#include "ccnopt/runtime/thread_pool.hpp"
#include "ccnopt/strategy/registry.hpp"

namespace {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> parts;
  std::stringstream stream(text);
  std::string part;
  while (std::getline(stream, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

// "US-A" / "coordinated-split" -> filename-safe lowercase slug.
std::string slug(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else {
      out.push_back('-');
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ccnopt;
  experiments::ArenaOptions options;
  ArgReader args(argc, argv);
  options.measured_requests = args.count("measured", 100000);
  options.warmup_requests = args.count("warmup", 100000);
  options.catalog_size = args.count("catalog", options.catalog_size);
  options.capacity_c = args.count("capacity", options.capacity_c);
  options.coordinated_x = args.count("x", options.coordinated_x);
  options.seed = args.count("seed", options.seed);
  std::size_t threads = args.count(
      "threads", std::min<std::size_t>(
                     8, std::max<std::size_t>(
                            2, std::thread::hardware_concurrency())));
  options.strategies = split_csv(args.text("strategies", ""));
  options.detect_steady_state = !args.flag("fixed-warmup");
  if (!args.finish()) return 2;
  if (threads == 0) threads = 1;

  // Validate requested strategies up front with the registry's own error
  // message (it lists every registered name).
  for (const std::string& name : options.strategies) {
    const auto bundle = strategy::make_strategy(name);
    if (!bundle) {
      std::cerr << "bench_arena: " << bundle.status().to_string() << "\n";
      return 2;
    }
  }

  bench::BenchReporter reporter("arena");
  std::cout << "=== Strategy arena (N=" << options.catalog_size
            << ", c=" << options.capacity_c << ", x=" << options.coordinated_x
            << ", s=" << options.zipf_s << ", "
            << options.measured_requests << " measured requests) ===\n\n";

  runtime::ThreadPool pool(threads);
  const bench::WallTimer timer;
  const experiments::ArenaResult result =
      experiments::run_arena(options, &pool);
  reporter.add_timing_ms("arena_ms", timer.elapsed_ms());

  experiments::print_arena_tables(result, std::cout);
  experiments::record_arena_metrics(result);

  const char* dir_env = std::getenv("CCNOPT_BENCH_DIR");
  const std::string dir = dir_env && *dir_env ? dir_env : ".";
  int code = 0;
  {
    const std::string path = dir + "/ARENA_results.json";
    std::ofstream out(path);
    if (out) experiments::write_arena_json(result, out);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      code = 1;
    } else {
      std::cout << "\narena JSON written to " << path << "\n";
    }
  }
  {
    const std::string path = dir + "/ARENA_results.csv";
    std::ofstream out(path);
    if (out) experiments::write_arena_csv(result, out);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      code = 1;
    } else {
      std::cout << "arena CSV written to " << path << "\n";
    }
  }
  // Per-cell flight-recorder exports (ccnopt-topo-v1), one per
  // strategy x topology, so heatmaps come straight from the arena:
  //   tools/render_topo.py TOPO_arena_geant_lcd.json --out geant_lcd.dot
  {
    std::size_t written = 0;
    for (const experiments::ArenaCell& cell : result.cells) {
      const std::string path = dir + "/TOPO_arena_" + slug(cell.topology) +
                               "_" + slug(cell.strategy) + ".json";
      std::ofstream out(path);
      if (out) obs::write_topo_json(out, cell.topo);
      if (!out) {
        std::cerr << "cannot write " << path << "\n";
        code = 1;
      } else {
        ++written;
      }
    }
    std::cout << "arena topo telemetry written to " << dir << "/TOPO_arena_*"
              << ".json (" << written << " cells)\n";
  }

  reporter.set_output("strategies", result.strategies.size());
  reporter.set_output("topologies", result.topologies.size());
  reporter.set_output("cells", result.cells.size());
  reporter.set_output("threads", threads);
  reporter.set_output("catalog_size", options.catalog_size);
  reporter.set_output("detect_steady_state", options.detect_steady_state);
  if (options.detect_steady_state) {
    std::size_t converged = 0;
    std::uint64_t max_steady = 0;
    for (const experiments::ArenaCell& cell : result.cells) {
      if (cell.converged) ++converged;
      max_steady = std::max(max_steady, cell.steady_state_requests);
    }
    reporter.set_output("converged_cells", converged);
    reporter.set_output("max_steady_state_requests", max_steady);
  }

  // The arena's whole point is breadth: a run that compares fewer than 5
  // strategies or 4 topologies is a configuration error, not a result.
  if (result.strategies.size() < 5 || result.topologies.size() < 4) {
    std::cerr << "bench_arena: expected >= 5 strategies and >= 4 topologies, "
              << "got " << result.strategies.size() << " x "
              << result.topologies.size() << "\n";
    code = 1;
  }
  return reporter.finish(code);
}
