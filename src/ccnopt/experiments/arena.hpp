// Head-to-head strategy arena: every registered caching strategy runs the
// same seeded workload on every topology in the roster, producing a
// cells = strategies x topologies comparison of hit ratio, latency tiers,
// origin load and coordination messages. Exported as the machine-readable
// `ccnopt-arena-v1` JSON/CSV (validated by tools/check_bench_json.py) and
// as aligned console tables; driven by bench/bench_arena.cpp.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ccnopt/obs/timeline.hpp"
#include "ccnopt/obs/topo.hpp"
#include "ccnopt/sim/simulation.hpp"
#include "ccnopt/topology/graph.hpp"

namespace ccnopt::runtime {
class ThreadPool;
}

namespace ccnopt::experiments {

struct ArenaOptions {
  /// Strategy names to race; empty = every registered strategy. Unknown
  /// names are a precondition violation — validate against
  /// strategy::strategy_names() before calling run_arena.
  std::vector<std::string> strategies;
  /// Topology roster; empty = default_arena_topologies(seed).
  std::vector<topology::Graph> topologies;
  std::uint64_t catalog_size = 20000;
  std::size_t capacity_c = 200;
  /// Per-router coordinated amount offered to each strategy (uncoordinated
  /// strategies ignore it; coordinated ones split capacity as c - x / x).
  std::size_t coordinated_x = 100;
  double zipf_s = 0.8;
  std::uint64_t warmup_requests = 100000;
  std::uint64_t measured_requests = 100000;
  sim::LocalStoreMode local_mode = sim::LocalStoreMode::kLru;
  /// Every cell of one arena run uses this same seed, so strategies face
  /// identical request sequences per topology (paired comparison).
  std::uint64_t seed = 42;
  /// Detected-convergence mode: instead of the hard-coded warmup/measured
  /// split, each cell runs its whole request budget (warmup + measured)
  /// through sim::run_to_steady_state and reports the post-convergence
  /// epochs only, with per-cell convergence columns. Off by default so the
  /// fixed-split semantics stay available for A/B comparisons;
  /// bench_arena turns it on.
  bool detect_steady_state = false;
  /// Requests per timeline epoch in detection mode; 0 = total/64.
  std::uint64_t timeline_epoch = 0;
  /// Convergence tolerance of the per-epoch origin-load series.
  obs::SteadyStateOptions steady_options;
};

struct ArenaCell {
  std::string strategy;
  std::string topology;
  std::size_t routers = 0;
  sim::SimReport report;
  /// Detection-mode fields (all zero when ArenaOptions::detect_steady_state
  /// is off): whether the origin-load series converged, the first measured
  /// epoch, and the number of requests discarded as detected warmup.
  bool converged = false;
  std::uint64_t steady_state_epoch = 0;
  std::uint64_t steady_state_requests = 0;
  /// Topology-resolved summary of the cell's run (every cell runs with
  /// SimConfig::record_topo): how many copies the strategy's insertion
  /// rule actually placed, where along the delivery path it put them
  /// (placement_depths[d] = copies d hops from the requester; LCE smears
  /// mass across the path, LCD concentrates it one hop below the serving
  /// point), and how hot the busiest link ran.
  std::uint64_t placements = 0;
  double mean_placement_depth = 0.0;
  std::vector<std::uint64_t> placement_depths;
  std::uint64_t link_traversals = 0;
  std::uint64_t max_link_load = 0;
  /// The cell's full flight recorder, for per-cell ccnopt-topo-v1 exports
  /// (bench_arena writes one TOPO_arena_* file per cell; render_topo.py
  /// turns them into heatmaps).
  obs::TopoRecorder topo;
};

struct ArenaResult {
  ArenaOptions options;            // resolved (strategies never empty)
  std::vector<std::string> strategies;
  std::vector<std::string> topologies;
  /// Topology-major: cells[t * strategies.size() + s].
  std::vector<ArenaCell> cells;
};

/// The default roster: the four embedded datasets (Table II) plus a 6x6
/// grid and a 32-node Waxman graph drawn from `seed`, so the comparison
/// covers both real backbones and synthetic extremes.
std::vector<topology::Graph> default_arena_topologies(std::uint64_t seed);

/// Runs the full cross product on `pool` (null: on the calling thread).
/// Each cell is an independent Simulation written to its own slot, so the
/// result is the same at any thread count.
ArenaResult run_arena(const ArenaOptions& options,
                      runtime::ThreadPool* pool = nullptr);

/// Per-topology comparison tables plus a cross-topology origin-load
/// summary, rendered with TextTable alignment.
void print_arena_tables(const ArenaResult& result, std::ostream& out);

/// Machine-readable export, schema "ccnopt-arena-v1".
void write_arena_json(const ArenaResult& result, std::ostream& out);
void write_arena_csv(const ArenaResult& result, std::ostream& out);

/// Publishes per-cell gauges "arena.<topology>.<strategy>.<metric>" into
/// obs::metrics(), so arena outcomes ride the standard registry exports.
void record_arena_metrics(const ArenaResult& result);

}  // namespace ccnopt::experiments
