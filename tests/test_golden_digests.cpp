// Golden digests of whole simulator runs. Every cell below is one fixed
// configuration; its run is reduced to a single FNV-1a-64 digest over the
// exact bytes of every export — the SimReport field bit patterns, the
// sampled-trace JSON, the obs::metrics() registry JSON, the timeline and
// topo JSON, and the per-link loads — and compared against the committed
// line in tests/golden/digests.txt. Unlike a pairwise A/B, a change that
// moves two engines together still moves the digest.
//
// Each simulation cell is checked three ways against the same digest:
// shards = 1, shards = S on a SerialShardExecutor, and shards = S on a
// pooled runtime::ShardScheduler (S = 4 unless the cell says otherwise).
// Cells that qualify are served router-major at every S, one included;
// the rest are served on one shard in emission order at every S, and must
// reproduce the same bytes. Interest aggregation cells take either path,
// with each router's fetches in flight carried across windows.
// Replication cells run through runtime::ReplicationRunner on 1 and on 8
// threads.
//
// On a mismatch the failure prints the cell name and its new line in the
// data file's format. An intentional output change is therefore a
// reviewed one-line diff of tests/golden/digests.txt; there is no update
// flag.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ccnopt/cache/lru.hpp"
#include "ccnopt/obs/export.hpp"
#include "ccnopt/obs/registry.hpp"
#include "ccnopt/obs/timeline.hpp"
#include "ccnopt/obs/topo.hpp"
#include "ccnopt/obs/trace.hpp"
#include "ccnopt/runtime/replication_runner.hpp"
#include "ccnopt/runtime/shard_scheduler.hpp"
#include "ccnopt/runtime/thread_pool.hpp"
#include "ccnopt/sim/sharded.hpp"
#include "ccnopt/sim/simulation.hpp"
#include "ccnopt/sim/workload.hpp"
#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/generators.hpp"
#include "golden.hpp"

namespace ccnopt::sim {
namespace {

using golden::Fnv1a;
using golden::hex;

void hash_report(Fnv1a& hash, const SimReport& report) {
  hash.u64(report.total_requests);
  hash.u64(report.aggregated_requests);
  hash.u64(report.upstream_fetches);
  hash.f64(report.local_fraction);
  hash.f64(report.network_fraction);
  hash.f64(report.origin_load);
  hash.f64(report.mean_latency_ms);
  hash.f64(report.mean_hops);
  hash.f64(report.mean_local_latency_ms);
  hash.f64(report.mean_network_latency_ms);
  hash.f64(report.mean_origin_latency_ms);
  hash.u64(report.coordination_messages);
}

/// Hashes the exports every run shares: traces, the global registry, and
/// (when enabled, else an empty string) the timeline and topo recorder.
void hash_exports(Fnv1a& hash, const obs::TraceBuffer& traces,
                  const obs::Timeline& timeline,
                  const obs::TopoRecorder& topo) {
  std::ostringstream trace_json;
  obs::write_traces_json(trace_json, traces);
  hash.bytes(trace_json.str());
  std::ostringstream registry_json;
  obs::write_registry_json(registry_json, obs::metrics().snapshot(), 0);
  hash.bytes(registry_json.str());
  std::ostringstream timeline_json;
  if (timeline.enabled()) obs::write_timeline_json(timeline_json, timeline);
  hash.bytes(timeline_json.str());
  std::ostringstream topo_json;
  if (topo.enabled()) obs::write_topo_json(topo_json, topo);
  hash.bytes(topo_json.str());
}

using WorkloadFactory =
    std::function<std::unique_ptr<Workload>(const topology::Graph&)>;

struct Cell {
  std::string name;
  std::string topology;  // a dataset name, or "waxman150"
  SimConfig config;
  WorkloadFactory workload;  // empty: the default Zipf workload
  std::size_t shards = 4;    // shard count of the two sharded runs
  std::size_t replications = 0;  // > 0: a ReplicationRunner cell
  std::vector<topology::NodeId> failed;  // routers failed before run()
};

/// The cell's graph: a Table II dataset, or a fixed 150-node Waxman graph
/// (large-n routing, far past the datasets' 20-40 routers).
topology::Graph cell_graph(const std::string& name) {
  if (name == "waxman150") {
    Rng rng(150);
    return topology::make_waxman(150, rng);
  }
  return *topology::dataset_by_name(name);
}

/// The default Zipf workload with some routers silenced: failed routers
/// must not originate requests.
class InactiveRoutersWorkload final : public Workload {
 public:
  InactiveRoutersWorkload(const topology::Graph& graph, const SimConfig& config,
                          std::vector<topology::NodeId> inactive)
      : zipf_(graph.node_count(), config.network.catalog_size, config.zipf_s,
              config.seed, config.sampler_kind),
        inactive_(std::move(inactive)) {}

  cache::ContentId next(std::size_t router) override {
    return zipf_.next(router);
  }
  std::uint64_t catalog_size() const override { return zipf_.catalog_size(); }
  bool active(std::size_t router) const override {
    return std::find(inactive_.begin(), inactive_.end(), router) ==
           inactive_.end();
  }
  bool per_router_streams() const override { return true; }

 private:
  ZipfWorkload zipf_;
  std::vector<topology::NodeId> inactive_;
};

/// A globally coupled workload: every router draws from one shared stream,
/// skewed toward low ranks (rank = 1 + floor(2000 u^3)).
class SharedStreamWorkload final : public Workload {
 public:
  cache::ContentId next(std::size_t) override {
    const double u = rng_.uniform();
    return 1 + static_cast<std::uint64_t>(2000.0 * u * u * u) % 2000;
  }
  std::uint64_t catalog_size() const override { return 2000; }

 private:
  Rng rng_{7};
};

/// The shared base of every cell (the sharded-engine suite's historical
/// configuration): LRU, every export on, x = 25.
SimConfig base_config() {
  SimConfig config;
  config.network.catalog_size = 2000;
  config.network.capacity_c = 50;
  config.network.local_mode = LocalStoreMode::kLru;
  config.network.track_link_load = true;
  config.coordinated_x = 25;
  config.zipf_s = 0.8;
  config.warmup_requests = 3000;
  config.measured_requests = 12000;
  config.seed = 20240806;
  config.trace_sample_k = 64;
  config.timeline_epoch = 1000;
  config.record_topo = true;
  return config;
}

std::string cell_token(std::string text) {
  for (char& c : text) {
    if (c == '-') c = '_';
  }
  return text;
}

std::vector<Cell> make_cells() {
  std::vector<Cell> cells;
  const auto add = [&cells](std::string name, std::string topology,
                            SimConfig config) -> Cell& {
    cells.push_back(Cell{std::move(name), std::move(topology),
                         std::move(config), {}, 4, 0, {}});
    return cells.back();
  };

  // Base matrix: the Table II topologies x {static, LRU} x {x = 0, 25}.
  for (const char* topology : {"abilene", "cernet", "geant", "us-a"}) {
    for (const LocalStoreMode mode :
         {LocalStoreMode::kStaticTop, LocalStoreMode::kLru}) {
      for (const std::size_t x : {std::size_t{0}, std::size_t{25}}) {
        SimConfig config = base_config();
        config.network.local_mode = mode;
        config.coordinated_x = x;
        add(cell_token(topology) + "_" + cell_token(to_string(mode)) + "_x" +
                std::to_string(x),
            topology, config);
      }
    }
  }

  // Edge cells.
  {
    SimConfig config = base_config();
    config.interest_aggregation = true;
    add("edge_interest_aggregation", "us-a", config);
  }
  {
    SimConfig config = base_config();
    config.network.strategy = "lcd";
    add("edge_lcd_on_path", "us-a", config);
  }
  {
    SimConfig config = base_config();
    config.network.allow_peer_local_fetch = true;
    add("edge_peer_local_fetch", "us-a", config);
  }
  add("edge_drifting_zipf", "us-a", base_config()).workload =
      [](const topology::Graph& graph) {
        std::vector<DriftingZipfWorkload::Phase> schedule;
        schedule.push_back({0, 0.6});
        schedule.push_back({4000, 1.1});
        schedule.push_back({9000, 0.8});
        return std::make_unique<DriftingZipfWorkload>(
            graph.node_count(), 2000, schedule, 20240806);
      };
  add("edge_sliding_zipf", "geant", base_config()).workload =
      [](const topology::Graph& graph) {
        return std::make_unique<SlidingZipfWorkload>(graph.node_count(), 2000,
                                                     0.8, 500, 40, 20240806);
      };
  // Forced membership indexes at a catalog where the sparse index matters.
  for (const LocalStoreMode mode :
       {LocalStoreMode::kLru, LocalStoreMode::kLfu, LocalStoreMode::kFifo}) {
    for (const cache::IndexMode index :
         {cache::IndexMode::kDense, cache::IndexMode::kSparse}) {
      SimConfig config = base_config();
      config.network.catalog_size = 50000;
      config.network.local_mode = mode;
      config.network.cache_index_mode = index;
      add(std::string("edge_index_") +
              (index == cache::IndexMode::kDense ? "dense" : "sparse") + "_" +
              to_string(mode),
          "us-a", config);
    }
  }
  {
    // 5 requests under 64 shards: more shards than requests and routers.
    SimConfig config = base_config();
    config.warmup_requests = 2;
    config.measured_requests = 3;
    config.timeline_epoch = 2;
    add("edge_shards_exceed_routers", "abilene", config).shards = 64;
  }
  {
    // 10007 requests (prime): ragged windows and per-shard counts.
    SimConfig config = base_config();
    config.warmup_requests = 2003;
    config.measured_requests = 8004;
    add("edge_ragged_request_count", "us-a", config);
  }
  {
    // A 7-request epoch never aligns with any block or window size.
    SimConfig config = base_config();
    config.warmup_requests = 1000;
    config.measured_requests = 5003;
    config.timeline_epoch = 7;
    add("edge_timeline_epoch_7", "geant", config);
  }

  {
    // 150 routers under LCD: large-n routing and the gateway walk.
    SimConfig config = base_config();
    config.network.strategy = "lcd";
    add("edge_waxman150_lcd", "waxman150", config);
  }
  {
    // A non-gateway router failed before run(): routing around it (US-A
    // router 9 lies on 102 of the shortest paths between other routers),
    // and provisioning over the survivors.
    const SimConfig config = base_config();
    Cell& cell = add("edge_failed_router", "us-a", config);
    cell.failed = {9};
    cell.workload = [config](const topology::Graph& graph) {
      return std::make_unique<InactiveRoutersWorkload>(
          graph, config, std::vector<topology::NodeId>{9});
    };
  }
  {
    // Traced hop paths with neither link tracking nor topo recording.
    SimConfig config = base_config();
    config.record_topo = false;
    config.network.track_link_load = false;
    add("edge_untracked_traces", "geant", config);
  }
  {
    // Untraced: timeline and topo on, no trace sampler.
    SimConfig config = base_config();
    config.trace_sample_k = 0;
    add("edge_untraced_us_a_lru", "us-a", config);
  }
  {
    // Untraced with every export off: the report, registry and link
    // loads alone.
    SimConfig config = base_config();
    config.trace_sample_k = 0;
    config.record_topo = false;
    config.timeline_epoch = 0;
    config.network.track_link_load = false;
    add("edge_untraced_bare_geant", "geant", config);
  }
  {
    // Untraced at a prime request count: ragged windows around the warmup
    // boundary.
    SimConfig config = base_config();
    config.trace_sample_k = 0;
    config.warmup_requests = 2003;
    config.measured_requests = 8004;
    add("edge_untraced_ragged", "us-a", config);
  }
  {
    // Untraced on-path prob: the admission coins are drawn in serve order,
    // and no trace sampler drives that order.
    SimConfig config = base_config();
    config.network.strategy = "prob";
    config.trace_sample_k = 0;
    config.timeline_epoch = 7;
    add("edge_prob_untraced", "geant", config);
  }
  // One stream shared by every router: each draw depends on the global
  // interleaving, so the run must draw in emission order.
  add("edge_coupled_workload", "cernet", base_config()).workload =
      [](const topology::Graph&) {
        return std::make_unique<SharedStreamWorkload>();
      };
  // No timeline epoch and 80000 requests: full 32768-request windows.
  {
    // Emission order with candidates left over past each window's end.
    SimConfig config = base_config();
    config.network.strategy = "lcd";
    config.timeline_epoch = 0;
    config.warmup_requests = 10000;
    config.measured_requests = 70000;
    add("edge_waxman150_lcd_full_windows", "waxman150", config);
  }
  {
    // Traced router-major: each full window's global request indices.
    SimConfig config = base_config();
    config.timeline_epoch = 0;
    config.warmup_requests = 10000;
    config.measured_requests = 70000;
    add("edge_us_a_traced_full_windows", "us-a", config);
  }

  // Interest aggregation: joins and completions in every serve order.
  {
    // Emission order: the on-path walk serves one request at a time.
    SimConfig config = base_config();
    config.interest_aggregation = true;
    config.network.strategy = "lcd";
    add("edge_aggregation_lcd", "us-a", config);
  }
  {
    // Untraced router-major: bisected windows.
    SimConfig config = base_config();
    config.interest_aggregation = true;
    config.trace_sample_k = 0;
    add("edge_aggregation_untraced", "us-a", config);
  }
  {
    // Full windows at a high rate: fetches in flight across windows.
    SimConfig config = base_config();
    config.interest_aggregation = true;
    config.timeline_epoch = 0;
    config.warmup_requests = 10000;
    config.measured_requests = 70000;
    config.arrival_rate_per_router = 5.0;
    config.network.origin_extra_ms = 50.0;
    add("edge_aggregation_full_windows", "us-a", config);
  }
  {
    // A 7-request epoch: joins tallied into epochs that windows cut short.
    SimConfig config = base_config();
    config.interest_aggregation = true;
    config.timeline_epoch = 7;
    config.warmup_requests = 1000;
    config.measured_requests = 5003;
    config.arrival_rate_per_router = 3.0;
    add("edge_aggregation_epoch_7", "geant", config);
  }
  {
    // Peer-local fetch, untraced: emission order without a trace.
    SimConfig config = base_config();
    config.interest_aggregation = true;
    config.network.allow_peer_local_fetch = true;
    config.trace_sample_k = 0;
    add("edge_aggregation_peer_fetch", "cernet", config);
  }
  {
    // Table IV's split (c = 1000, x = 937) at the smallest catalog kAuto
    // indexes sparsely: 63-entry LRU partitions on robin-hood tables, the
    // coordinated tier decided by the owner table.
    SimConfig config = base_config();
    config.network.catalog_size = 131072;
    config.network.capacity_c = 1000;
    config.coordinated_x = 937;
    add("edge_auto_sparse_table4", "us-a", config);
  }

  // ReplicationRunner cells: merged traces, timeline and topo, and the
  // registry after all replications.
  const auto add_replicated = [&](std::string name, std::string topology,
                                  SimConfig config) {
    config.warmup_requests = 2000;
    config.measured_requests = 8000;
    add(std::move(name), std::move(topology), config).replications = 4;
  };
  add_replicated("replication_lru", "us-a", base_config());
  {
    SimConfig config = base_config();
    config.sampler_kind = popularity::SamplerKind::kRejectionInversion;
    add_replicated("replication_rejection_sampler", "us-a", config);
  }
  {
    SimConfig config = base_config();
    config.network.local_mode = LocalStoreMode::kLfu;
    add_replicated("replication_lfu", "abilene", config);
  }
  return cells;
}

const std::vector<Cell>& cells() {
  static const std::vector<Cell> all = make_cells();
  return all;
}

const Cell& cell_named(const std::string& name) {
  for (const Cell& cell : cells()) {
    if (cell.name == name) return cell;
  }
  throw std::out_of_range("no digest cell " + name);
}

std::vector<std::string> cell_names() {
  std::vector<std::string> names;
  for (const Cell& cell : cells()) names.push_back(cell.name);
  return names;
}

/// One simulation from a clean global registry, reduced to its digest.
std::uint64_t run_digest(const topology::Graph& graph, const SimConfig& config,
                         const WorkloadFactory& workload,
                         ShardExecutor* executor,
                         const std::vector<topology::NodeId>& failed = {}) {
  obs::metrics().reset();
  Simulation sim(graph, config);
  for (const topology::NodeId router : failed) {
    sim.network().set_router_failed(router, true);
  }
  if (workload) sim.set_workload(workload(graph));
  if (executor != nullptr) sim.set_shard_executor(executor);
  const SimReport report = sim.run();
  Fnv1a hash;
  hash_report(hash, report);
  hash_exports(hash, sim.traces(), sim.timeline(), sim.topo());
  const std::vector<std::uint64_t>& loads = sim.network().link_counts();
  hash.u64(loads.size());
  for (const std::uint64_t load : loads) hash.u64(load);
  hash.u64(sim.network().total_link_traversals());
  return hash.value();
}

/// A replicated sweep on `threads` workers, reduced to its digest.
std::uint64_t replication_digest(const topology::Graph& graph,
                                 const Cell& cell, std::size_t threads) {
  obs::metrics().reset();
  runtime::ThreadPool pool(threads);
  const runtime::ReplicationSummary summary =
      runtime::ReplicationRunner(pool).run(graph, cell.config,
                                           cell.replications);
  Fnv1a hash;
  hash.u64(summary.reports.size());
  for (const SimReport& report : summary.reports) hash_report(hash, report);
  hash_exports(hash, summary.traces, summary.timeline, summary.topo);
  return hash.value();
}

class GoldenDigest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenDigest, MatchesCommittedDigest) {
  const Cell& cell = cell_named(GetParam());
  const topology::Graph graph = cell_graph(cell.topology);
  const std::string expected =
      golden::committed_digest(CCNOPT_GOLDEN_DIGESTS, cell.name);

  // Every way of running the cell must land on the committed digest.
  std::map<std::string, std::uint64_t> ways;
  if (cell.replications > 0) {
    ways["threads=1"] = replication_digest(graph, cell, 1);
    ways["threads=8"] = replication_digest(graph, cell, 8);
  } else {
    SimConfig config = cell.config;
    config.shards = 1;
    ways["shards=1"] =
        run_digest(graph, config, cell.workload, nullptr, cell.failed);
    config.shards = cell.shards;
    SerialShardExecutor serial;
    ways["serial shards=" + std::to_string(cell.shards)] =
        run_digest(graph, config, cell.workload, &serial, cell.failed);
    runtime::ThreadPool pool(4);
    runtime::ShardScheduler scheduler(pool);
    ways["pooled shards=" + std::to_string(cell.shards)] =
        run_digest(graph, config, cell.workload, &scheduler, cell.failed);
  }
  for (const auto& [way, digest] : ways) {
    EXPECT_EQ(hex(digest), expected)
        << "cell " << cell.name << " (" << way
        << ") moved; its new line in tests/golden/digests.txt would be:\n"
        << cell.name << " " << hex(digest);
  }
}

INSTANTIATE_TEST_SUITE_P(Cells, GoldenDigest,
                         ::testing::ValuesIn(cell_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(GoldenDigestFile, ListsEveryCellExactlyOnce) {
  std::set<std::string> seen;
  std::set<std::string> known;
  for (const Cell& cell : cells()) known.insert(cell.name);
  for (const auto& [name, digest] :
       golden::read_lines(CCNOPT_GOLDEN_DIGESTS)) {
    EXPECT_TRUE(seen.insert(name).second) << "duplicate line for " << name;
    EXPECT_TRUE(known.count(name) > 0) << "line for unknown cell " << name;
    EXPECT_EQ(digest.size(), 16u) << "malformed digest for " << name;
  }
  EXPECT_EQ(seen.size(), known.size());
}

// Engine-contract tests that compare no two outputs: how many shards and
// which index a run selects, the sharded-engine support predicate, and the
// run clocks.

TEST(SimIndexDeterminism, SparseIndexActiveWhereExpected) {
  // Counts the routers whose dynamic local partition runs the sparse
  // index, over the whole US-A topology.
  const auto sparse_routers = [](const SimConfig& config) {
    Simulation sim(topology::us_a(), config);
    sim.run();
    std::size_t sparse = 0;
    for (topology::NodeId id = 0; id < sim.network().router_count(); ++id) {
      const auto* local = dynamic_cast<const cache::LruCache*>(
          &sim.network().store(id).local());
      EXPECT_NE(local, nullptr) << "router " << id;
      if (local != nullptr && local->index_is_sparse()) ++sparse;
    }
    return sparse;
  };
  const std::size_t routers = topology::us_a().node_count();

  // base_config's local partition holds c - x = 25 contents, far under
  // 64x any catalog near the budget, so kAuto flips where the dense table
  // reaches 512 KiB: at a catalog of exactly 2^17.
  SimConfig config = base_config();
  config.warmup_requests = 500;
  config.measured_requests = 1500;
  config.network.catalog_size = 131071;
  EXPECT_EQ(sparse_routers(config), 0u);
  config.network.cache_index_mode = cache::IndexMode::kSparse;
  EXPECT_EQ(sparse_routers(config), routers);

  config.network.cache_index_mode = cache::IndexMode::kAuto;
  config.network.catalog_size = 131072;
  EXPECT_EQ(sparse_routers(config), routers);
  config.network.cache_index_mode = cache::IndexMode::kDense;
  EXPECT_EQ(sparse_routers(config), 0u);

  // base_config's own catalog (2000 contents, 80x the partition) keeps
  // the small dense table.
  EXPECT_EQ(sparse_routers(base_config()), 0u);

  // Table IV scale (N = 10^6, c = 1000, x = 937): below the sampler's
  // 2^20 switch, yet every 63-entry partition is sparse.
  SimConfig paper = base_config();
  paper.network.catalog_size = 1000000;
  paper.network.capacity_c = 1000;
  paper.coordinated_x = 937;
  paper.warmup_requests = 1000;
  paper.measured_requests = 2000;
  EXPECT_EQ(sparse_routers(paper), routers);

  // The golden cell pinning that split on the sparse side of kAuto.
  EXPECT_EQ(sparse_routers(cell_named("edge_auto_sparse_table4").config),
            routers);
}

/// Runs the bodies serially and remembers the widest region it ran.
class CountingShardExecutor final : public ShardExecutor {
 public:
  void run_shards(std::size_t count,
                  const std::function<void(std::size_t)>& body) override {
    widest = std::max(widest, count);
    for (std::size_t shard = 0; shard < count; ++shard) body(shard);
  }
  std::size_t widest = 0;
};

TEST(ShardDeterminismEdges, ShardCountIgnoresTheDisqualifier) {
  // Every run uses min(shards, active routers) shards: a qualifying run
  // serves on them, and a run served in emission order (on-path LCD, a
  // coupled workload) still generates, draws and records on them, with or
  // without aggregation. The disqualifier picks only the serve order.
  const auto widest_region = [](const SimConfig& config, bool coupled) {
    CountingShardExecutor executor;
    Simulation sim(topology::us_a(), config);
    if (coupled) sim.set_workload(std::make_unique<SharedStreamWorkload>());
    sim.set_shard_executor(&executor);
    const SimReport report = sim.run();
    EXPECT_EQ(report.aggregated_requests > 0, config.interest_aggregation);
    return executor.widest;
  };
  const std::size_t routers = topology::us_a().node_count();
  for (const bool aggregation : {false, true}) {
    SimConfig config = base_config();
    config.interest_aggregation = aggregation;
    config.shards = 4;
    EXPECT_EQ(widest_region(config, false), 4u);
    EXPECT_EQ(widest_region(config, true), 4u);
    config.network.strategy = "lcd";
    EXPECT_EQ(widest_region(config, false), 4u);
    config.shards = routers + 1;
    EXPECT_EQ(widest_region(config, false), routers);
    EXPECT_EQ(widest_region(config, true), routers);
  }
}

TEST(ShardDeterminismEdges, EmissionOrderRunsMatchOneShardOnPooledShards) {
  // Runs served in emission order draw and record on real pool threads;
  // their report, timeline rows, topo export and traces must equal the
  // shards = 1 run's at every shard count, more shards than routers
  // included.
  struct Run {
    std::string name;
    std::string topology;
    SimConfig config;
    bool coupled = false;
  };
  std::vector<Run> runs;
  SimConfig lcd = base_config();
  lcd.network.strategy = "lcd";
  runs.push_back({"lcd", "waxman150", lcd, false});
  SimConfig peer_fetch = base_config();
  peer_fetch.network.allow_peer_local_fetch = true;
  runs.push_back({"peer_fetch", "us-a", peer_fetch, false});
  runs.push_back({"coupled", "cernet", base_config(), true});
  SimConfig lcd_aggregated = lcd;
  lcd_aggregated.interest_aggregation = true;
  runs.push_back({"lcd_aggregated", "us-a", lcd_aggregated, false});

  struct Outputs {
    std::uint64_t report = 0;
    std::string timeline;
    std::string topo;
    std::string traces;
  };
  runtime::ThreadPool pool(4);
  runtime::ShardScheduler scheduler(pool);
  for (const Run& run : runs) {
    const topology::Graph graph = cell_graph(run.topology);
    const auto outputs = [&](std::size_t shards, ShardExecutor* executor) {
      SimConfig config = run.config;
      config.shards = shards;
      Simulation sim(graph, config);
      if (run.coupled) {
        sim.set_workload(std::make_unique<SharedStreamWorkload>());
      }
      if (executor != nullptr) sim.set_shard_executor(executor);
      Outputs out;
      Fnv1a hash;
      hash_report(hash, sim.run());
      out.report = hash.value();
      std::ostringstream timeline;
      obs::write_timeline_json(timeline, sim.timeline());
      out.timeline = timeline.str();
      std::ostringstream topo;
      obs::write_topo_json(topo, sim.topo());
      out.topo = topo.str();
      std::ostringstream traces;
      obs::write_traces_json(traces, sim.traces());
      out.traces = traces.str();
      return out;
    };
    const Outputs reference = outputs(1, nullptr);
    EXPECT_FALSE(reference.timeline.empty());
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{3}, std::size_t{7},
          graph.node_count() + 1}) {
      const Outputs pooled = outputs(shards, &scheduler);
      const std::string what = run.name + " at shards=" + std::to_string(shards);
      EXPECT_EQ(hex(pooled.report), hex(reference.report)) << what;
      EXPECT_EQ(pooled.timeline, reference.timeline) << what;
      EXPECT_EQ(pooled.topo, reference.topo) << what;
      EXPECT_EQ(pooled.traces, reference.traces) << what;
    }
  }
}

TEST(ShardDeterminismDeathTest, ZeroShardsIsRejected) {
  // 0 shards would serve nothing; the constructor rejects it.
  SimConfig config = base_config();
  config.shards = 0;
  EXPECT_DEATH(Simulation(topology::cernet(), config), "precondition");
}

TEST(ShardDeterminismFallback, SupportPredicateMatchesContract) {
  SimConfig config = base_config();
  config.shards = 8;
  Simulation sim(topology::us_a(), config);
  const ZipfWorkload zipf(20, 2000, 0.8, 1);
  EXPECT_EQ(sharded_run_disqualifier(zipf, sim.network()), nullptr);

  SimConfig aggregated = config;
  aggregated.interest_aggregation = true;
  Simulation aggregated_sim(topology::us_a(), aggregated);
  EXPECT_EQ(sharded_run_disqualifier(zipf, aggregated_sim.network()), nullptr);

  SimConfig peer_fetch = config;
  peer_fetch.network.allow_peer_local_fetch = true;
  Simulation peer_sim(topology::us_a(), peer_fetch);
  EXPECT_NE(sharded_run_disqualifier(zipf, peer_sim.network()), nullptr);

  SimConfig on_path = config;
  on_path.network.strategy = "lce";
  Simulation on_path_sim(topology::us_a(), on_path);
  EXPECT_NE(sharded_run_disqualifier(zipf, on_path_sim.network()), nullptr);
}

TEST(ShardDeterminismFallback, UnsupportedReasonNamesTheDisqualifier) {
  // The fallback is logged with the reason string; pin each disqualifier
  // to the clause it names so the log line stays meaningful.
  SimConfig config = base_config();
  config.shards = 8;
  Simulation sim(topology::us_a(), config);
  const ZipfWorkload zipf(20, 2000, 0.8, 1);

  struct CoupledWorkload final : Workload {
    cache::ContentId next(std::size_t) override { return 1; }
    std::uint64_t catalog_size() const override { return 1; }
  } coupled;
  EXPECT_STREQ(sharded_run_disqualifier(coupled, sim.network()),
               "workload streams are globally coupled across routers");

  SimConfig on_path = config;
  on_path.network.strategy = "lce";
  Simulation on_path_sim(topology::us_a(), on_path);
  EXPECT_STREQ(sharded_run_disqualifier(zipf, on_path_sim.network()),
               "on-path forwarding strategy mutates caches along the path");

  SimConfig peer_fetch = config;
  peer_fetch.network.allow_peer_local_fetch = true;
  Simulation peer_sim(topology::us_a(), peer_fetch);
  EXPECT_STREQ(sharded_run_disqualifier(zipf, peer_sim.network()),
               "peer-local fetch couples router stores");
}

TEST(ShardDeterminismPhases, PhaseClockCoversBothPhases) {
  SimConfig config = base_config();
  config.shards = 4;
  Simulation sim(topology::us_a(), config);
  sim.run();
  const Simulation::PhaseSeconds phases = sim.last_phase_seconds();
  EXPECT_GT(phases.warmup, 0.0);
  EXPECT_GT(phases.measured, 0.0);
}

}  // namespace
}  // namespace ccnopt::sim
