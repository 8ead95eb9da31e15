// The CCN data plane: routers with partitioned content stores on a real
// topology, an origin behind a gateway router, and the three-tier serve
// path of Figure 2 (own store -> coordinated peer -> origin).
#pragma once

#include <memory>
#include <vector>

#include "ccnopt/cache/partitioned.hpp"
#include "ccnopt/common/random.hpp"
#include "ccnopt/obs/topo.hpp"
#include "ccnopt/sim/coordinator.hpp"
#include "ccnopt/sim/metrics.hpp"
#include "ccnopt/strategy/strategy.hpp"
#include "ccnopt/topology/graph.hpp"
#include "ccnopt/topology/route_table.hpp"

namespace ccnopt::sim {

enum class LocalStoreMode { kStaticTop, kLru, kLfu, kFifo, kRandom };

const char* to_string(LocalStoreMode mode);

struct NetworkConfig {
  std::uint64_t catalog_size = 10000;
  /// Uniform per-router capacity; `capacity_overrides` (indexed by node id,
  /// same length as the node count) replaces it when non-empty. Routers
  /// with zero capacity route but do not cache (R0 in Section II).
  std::size_t capacity_c = 100;
  std::vector<std::size_t> capacity_overrides;
  LocalStoreMode local_mode = LocalStoreMode::kStaticTop;
  /// d0: client <-> first-hop router access latency.
  double access_latency_d0_ms = 1.0;
  /// The origin hangs off this router...
  topology::NodeId origin_gateway = 0;
  /// ...at this extra latency / hop distance.
  double origin_extra_ms = 50.0;
  std::uint32_t origin_extra_hops = 1;
  /// When true, a miss may be served by the nearest peer whose *local*
  /// partition holds the content (opportunistic replica lookup); the
  /// paper's model only consults the coordinator's assignment, so this is
  /// off by default and exercised by the policy ablation.
  bool allow_peer_local_fetch = false;
  /// When true, every network/origin fetch walks its shortest path and
  /// increments per-link traversal counters (link_load()); carriers read
  /// this as link utilization. Off by default (costs one tree walk per
  /// non-local request).
  bool track_link_load = false;
  /// Multiple origin attachment points: content -> origins[content mod k].
  /// Non-empty overrides the single origin_gateway/extra fields ("O is an
  /// abstraction of multiple origin servers", Section III-A).
  struct OriginSpec {
    topology::NodeId gateway = 0;
    double extra_ms = 50.0;
    std::uint32_t extra_hops = 1;
  };
  std::vector<OriginSpec> origins;
  /// Membership-index selection for the flat local partitions: kAuto keeps
  /// the dense array for small catalogs and switches to the O(capacity)
  /// robin-hood index when catalog_size dwarfs the per-router capacity
  /// (see cache/content_index.hpp for the exact rule). Forcing kDense at
  /// web-scale catalogs allocates O(catalog) words per router.
  cache::IndexMode cache_index_mode = cache::IndexMode::kAuto;
  /// Registered caching-strategy name (strategy/registry.hpp) that decides
  /// both placement (what provision() puts where) and forwarding (how
  /// serve() locates non-local copies). The default is the paper's scheme.
  std::string strategy = "coordinated-split";
  /// Overrides the strategy's probabilistic-insertion base p when > 0
  /// (only meaningful for on-path strategies with kProbabilistic rules).
  double strategy_insertion_p = 0.0;
  std::uint64_t seed = 42;
};

struct ServeResult {
  ServeTier tier = ServeTier::kLocal;
  double latency_ms = 0.0;
  std::uint32_t hops = 0;
  topology::NodeId served_by = 0;
  /// True when the hit came from the router's own coordinated partition —
  /// Eq. 2 charges those d1 while the physical path is d0; the
  /// model-vs-simulation bench uses this to reconcile the two accountings.
  bool own_coordinated_hit = false;
  /// Hop distance from the requesting router of the copy the insertion
  /// rule placed nearest to it while serving this request (0 = at the
  /// first hop itself); -1 when no copy was placed. Only computed when a
  /// topo recorder is attached or placement-depth recording is on
  /// (set_record_placement_depth) — the hot path stays branch-free
  /// otherwise.
  std::int32_t placement_depth = -1;
};

class CcnNetwork {
 public:
  /// Requires a connected graph with at least 2 nodes and at least one
  /// router of non-zero capacity. `routes`, when given, must be the
  /// RouteTable of `graph` with no router blocked; networks on one graph
  /// (a replicated sweep) share it instead of each building their own.
  CcnNetwork(topology::Graph graph, NetworkConfig config,
             std::shared_ptr<const topology::RouteTable> routes = nullptr);

  const topology::Graph& graph() const { return graph_; }
  const NetworkConfig& config() const { return config_; }
  std::size_t router_count() const { return graph_.node_count(); }
  const std::vector<topology::NodeId>& participants() const {
    return coordinator_.participants();
  }

  /// (Re)provisions all stores for a coordination amount `x` per router
  /// (clamped to each router's capacity): local partitions are rebuilt in
  /// `local_mode`, the coordinated partitions receive the epoch assignment
  /// of ranks c_min - x + 1 ... Returns the epoch's coordination message
  /// count (0 when x = 0).
  std::uint64_t provision(std::size_t coordinated_x);

  /// Heterogeneous epoch (model/heterogeneous.hpp semantics): participant
  /// i coordinates x[i] <= capacity, keeps the top capacity - x[i] ranks
  /// locally, and the pool of sum(x) contents covers the ranks immediately
  /// after the network-wide local coverage L = max_i (c_i - x_i). x is
  /// indexed by participant order (participants()). Returns the epoch's
  /// message count.
  std::uint64_t provision_heterogeneous(const std::vector<std::size_t>& x);

  /// Serves one request arriving at `first_hop`; mutates dynamic local
  /// partitions (miss-path admission).
  ServeResult serve(topology::NodeId first_hop, cache::ContentId content);

  /// Hints the serve()-path state of an upcoming request into cache: the
  /// first-hop store's membership index and the coordinated-owner interval
  /// entry. Issued by the windowed request engine one request ahead, in
  /// router-major and in emission-order serving; never mutates, never
  /// required for correctness.
  void prefetch(topology::NodeId first_hop, cache::ContentId content) const;

  // --- Sharded serving ------------------------------------------------------
  // Under owner-table forwarding a request's only mutation is its first-hop
  // store, so shards owning disjoint first-hop routers may serve
  // concurrently against ONE shared network — provided each shard writes
  // its link traversals and placement telemetry into private scratch
  // instead of the shared members. serve_sharded() is exactly serve()'s
  // owner-table body with the counter sinks swapped; fold_shard_scratch()
  // adds the scratch back into the shared counters (integer sums, so any
  // fold order reproduces the sequential counts bit for bit).

  struct ShardScratch {
    std::vector<std::uint64_t> link_counts;  // graph().links() order
    std::uint64_t total_traversals = 0;
    /// Per-shard placement recorder (may be null); the engine folds it into
    /// the run recorder with obs::TopoRecorder::absorb.
    obs::TopoRecorder* topo = nullptr;
  };

  /// Scratch with zeroed link counters sized for this graph.
  ShardScratch make_shard_scratch(obs::TopoRecorder* topo) const;

  /// serve() restricted to owner-table forwarding, with link/placement
  /// telemetry diverted into `scratch`. Requires
  /// data_plane().forwarding == kOwnerTable and no peer-local fetch; the
  /// caller (the sharded engine) guarantees no two concurrent calls share a
  /// first_hop router.
  ServeResult serve_sharded(topology::NodeId first_hop,
                            cache::ContentId content, ShardScratch& scratch);

  /// Adds `scratch`'s link counters into the shared ones and zeroes them
  /// (the topo recorder is left for the caller to absorb).
  void fold_shard_scratch(ShardScratch& scratch);

  /// Store of one router; precondition: id < router_count().
  const cache::PartitionedStore& store(topology::NodeId id) const;

  /// Aggregate cache state over every router's store: summed local-partition
  /// eviction/insertion counters (the coordinated partitions never evict —
  /// they change only at provision epochs) plus current total occupancy and
  /// capacity, coordinated contents included. O(router_count); read by the
  /// timeline epoch recorder at every epoch boundary, and a pure function of
  /// the request history, so timeline rows stay thread-count invariant.
  struct CacheTotals {
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
    std::uint64_t occupancy = 0;
    std::uint64_t capacity = 0;
  };
  CacheTotals cache_totals() const;

  std::size_t capacity_of(topology::NodeId id) const;
  std::size_t provisioned_x() const { return provisioned_x_; }

  /// The bound strategy (resolved from config().strategy at construction).
  const strategy::StrategyBundle& strategy_bundle() const { return bundle_; }
  /// The cached per-request descriptor serve() branches on — two enums and
  /// two scalars, never a virtual call (see strategy/strategy.hpp).
  const strategy::DataPlane& data_plane() const { return data_plane_; }

  // --- Failure injection ---------------------------------------------------
  // A failed router neither serves nor forwards: paths are recomputed over
  // the surviving subgraph, its coordinated contents become unreachable
  // (requests for them fall through to the origin), and requests cannot
  // originate at it. The origin gateway must stay alive. Re-provisioning
  // after failures ("repair") redistributes the coordinated pool over the
  // surviving participants only.

  /// Marks `id` failed/recovered and recomputes routing into a private
  /// table (a shared one is never edited). Precondition: the origin
  /// gateway stays alive.
  void set_router_failed(topology::NodeId id, bool failed);
  bool is_failed(topology::NodeId id) const;
  /// The routing in force: shared with other networks on the graph until
  /// a router of this one fails.
  const topology::RouteTable& routes() const { return *routes_; }
  std::size_t failed_count() const;

  /// Coordinated contents currently owned by failed routers (unreachable
  /// until repair re-provisions).
  std::size_t coordinated_contents_lost() const;

  // --- Link load (requires config.track_link_load) -------------------------

  struct LinkLoad {
    topology::NodeId u = 0;  ///< u < v
    topology::NodeId v = 0;
    std::uint64_t traversals = 0;
  };
  /// Per-link traversal counts accumulated by serve(); zero-traffic links
  /// included. Precondition: tracking enabled.
  std::vector<LinkLoad> link_load() const;
  /// The dense traversal counters behind link_load(), in graph().links()
  /// order (all zero when tracking is off). The topo recorder snapshots
  /// these at the end of a run.
  const std::vector<std::uint64_t>& link_counts() const {
    return link_counts_;
  }
  /// Largest per-link count (0 when nothing recorded).
  std::uint64_t max_link_load() const;
  std::uint64_t total_link_traversals() const { return total_traversals_; }
  void reset_link_load();

  // --- Topology-resolved telemetry -----------------------------------------

  /// Attaches a run-local flight recorder: serve() reports every copy the
  /// insertion rule actually admits (obs::TopoRecorder::on_placement) and
  /// computes ServeResult::placement_depth. nullptr detaches; detached (the
  /// default) costs one predictable branch per serve.
  void set_topo_recorder(obs::TopoRecorder* recorder) { topo_ = recorder; }
  /// Computes ServeResult::placement_depth even without a recorder (the
  /// trace sampler wants depths when topo recording is off).
  void set_record_placement_depth(bool on) { record_depths_ = on; }

  /// Reconstructs the router-id delivery path of the result that the
  /// immediately preceding serve() returned: {first_hop} for local hits,
  /// first hop through the serving router otherwise (through the origin
  /// gateway for origin-tier results — the origin itself is not a router).
  /// Must be called before the next serve() (on-path forwarding reuses the
  /// internal miss-path scratch). Deterministic: pure in the routing state.
  std::vector<topology::NodeId> hop_path(topology::NodeId first_hop,
                                         const ServeResult& result) const;

 private:
  static constexpr topology::NodeId kNoOwner = 0xFFFFFFFFu;

  topology::Graph graph_;
  NetworkConfig config_;
  std::vector<NetworkConfig::OriginSpec> origins_;  // resolved, never empty
  // Latency, hops and tree parent of every router pair over the alive
  // routers. Immutable and possibly shared with other networks on the same
  // graph; failures swap in a private table.
  std::shared_ptr<const topology::RouteTable> routes_;
  Coordinator coordinator_;
  Coordinator::Assignment assignment_;
  std::vector<std::unique_ptr<cache::PartitionedStore>> stores_;
  std::size_t provisioned_x_ = 0;
  std::vector<bool> failed_;

  // Flat serve()-path tables, so the hot path never probes a hash map.
  // Coordinated placement is always a contiguous popularity-rank interval
  // (coordinator.hpp deals ranks round-robin from a first rank), so the
  // owner lookup is an interval test plus one indexed load — O(pool)
  // memory instead of the O(catalog) dense rank table this replaces.
  // Rebuilt on every provision.
  cache::ContentId owner_first_rank_ = 1;
  std::vector<topology::NodeId> owner_by_offset_;  // size = coordinated pool

  // Strategy binding (per-run, never per-request): the bundle holds the
  // virtual strategy objects, data_plane_ the POD descriptor serve() reads.
  strategy::StrategyBundle bundle_;
  strategy::DataPlane data_plane_;
  // On-path forwarding state: the scratch miss path of the in-flight
  // request and the admission-coin stream (reseeded every provision epoch).
  std::vector<topology::NodeId> miss_path_;
  Rng strategy_rng_{0};

  // Run-local telemetry hooks (see set_topo_recorder); never owned here.
  obs::TopoRecorder* topo_ = nullptr;
  bool record_depths_ = false;

  topology::NodeId owner_of(cache::ContentId content) const {
    // Unsigned wrap makes ranks below the interval fail the bound too.
    const cache::ContentId offset = content - owner_first_rank_;
    return offset < owner_by_offset_.size() ? owner_by_offset_[offset]
                                            : kNoOwner;
  }

  static std::vector<topology::NodeId> find_participants(
      const topology::Graph& graph, const NetworkConfig& config);
  std::vector<topology::NodeId> alive_participants() const;
  /// Installs `shared` (the table of the graph with no router blocked), or
  /// builds a table over the alive routers when null.
  void rebuild_routing(
      std::shared_ptr<const topology::RouteTable> shared = nullptr);
  void rebuild_owner_table();
  /// Counts one traversal of every link on src's tree path to dst into
  /// the passed sinks (the shared members, or a shard's scratch) when link
  /// tracking is on.
  void record_path(topology::NodeId src, topology::NodeId dst,
                   std::vector<std::uint64_t>& counts,
                   std::uint64_t& total) const;
  /// The origin tier's result for `content` at `first_hop`: d0, the path
  /// to the content's origin gateway, and the origin's extra cost.
  ServeResult origin_result(topology::NodeId first_hop,
                            cache::ContentId content) const;
  /// The owner-table serve body with parameterized telemetry sinks:
  /// serve() passes the shared members, serve_sharded() a shard's scratch.
  ServeResult serve_owner_table(topology::NodeId first_hop,
                                cache::ContentId content,
                                std::vector<std::uint64_t>& link_counts,
                                std::uint64_t& total_traversals,
                                obs::TopoRecorder* topo);

  /// serve() body for kOnPath forwarding: walk the shortest path toward the
  /// content's origin gateway checking each en-route store, then seed
  /// copies along the recorded miss path per the insertion rule.
  ServeResult serve_on_path(topology::NodeId first_hop,
                            cache::ContentId content);
  /// Seeds copies along miss_path_ per the insertion rule; returns the
  /// depth (miss_path_ index) of the copy admitted nearest the requester,
  /// -1 when none was (only computed under placement_telemetry()).
  std::int32_t apply_insertion_rule(cache::ContentId content);

  /// True when serve() must account placements (recorder attached or
  /// explicit depth recording) — one branch on the disabled hot path.
  bool placement_telemetry() const {
    return topo_ != nullptr || record_depths_;
  }

  // Link-load state: per-link traversal counters in graph().links() order.
  std::vector<std::uint64_t> link_counts_;
  std::uint64_t total_traversals_ = 0;
};

}  // namespace ccnopt::sim
