// Topology-resolved flight recorder: dense, id-indexed per-router tier
// counters and per-link traversal loads for one simulation run.
//
// Same ownership pattern as the timeline's EpochRecorder: every recorder is
// run-local (owned by its Simulation), fed once per emitted request in
// emission order, and never reads the process-global obs::metrics()
// registry, which parallel replications share and mutate concurrently.
// ReplicationRunner merges the per-replication recorders in replication
// index order; every counter is an integer sum (the one double,
// latency_ms_sum, is accumulated serially in that same fixed order), so the
// merged recorder — and the ccnopt-topo-v1 JSON/CSV serialized from it —
// is byte-identical for any thread count.
//
// The obs layer sits below topology/, so the recorder takes the link list
// as plain (u, v) id pairs (graph().links() order, u < v) instead of a
// Graph.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace ccnopt::obs {

/// Tier codes of on_request(); match sim::ServeTier's numeric values.
inline constexpr std::uint32_t kTopoTierLocal = 0;
inline constexpr std::uint32_t kTopoTierNetwork = 1;
inline constexpr std::uint32_t kTopoTierOrigin = 2;

/// Per-router counters. Tier counts, latency and hops cover the measured
/// phase only (so they reconcile exactly with the run's SimReport);
/// placements count every copy the insertion rule actually seeded at this
/// router, warmup included; evictions/insertions/occupancy/capacity are
/// whole-run cache-state totals copied from the router's store when the run
/// finishes (they reconcile with CcnNetwork::cache_totals()).
struct TopoNodeStats {
  std::uint64_t requests = 0;   ///< measured requests entering here
  std::uint64_t local = 0;      ///< ...served from this router's own store
  std::uint64_t network = 0;    ///< ...served by a peer router
  std::uint64_t origin = 0;     ///< ...served by the origin
  /// Network-tier requests of *other* routers that this router served.
  std::uint64_t served_for_peers = 0;
  /// Copies the insertion rule placed here (actual admissions, not
  /// attempts; static local partitions therefore stay at 0).
  std::uint64_t placements = 0;
  double latency_ms_sum = 0.0;  ///< summed over requests entering here
  std::uint64_t hops_sum = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  std::uint64_t occupancy = 0;
  std::uint64_t capacity = 0;
};

/// One undirected link (u < v) with its whole-run traversal count; mirrors
/// CcnNetwork::link_counts_ in graph().links() order.
struct TopoLinkStats {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  std::uint64_t traversals = 0;
};

class TopoRecorder {
 public:
  /// Disabled recorder: enabled() is false and every hook is a
  /// precondition violation.
  TopoRecorder() = default;

  /// Enabled recorder over `router_count` routers and the given undirected
  /// links ((u, v) pairs with u < v, graph().links() order). Counts as one
  /// replication until merged into.
  TopoRecorder(std::string topology, std::size_t router_count,
               std::vector<std::pair<std::uint32_t, std::uint32_t>> links);

  bool enabled() const { return !nodes_.empty(); }
  const std::string& topology() const { return topology_; }
  /// Replications merged into this recorder (1 for a single run).
  std::uint32_t replications() const { return replications_; }
  const std::vector<TopoNodeStats>& nodes() const { return nodes_; }
  const std::vector<TopoLinkStats>& links() const { return links_; }
  /// placement_depths()[d] = copies placed d hops from the requesting
  /// router (depth 0 = at the first hop itself); grows on demand.
  const std::vector<std::uint64_t>& placement_depths() const {
    return placement_depths_;
  }

  /// One measured request that entered at `first_hop` and resolved at
  /// `tier` (kTopoTier*). `served_by` is the serving router (== first_hop
  /// for local hits, the origin gateway for origin-tier requests).
  void on_request(std::uint32_t first_hop, std::uint32_t tier,
                  std::uint32_t served_by, double latency_ms,
                  std::uint32_t hops);

  /// One copy actually inserted at `node`, `depth` hops from the
  /// requesting router along the delivery path.
  void on_placement(std::uint32_t node, std::uint32_t depth);

  /// End-of-run cache-state snapshot of one router.
  void set_router_cache(std::uint32_t id, std::uint64_t evictions,
                        std::uint64_t insertions, std::uint64_t occupancy,
                        std::uint64_t capacity);

  /// Adds the dense per-link traversal counters (same order and length as
  /// the construction link list) — CcnNetwork::link_counts().
  void add_link_traversals(const std::vector<std::uint64_t>& counts);

  /// Index-ordered merge: adds `other`'s counters entity by entity.
  /// A disabled recorder adopts `other` wholesale, so a summary recorder
  /// can start default-constructed; merging a disabled `other` is a no-op.
  /// Enabled-to-enabled merges require identical topology shape.
  void merge(const TopoRecorder& other);

  /// Same entity-by-entity sum as merge(), but `other` is a shard of THIS
  /// run rather than another replication: replications() is left untouched.
  /// The sharded request engine folds its per-shard tier and placement
  /// recorders into the run recorder with this, in shard index order
  /// (every summed field is an integer or a serially accumulated double,
  /// so the result is byte-identical for any shard count). `other` may be
  /// built without links — shard recorders never count link traversals —
  /// and then adds to the nodes and placement depths only.
  void absorb(const TopoRecorder& other);

  // Whole-network sums, for reconciliation against the global report.
  std::uint64_t total_requests() const;
  std::uint64_t total_placements() const;
  std::uint64_t total_link_traversals() const;
  std::uint64_t max_link_load() const;
  /// Mean placement depth over every recorded placement (0 when none).
  double mean_placement_depth() const;

 private:
  std::string topology_;
  std::uint32_t replications_ = 0;
  std::vector<TopoNodeStats> nodes_;
  std::vector<TopoLinkStats> links_;
  std::vector<std::uint64_t> placement_depths_;
};

/// JSON, schema "ccnopt-topo-v1": topology name, entity counts, the
/// placement-depth histogram, then one object per node and per edge.
/// Deterministic: doubles render via json_number (shortest round-trip).
void write_topo_json(std::ostream& out, const TopoRecorder& topo);

/// CSV: fixed header, then one `node` row per router, one `edge` row per
/// link, one `depth` row per histogram bucket (unused columns empty).
void write_topo_csv(std::ostream& out, const TopoRecorder& topo);

}  // namespace ccnopt::obs
