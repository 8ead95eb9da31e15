// Pluggable caching strategies: who places what where (PlacementStrategy,
// consulted once per provision epoch) and how requests travel and seed
// copies (ForwardingStrategy + the POD DataPlane descriptor the data plane
// branches on per request).
//
// Hot-path contract: virtual calls happen only at provision/bind time. The
// per-request serve loop reads the strategy through DataPlane — two enums
// and two scalars — so the windowed request engine of sim/sharded.cpp
// keeps its throughput regardless of which strategy is bound.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ccnopt/cache/policy.hpp"
#include "ccnopt/strategy/coordinator.hpp"
#include "ccnopt/topology/graph.hpp"

namespace ccnopt::strategy {

/// How a request locates a non-local copy.
enum class ForwardingMode {
  /// Consult the coordinator's owner table (the paper's mid tier), falling
  /// back to the origin. Requires a PlacementPlan with an assignment.
  kOwnerTable,
  /// Walk the shortest path toward the content's origin gateway, checking
  /// each en-route store; copies are seeded on the miss path according to
  /// the placement's InsertionRule.
  kOnPath,
};

const char* to_string(ForwardingMode mode);

/// Where an on-path strategy leaves copies after a non-local hit/fetch.
enum class InsertionKind {
  kFirstHopOnly,   ///< only the requesting router admits (default CCN edge)
  kEveryHop,       ///< LCE: every router on the miss path admits
  kOneHopDown,     ///< LCD: only the router one hop below the serving point
  kProbabilistic,  ///< each miss-path router admits with probability p
};

const char* to_string(InsertionKind kind);

struct InsertionRule {
  InsertionKind kind = InsertionKind::kFirstHopOnly;
  /// Base admission probability for kProbabilistic (ignored otherwise).
  double p = 1.0;
  /// ProbCache-style weighting: scale p by capacity_i / sum of capacities
  /// along the miss path, so the expected copies per path is ~p.
  bool capacity_weighted = false;
};

/// The complete per-request contract between a bound strategy and the data
/// plane. Plain data: cheap to copy, branch-predictable to read.
struct DataPlane {
  ForwardingMode forwarding = ForwardingMode::kOwnerTable;
  InsertionRule insertion;
};

/// One router as the placement layer sees it.
struct RouterInfo {
  topology::NodeId id = 0;
  std::size_t capacity = 0;
  bool alive = true;
};

/// Everything a PlacementStrategy may consult when planning an epoch.
struct PlacementContext {
  const topology::Graph* graph = nullptr;
  /// Dense by node id (size = node_count).
  std::vector<RouterInfo> routers;
  /// Routers with capacity > 0 that have not failed, in id order — the
  /// coordinator's participant set for this epoch.
  std::vector<topology::NodeId> alive_participants;
  std::uint64_t catalog_size = 0;
  /// The x the caller asked for (per-router coordinated amount).
  std::size_t requested_x = 0;
  std::uint64_t seed = 0;
};

/// One epoch's plan: the coordinator assignment (may be empty for
/// uncoordinated strategies) plus the dense per-node store shape.
struct PlacementPlan {
  Coordinator::Assignment assignment;
  /// Coordinated partition size per node (dense by id; 0 for non-alive or
  /// uncoordinated nodes).
  std::vector<std::size_t> coordinated_capacity;
  /// Contents pinned into each node's coordinated partition (dense by id).
  std::vector<std::vector<cache::ContentId>> assigned;
  /// Coordination messages this epoch cost (Eq. 3's communication term).
  std::uint64_t messages = 0;
  /// The homogeneous x actually provisioned (0 for heterogeneous or
  /// uncoordinated plans) — reported by CcnNetwork::provisioned_x().
  std::size_t provisioned_x = 0;
};

/// Decides, once per provision epoch, what every router's coordinated
/// partition holds. Implementations must be deterministic in the context.
class PlacementStrategy {
 public:
  virtual ~PlacementStrategy() = default;
  virtual const char* name() const = 0;
  virtual PlacementPlan provision(const PlacementContext& context) const = 0;
  /// The en-route admission rule the data plane applies on miss paths
  /// (meaningful for kOnPath forwarding; ignored for kOwnerTable).
  virtual InsertionRule insertion_rule() const { return InsertionRule{}; }
};

/// Names the forwarding discipline requests use under this strategy.
class ForwardingStrategy {
 public:
  virtual ~ForwardingStrategy() = default;
  virtual const char* name() const = 0;
  virtual ForwardingMode mode() const = 0;
};

class OwnerTableForwarding final : public ForwardingStrategy {
 public:
  const char* name() const override { return "owner-table"; }
  ForwardingMode mode() const override { return ForwardingMode::kOwnerTable; }
};

class OnPathForwarding final : public ForwardingStrategy {
 public:
  const char* name() const override { return "on-path"; }
  ForwardingMode mode() const override { return ForwardingMode::kOnPath; }
};

/// A named, ready-to-bind strategy pair as produced by the registry.
struct StrategyBundle {
  std::string name;
  std::string description;
  std::unique_ptr<PlacementStrategy> placement;
  std::unique_ptr<ForwardingStrategy> forwarding;

  /// The per-request descriptor the data plane caches at bind time.
  DataPlane data_plane() const {
    return DataPlane{forwarding->mode(), placement->insertion_rule()};
  }
};

}  // namespace ccnopt::strategy
