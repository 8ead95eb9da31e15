// The simulator's all-pairs routing state: one immutable table per graph
// (and failure set) holding, for every (source, destination) pair, the
// Dijkstra latency, the edge count, and the destination's parent link of
// the path on the source's shortest-path tree.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/topology/graph.hpp"
#include "ccnopt/topology/shortest_paths.hpp"

namespace ccnopt::topology {

inline constexpr std::uint32_t kNoLink = 0xFFFFFFFFu;

/// One (source, destination) entry of a RouteTable.
struct Route {
  double latency_ms = kUnreachable;       ///< Dijkstra latency
  /// Edges on the source's Dijkstra tree path: the hops a request walks,
  /// not the graph's minimum hop count (bfs_hops).
  std::uint32_t hops = kUnreachableHops;
  /// graph.links() index of the destination's link to its parent on the
  /// source's Dijkstra tree; kNoLink at the source and where unreachable.
  std::uint32_t parent_link = kNoLink;
};
static_assert(sizeof(Route) == 16);

/// All-pairs routes over the subgraph that survives `blocked`, one row of
/// n Routes per source. Row `src` equals dijkstra_filtered(g, src,
/// blocked): latency, parent, and hops = the length of extract_path's
/// path minus one; it is built by one Dijkstra from `src`. Immutable once
/// built, so holders share it (the simulator's copy-on-write rule: a
/// network whose routers fail builds a private replacement instead of
/// editing it).
class RouteTable {
 public:
  /// Sources per block, the grain of the build. The constructor builds
  /// the blocks on min(hardware threads, blocks) threads, itself plus
  /// helpers it joins before returning, so a graph of at most 64 nodes
  /// starts no thread. Rows are independent and blocks fixed, so the
  /// table's bytes never depend on how many threads built it.
  static constexpr std::size_t kSourceBlock = 64;

  /// `blocked` is empty (nothing blocked) or has node_count() entries.
  explicit RouteTable(const Graph& g, const std::vector<bool>& blocked = {});

  std::size_t node_count() const { return n_; }
  const Route& route(NodeId src, NodeId dst) const {
    CCNOPT_EXPECTS(src < n_ && dst < n_);
    return routes_[static_cast<std::size_t>(src) * n_ + dst];
  }
  std::span<const Route> row(NodeId src) const {
    CCNOPT_EXPECTS(src < n_);
    return {routes_.data() + static_cast<std::size_t>(src) * n_, n_};
  }
  /// `v`'s parent on `src`'s tree, i.e. the next hop from v toward src.
  /// Precondition: v != src and v reachable from src.
  NodeId parent(NodeId src, NodeId v) const {
    return across(route(src, v).parent_link, v);
  }
  /// The other end of graph.links()[link] from its endpoint `v`.
  NodeId across(std::uint32_t link, NodeId v) const {
    CCNOPT_ASSERT(link < link_ends_.size());
    return v ^ link_ends_[link];
  }

 private:
  std::size_t n_ = 0;
  std::vector<Route> routes_;      // row-major, n_ x n_
  std::vector<NodeId> link_ends_;  // links()[i].u ^ links()[i].v
};

}  // namespace ccnopt::topology
