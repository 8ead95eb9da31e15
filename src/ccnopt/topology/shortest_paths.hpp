// Shortest-path computations: latency-weighted Dijkstra, hop-count BFS and
// an all-pairs latency table.
#pragma once

#include <cstdint>
#include <vector>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/topology/graph.hpp"

namespace ccnopt::topology {

inline constexpr double kUnreachable = 1e18;
inline constexpr std::uint32_t kUnreachableHops = 0xFFFFFFFFu;
inline constexpr NodeId kNoParent = 0xFFFFFFFFu;

/// Single-source latency-weighted shortest paths.
struct SsspResult {
  std::vector<double> latency_ms;  // kUnreachable where disconnected
  std::vector<NodeId> parent;      // kNoParent at source / unreachable
};
SsspResult dijkstra(const Graph& g, NodeId source);

/// Single-source minimum hop counts (unweighted BFS); kUnreachableHops
/// where disconnected. Table III's hop figures; a simulated request walks
/// the Dijkstra tree instead, whose hops (Route::hops) can be more.
std::vector<std::uint32_t> bfs_hops(const Graph& g, NodeId source);

/// Reconstructs the path source -> target from a Dijkstra parent array;
/// empty if target is unreachable. The result includes both endpoints.
std::vector<NodeId> extract_path(const SsspResult& sssp, NodeId source,
                                 NodeId target);

/// All-pairs Dijkstra latencies (a RouteTable's latency column), row-major.
struct AllPairs {
  std::size_t nodes = 0;
  std::vector<double> latencies;

  double latency_ms(std::size_t src, std::size_t dst) const {
    CCNOPT_EXPECTS(src < nodes && dst < nodes);
    return latencies[src * nodes + dst];
  }
};
AllPairs all_pairs(const Graph& g);

/// Dijkstra avoiding blocked nodes (failure injection): blocked nodes are
/// neither expanded nor relaxed into; a blocked source yields everything
/// unreachable. `blocked` must have node_count() entries.
SsspResult dijkstra_filtered(const Graph& g, NodeId source,
                             const std::vector<bool>& blocked);

}  // namespace ccnopt::topology
