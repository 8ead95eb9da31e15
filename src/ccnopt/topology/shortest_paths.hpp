// Shortest-path computations: latency-weighted Dijkstra, hop-count BFS,
// an all-pairs latency table, and a Floyd-Warshall cross-check oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "ccnopt/common/matrix.hpp"
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

/// All-pairs Dijkstra latencies (a RouteTable's latency column).
struct AllPairs {
  Matrix<double> latency_ms;
};
AllPairs all_pairs(const Graph& g);

/// Floyd-Warshall all-pairs latencies; O(V^3) oracle used by tests to
/// validate Dijkstra.
Matrix<double> floyd_warshall_latency(const Graph& g);

/// Dijkstra avoiding blocked nodes (failure injection): blocked nodes are
/// neither expanded nor relaxed into; a blocked source yields everything
/// unreachable. `blocked` must have node_count() entries.
SsspResult dijkstra_filtered(const Graph& g, NodeId source,
                             const std::vector<bool>& blocked);

}  // namespace ccnopt::topology
