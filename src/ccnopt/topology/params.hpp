// Extraction of the paper's Table III parameters from a topology
// (Section V-A):
//   n          — number of routers, |V|
//   w          — unit coordination cost, max_{i,j} d_ij (max pairwise
//                shortest-path latency; coordination messages run in
//                parallel, so the slowest pair gates convergence)
//   d1 - d0    — mean shortest-path separation between routers, in both
//                milliseconds (1/|V|^2 * sum d_ij) and minimum hops
//                (1/|V|^2 * sum h_ij, h_ij by BFS); the |V|^2 denominator
//                includes the zero i = j terms, matching the paper's
//                formula.
#pragma once

#include "ccnopt/topology/graph.hpp"
#include "ccnopt/topology/shortest_paths.hpp"

namespace ccnopt::topology {

struct TopologyParameters {
  std::string name;
  std::size_t n = 0;                 // |V|
  std::size_t directed_edges = 0;    // |E| in the paper's Table II convention
  double unit_cost_w_ms = 0.0;       // max pairwise latency
  double mean_latency_ms = 0.0;      // (d1 - d0) in milliseconds
  double mean_hops = 0.0;            // (d1 - d0) in hops
  double diameter_hops = 0.0;        // max pairwise minimum hop count
};

/// Derives the Table III row for `g`. Precondition: g is connected and has
/// at least 2 nodes.
TopologyParameters derive_parameters(const Graph& g);

}  // namespace ccnopt::topology
