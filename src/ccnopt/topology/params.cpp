#include "ccnopt/topology/params.hpp"

#include <algorithm>

#include "ccnopt/common/assert.hpp"

namespace ccnopt::topology {

TopologyParameters derive_parameters(const Graph& g) {
  CCNOPT_EXPECTS(g.node_count() >= 2);
  CCNOPT_EXPECTS(g.is_connected());

  // Latencies from the route table; hops are Table III's minimum hop
  // counts, one BFS per source.
  const AllPairs table = all_pairs(g);
  const std::size_t n = g.node_count();

  TopologyParameters params;
  params.name = g.name();
  params.n = n;
  params.directed_edges = g.directed_edge_count();

  double max_latency = 0.0;
  double sum_latency = 0.0;
  double sum_hops = 0.0;
  std::uint32_t max_hops = 0;
  for (NodeId i = 0; i < n; ++i) {
    const std::vector<std::uint32_t> hops = bfs_hops(g, i);
    for (NodeId j = 0; j < n; ++j) {
      const double d = table.latency_ms(i, j);
      const std::uint32_t h = hops[j];
      CCNOPT_ASSERT(d < kUnreachable);
      max_latency = std::max(max_latency, d);
      sum_latency += d;
      sum_hops += static_cast<double>(h);
      max_hops = std::max(max_hops, h);
    }
  }
  const double pairs = static_cast<double>(n) * static_cast<double>(n);
  params.unit_cost_w_ms = max_latency;
  params.mean_latency_ms = sum_latency / pairs;
  params.mean_hops = sum_hops / pairs;
  params.diameter_hops = static_cast<double>(max_hops);
  return params;
}

}  // namespace ccnopt::topology
