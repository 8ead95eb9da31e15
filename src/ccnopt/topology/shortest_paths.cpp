#include "ccnopt/topology/shortest_paths.hpp"

#include <algorithm>
#include <queue>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/topology/route_table.hpp"

namespace ccnopt::topology {

SsspResult dijkstra(const Graph& g, NodeId source) {
  return dijkstra_filtered(g, source, std::vector<bool>(g.node_count()));
}

std::vector<NodeId> extract_path(const SsspResult& sssp, NodeId source,
                                 NodeId target) {
  CCNOPT_EXPECTS(target < sssp.parent.size());
  if (sssp.latency_ms[target] >= kUnreachable) return {};
  std::vector<NodeId> path;
  for (NodeId v = target; v != source; v = sssp.parent[v]) {
    CCNOPT_ASSERT(v != kNoParent);
    path.push_back(v);
  }
  path.push_back(source);
  std::reverse(path.begin(), path.end());
  return path;
}

SsspResult dijkstra_filtered(const Graph& g, NodeId source,
                             const std::vector<bool>& blocked) {
  CCNOPT_EXPECTS(source < g.node_count());
  CCNOPT_EXPECTS(blocked.size() == g.node_count());
  const std::size_t n = g.node_count();
  SsspResult result;
  result.latency_ms.assign(n, kUnreachable);
  result.parent.assign(n, kNoParent);
  if (blocked[source]) return result;
  result.latency_ms[source] = 0.0;

  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [dist, u] = heap.top();
    heap.pop();
    if (dist > result.latency_ms[u]) continue;
    for (const Edge& e : g.neighbors(u)) {
      if (blocked[e.to]) continue;
      const double candidate = dist + e.latency_ms;
      if (candidate < result.latency_ms[e.to]) {
        result.latency_ms[e.to] = candidate;
        result.parent[e.to] = u;
        heap.emplace(candidate, e.to);
      }
    }
  }
  return result;
}

std::vector<std::uint32_t> bfs_hops(const Graph& g, NodeId source) {
  CCNOPT_EXPECTS(source < g.node_count());
  std::vector<std::uint32_t> hops(g.node_count(), kUnreachableHops);
  hops[source] = 0;
  std::queue<NodeId> frontier;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const Edge& e : g.neighbors(u)) {
      if (hops[e.to] == kUnreachableHops) {
        hops[e.to] = hops[u] + 1;
        frontier.push(e.to);
      }
    }
  }
  return hops;
}

AllPairs all_pairs(const Graph& g) {
  const RouteTable routes(g);
  const std::size_t n = g.node_count();
  AllPairs table{n, std::vector<double>(n * n)};
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      table.latencies[src * n + dst] = routes.route(src, dst).latency_ms;
    }
  }
  return table;
}

}  // namespace ccnopt::topology
