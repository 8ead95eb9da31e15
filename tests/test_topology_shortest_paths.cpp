#include "ccnopt/topology/shortest_paths.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ccnopt/common/random.hpp"
#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/generators.hpp"

namespace ccnopt::topology {
namespace {

/// Floyd-Warshall all-pairs latencies, row-major: an O(V^3) oracle that
/// shares no code with Dijkstra.
std::vector<double> floyd_warshall(const Graph& g) {
  const std::size_t n = g.node_count();
  std::vector<double> dist(n * n, kUnreachable);
  for (std::size_t i = 0; i < n; ++i) dist[i * n + i] = 0.0;
  for (const Graph::Link& link : g.links()) {
    double& uv = dist[link.u * n + link.v];
    double& vu = dist[link.v * n + link.u];
    uv = std::min(uv, link.latency_ms);
    vu = std::min(vu, link.latency_ms);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (dist[i * n + k] >= kUnreachable) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const double via = dist[i * n + k] + dist[k * n + j];
        if (via < dist[i * n + j]) dist[i * n + j] = via;
      }
    }
  }
  return dist;
}

Graph weighted_square() {
  // a --1-- b
  // |       |
  // 4       1
  // |       |
  // d --1-- c     shortest a->d is a-b-c-d (3) not a-d (4)
  Graph g("square");
  const NodeId a = g.add_node({"a", {}});
  const NodeId b = g.add_node({"b", {}});
  const NodeId c = g.add_node({"c", {}});
  const NodeId d = g.add_node({"d", {}});
  EXPECT_TRUE(g.add_edge(a, b, 1.0).is_ok());
  EXPECT_TRUE(g.add_edge(b, c, 1.0).is_ok());
  EXPECT_TRUE(g.add_edge(c, d, 1.0).is_ok());
  EXPECT_TRUE(g.add_edge(a, d, 4.0).is_ok());
  return g;
}

TEST(Dijkstra, PrefersCheaperMultiHopPath) {
  const Graph g = weighted_square();
  const SsspResult sssp = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sssp.latency_ms[0], 0.0);
  EXPECT_DOUBLE_EQ(sssp.latency_ms[1], 1.0);
  EXPECT_DOUBLE_EQ(sssp.latency_ms[2], 2.0);
  EXPECT_DOUBLE_EQ(sssp.latency_ms[3], 3.0);  // via b and c
}

TEST(Dijkstra, ParentChainReconstructsPath) {
  const Graph g = weighted_square();
  const SsspResult sssp = dijkstra(g, 0);
  const std::vector<NodeId> path = extract_path(sssp, 0, 3);
  EXPECT_EQ(path, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Dijkstra, UnreachableMarked) {
  Graph g("disc");
  g.add_node({"a", {}});
  g.add_node({"b", {}});
  const SsspResult sssp = dijkstra(g, 0);
  EXPECT_GE(sssp.latency_ms[1], kUnreachable);
  EXPECT_TRUE(extract_path(sssp, 0, 1).empty());
}

TEST(BfsHops, CountsEdgesNotWeights) {
  const Graph g = weighted_square();
  const auto hops = bfs_hops(g, 0);
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[1], 1u);
  EXPECT_EQ(hops[2], 2u);
  EXPECT_EQ(hops[3], 1u);  // hop-wise, the heavy a-d edge is shortest
}

TEST(AllPairs, SymmetricOnUndirectedGraph) {
  // Latencies from the table, minimum hops from BFS (tree hops, which
  // break latency ties by settle order, need not be symmetric).
  const Graph g = abilene();
  const AllPairs table = all_pairs(g);
  std::vector<std::vector<std::uint32_t>> hops;
  for (NodeId i = 0; i < g.node_count(); ++i) hops.push_back(bfs_hops(g, i));
  for (NodeId i = 0; i < g.node_count(); ++i) {
    EXPECT_DOUBLE_EQ(table.latency_ms(i, i), 0.0);
    EXPECT_EQ(hops[i][i], 0u);
    for (NodeId j = 0; j < g.node_count(); ++j) {
      EXPECT_DOUBLE_EQ(table.latency_ms(i, j), table.latency_ms(j, i));
      EXPECT_EQ(hops[i][j], hops[j][i]);
    }
  }
}

TEST(AllPairs, TriangleInequalityHolds) {
  const Graph g = geant();
  const AllPairs table = all_pairs(g);
  const std::size_t n = g.node_count();
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      for (NodeId k = 0; k < n; ++k) {
        EXPECT_LE(table.latency_ms(i, j),
                  table.latency_ms(i, k) + table.latency_ms(k, j) + 1e-9);
      }
    }
  }
}

TEST(FloydWarshall, AgreesWithDijkstraOnDatasets) {
  for (const Graph& g : all_datasets()) {
    const AllPairs table = all_pairs(g);
    const std::vector<double> fw = floyd_warshall(g);
    const std::size_t n = g.node_count();
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        EXPECT_NEAR(table.latency_ms(i, j), fw[i * n + j], 1e-9)
            << g.name() << " " << i << "->" << j;
      }
    }
  }
}

TEST(FloydWarshall, AgreesWithDijkstraOnRandomGraphs) {
  Rng rng(20240706);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = make_waxman(30, rng);
    const AllPairs table = all_pairs(g);
    const std::vector<double> fw = floyd_warshall(g);
    const std::size_t n = g.node_count();
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        EXPECT_NEAR(table.latency_ms(i, j), fw[i * n + j], 1e-9);
      }
    }
  }
}

TEST(ExtractPath, SourceToItself) {
  const Graph g = weighted_square();
  const SsspResult sssp = dijkstra(g, 2);
  EXPECT_EQ(extract_path(sssp, 2, 2), (std::vector<NodeId>{2}));
}

TEST(DijkstraFiltered, NoBlocksMatchesPlainDijkstra) {
  const Graph g = geant();
  const std::vector<bool> none(g.node_count(), false);
  for (NodeId src : {NodeId{0}, NodeId{7}}) {
    const SsspResult plain = dijkstra(g, src);
    const SsspResult filtered = dijkstra_filtered(g, src, none);
    for (NodeId dst = 0; dst < g.node_count(); ++dst) {
      EXPECT_DOUBLE_EQ(plain.latency_ms[dst], filtered.latency_ms[dst]);
    }
  }
}

TEST(DijkstraFiltered, BlockedNodeForcesDetour) {
  // Square a-b-c-d (a-d heavy): blocking b forces a -> d -> c.
  const Graph g = weighted_square();
  std::vector<bool> blocked(4, false);
  blocked[1] = true;
  const SsspResult sssp = dijkstra_filtered(g, 0, blocked);
  EXPECT_DOUBLE_EQ(sssp.latency_ms[2], 5.0);  // a-d (4) + d-c (1)
  EXPECT_GE(sssp.latency_ms[1], kUnreachable);  // blocked node unreachable
}

TEST(DijkstraFiltered, BlockedSourceReachesNothing) {
  const Graph g = weighted_square();
  std::vector<bool> blocked(4, false);
  blocked[0] = true;
  const SsspResult sssp = dijkstra_filtered(g, 0, blocked);
  for (NodeId dst = 0; dst < 4; ++dst) {
    EXPECT_GE(sssp.latency_ms[dst], kUnreachable);
  }
}

}  // namespace
}  // namespace ccnopt::topology
