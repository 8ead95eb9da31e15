#include "ccnopt/topology/generators.hpp"

#include <string>

#include <gtest/gtest.h>

#include "ccnopt/topology/shortest_paths.hpp"
#include "golden.hpp"

namespace ccnopt::topology {
namespace {

TEST(Ring, StructureAndDistances) {
  const Graph g = make_ring(6, 2.0);
  EXPECT_EQ(g.node_count(), 6u);
  EXPECT_EQ(g.undirected_edge_count(), 6u);
  EXPECT_TRUE(g.is_connected());
  const auto hops = bfs_hops(g, 0);
  EXPECT_EQ(hops[3], 3u);  // diameter = n/2
  EXPECT_EQ(hops[5], 1u);  // wraps around
  for (NodeId id = 0; id < 6; ++id) EXPECT_EQ(g.neighbors(id).size(), 2u);
}

TEST(Line, EndpointsHaveDegreeOne) {
  const Graph g = make_line(5);
  EXPECT_EQ(g.undirected_edge_count(), 4u);
  EXPECT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(4).size(), 1u);
  EXPECT_EQ(g.neighbors(2).size(), 2u);
  EXPECT_EQ(bfs_hops(g, 0)[4], 4u);
}

TEST(Star, HubConnectsAllLeaves) {
  const Graph g = make_star(7);
  EXPECT_EQ(g.undirected_edge_count(), 6u);
  EXPECT_EQ(g.neighbors(0).size(), 6u);
  for (NodeId leaf = 1; leaf < 7; ++leaf) {
    EXPECT_EQ(g.neighbors(leaf).size(), 1u);
    EXPECT_EQ(bfs_hops(g, leaf)[leaf == 1 ? 2 : 1], 2u);  // leaf-hub-leaf
  }
}

TEST(Grid, EdgeCountFormula) {
  const Graph g = make_grid(3, 4);
  EXPECT_EQ(g.node_count(), 12u);
  // rows*(cols-1) + cols*(rows-1) = 9 + 8 = 17.
  EXPECT_EQ(g.undirected_edge_count(), 17u);
  EXPECT_TRUE(g.is_connected());
  // Manhattan distance corner to corner.
  EXPECT_EQ(bfs_hops(g, 0)[11], 5u);
}

TEST(Grid, SingleRowIsALine) {
  const Graph g = make_grid(1, 5);
  EXPECT_EQ(g.undirected_edge_count(), 4u);
}

TEST(FullMesh, CompleteGraph) {
  const Graph g = make_full_mesh(5);
  EXPECT_EQ(g.undirected_edge_count(), 10u);
  const auto hops = bfs_hops(g, 2);
  for (NodeId id = 0; id < 5; ++id) {
    EXPECT_EQ(hops[id], id == 2 ? 0u : 1u);
  }
}

TEST(Waxman, AlwaysConnected) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_waxman(40, rng);
    EXPECT_TRUE(g.is_connected());
    EXPECT_EQ(g.node_count(), 40u);
    EXPECT_GE(g.undirected_edge_count(), 39u);  // at least the spanning tree
  }
}

TEST(Waxman, HigherAlphaMoreEdges) {
  Rng rng_sparse(5), rng_dense(5);
  WaxmanOptions sparse;
  sparse.alpha = 0.05;
  WaxmanOptions dense;
  dense.alpha = 0.9;
  std::size_t sparse_edges = 0, dense_edges = 0;
  for (int trial = 0; trial < 5; ++trial) {
    sparse_edges += make_waxman(30, rng_sparse, sparse).undirected_edge_count();
    dense_edges += make_waxman(30, rng_dense, dense).undirected_edge_count();
  }
  EXPECT_GT(dense_edges, sparse_edges);
}

TEST(Waxman, DeterministicGivenSeed) {
  Rng a(123), b(123);
  const Graph ga = make_waxman(25, a);
  const Graph gb = make_waxman(25, b);
  EXPECT_EQ(ga.undirected_edge_count(), gb.undirected_edge_count());
  ASSERT_EQ(ga.links().size(), gb.links().size());
  for (std::size_t i = 0; i < ga.links().size(); ++i) {
    EXPECT_EQ(ga.links()[i].u, gb.links()[i].u);
    EXPECT_EQ(ga.links()[i].v, gb.links()[i].v);
  }
}

TEST(Waxman, LinkListsMatchGolden) {
  // perfbench's 1000-node graph and the route-table tests' 300-node one:
  // every link and the bits of its latency are pinned.
  for (const std::size_t n : {std::size_t{300}, std::size_t{1000}}) {
    Rng rng(n);
    const Graph g = make_waxman(n, rng);
    golden::Fnv1a hash;
    hash.u64(g.node_count());
    hash.u64(g.links().size());
    for (const Graph::Link& link : g.links()) {
      hash.u64(link.u);
      hash.u64(link.v);
      hash.f64(link.latency_ms);
    }
    golden::expect_committed(CCNOPT_TOPOLOGY_GOLDEN,
                             "waxman" + std::to_string(n) + "/links",
                             hash.value());
  }
}

TEST(GeneratorsDeath, PreconditionsEnforced) {
  EXPECT_DEATH((void)make_ring(2), "precondition");
  EXPECT_DEATH((void)make_line(1), "precondition");
  EXPECT_DEATH((void)make_star(1), "precondition");
  EXPECT_DEATH((void)make_grid(1, 1), "precondition");
  EXPECT_DEATH((void)make_full_mesh(1), "precondition");
}

}  // namespace
}  // namespace ccnopt::topology
