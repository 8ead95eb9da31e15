#include "ccnopt/topology/graph.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ccnopt/topology/shortest_paths.hpp"

namespace ccnopt::topology {
namespace {

Graph triangle() {
  Graph g("tri");
  const NodeId a = g.add_node({"a", {}});
  const NodeId b = g.add_node({"b", {}});
  const NodeId c = g.add_node({"c", {}});
  EXPECT_TRUE(g.add_edge(a, b, 1.0).is_ok());
  EXPECT_TRUE(g.add_edge(b, c, 2.0).is_ok());
  EXPECT_TRUE(g.add_edge(a, c, 3.0).is_ok());
  return g;
}

TEST(Graph, NodeIdsAreDense) {
  Graph g("g");
  EXPECT_EQ(g.add_node({"n0", {}}), 0u);
  EXPECT_EQ(g.add_node({"n1", {}}), 1u);
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.node(0).name, "n0");
}

TEST(Graph, EdgeCountsBothConventions) {
  const Graph g = triangle();
  EXPECT_EQ(g.undirected_edge_count(), 3u);
  EXPECT_EQ(g.directed_edge_count(), 6u);  // the paper's Table II convention
}

TEST(Graph, EdgesAreBidirectional) {
  const Graph g = triangle();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_DOUBLE_EQ(*g.edge_latency(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(*g.edge_latency(1, 0), 1.0);
}

TEST(Graph, NeighborsSpan) {
  const Graph g = triangle();
  EXPECT_EQ(g.neighbors(0).size(), 2u);
  EXPECT_EQ(g.neighbors(1).size(), 2u);
}

TEST(Graph, RejectsSelfLoop) {
  Graph g("g");
  const NodeId a = g.add_node({"a", {}});
  const Status status = g.add_edge(a, a, 1.0);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST(Graph, RejectsUnknownNodes) {
  Graph g("g");
  g.add_node({"a", {}});
  EXPECT_EQ(g.add_edge(0, 5, 1.0).code(), ErrorCode::kOutOfRange);
}

TEST(Graph, RejectsNonPositiveLatency) {
  Graph g("g");
  const NodeId a = g.add_node({"a", {}});
  const NodeId b = g.add_node({"b", {}});
  EXPECT_EQ(g.add_edge(a, b, 0.0).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(g.add_edge(a, b, -1.0).code(), ErrorCode::kInvalidArgument);
  // NaN, infinity and anything from kUnreachable / 2^32 up are rejected
  // too: below that bound no simple path reaches the unreachable sentinel.
  for (const double latency :
       {std::nan(""), std::numeric_limits<double>::infinity(), 1e300,
        kUnreachable / 0x1p32}) {
    EXPECT_EQ(g.add_edge(a, b, latency).code(), ErrorCode::kInvalidArgument)
        << latency;
  }
  EXPECT_EQ(g.undirected_edge_count(), 0u);
  EXPECT_TRUE(g.add_edge(a, b, 1e8).is_ok());
}

TEST(Graph, RejectsDuplicateEdge) {
  Graph g("g");
  const NodeId a = g.add_node({"a", {}});
  const NodeId b = g.add_node({"b", {}});
  EXPECT_TRUE(g.add_edge(a, b, 1.0).is_ok());
  EXPECT_EQ(g.add_edge(b, a, 2.0).code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(g.undirected_edge_count(), 1u);
}

TEST(Graph, FindNodeByName) {
  const Graph g = triangle();
  EXPECT_EQ(*g.find_node("b"), 1u);
  EXPECT_EQ(g.find_node("zzz").status().code(), ErrorCode::kNotFound);
}

TEST(Graph, ConnectivityDetection) {
  EXPECT_TRUE(triangle().is_connected());
  Graph g("disc");
  g.add_node({"a", {}});
  g.add_node({"b", {}});
  EXPECT_FALSE(g.is_connected());
  Graph empty("e");
  EXPECT_TRUE(empty.is_connected());
}

TEST(Graph, LinksNormalizedLowIdFirst) {
  Graph g("g");
  const NodeId a = g.add_node({"a", {}});
  const NodeId b = g.add_node({"b", {}});
  EXPECT_TRUE(g.add_edge(b, a, 4.0).is_ok());
  ASSERT_EQ(g.links().size(), 1u);
  EXPECT_EQ(g.links()[0].u, a);
  EXPECT_EQ(g.links()[0].v, b);
  EXPECT_DOUBLE_EQ(g.links()[0].latency_ms, 4.0);
}

TEST(GraphDeath, NodeAccessorBoundsChecked) {
  const Graph g = triangle();
  EXPECT_DEATH((void)g.node(3), "precondition");
  EXPECT_DEATH((void)g.neighbors(3), "precondition");
}

}  // namespace
}  // namespace ccnopt::topology
