// RouteTable: every row against the per-source Dijkstra it replaces (hops
// are the edges of that Dijkstra's path), the link ids adjacency entries
// carry, and the committed digests of two multi-block tables.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ccnopt/common/random.hpp"
#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/generators.hpp"
#include "ccnopt/topology/route_table.hpp"
#include "golden.hpp"

namespace ccnopt::topology {
namespace {

Graph waxman300() {
  Rng rng(300);
  return make_waxman(300, rng);
}

/// Checks every row of RouteTable(g, blocked) against dijkstra_filtered:
/// latency, parent, and hops = the edges of extract_path's path.
void expect_rows_match(const Graph& g, const std::vector<bool>& blocked) {
  const RouteTable table(g, blocked);
  ASSERT_EQ(table.node_count(), g.node_count());
  const std::vector<bool> oracle_blocked =
      blocked.empty() ? std::vector<bool>(g.node_count(), false) : blocked;
  std::size_t mismatches = 0;
  for (NodeId src = 0; src < g.node_count(); ++src) {
    const SsspResult sssp = dijkstra_filtered(g, src, oracle_blocked);
    for (NodeId dst = 0; dst < g.node_count(); ++dst) {
      const Route& route = table.route(src, dst);
      const std::vector<NodeId> path = extract_path(sssp, src, dst);
      const std::uint32_t hops =
          path.empty() ? kUnreachableHops
                       : static_cast<std::uint32_t>(path.size() - 1);
      bool same = route.latency_ms == sssp.latency_ms[dst] &&
                  route.hops == hops;
      if (sssp.parent[dst] == kNoParent) {
        same = same && route.parent_link == kNoLink;
      } else {
        same = same && table.parent(src, dst) == sssp.parent[dst];
      }
      if (!same) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << g.name();
}

/// Blocks nodes 1, 1 + k, 1 + 2k, ...
std::vector<bool> every_kth_blocked(const Graph& g, std::size_t k) {
  std::vector<bool> blocked(g.node_count(), false);
  for (std::size_t v = 1; v < g.node_count(); v += k) blocked[v] = true;
  return blocked;
}

TEST(RouteTable, RowsMatchDijkstraAndBfsOnDatasets) {
  for (const Graph& g : all_datasets()) {
    expect_rows_match(g, {});
    expect_rows_match(g, std::vector<bool>(g.node_count(), false));
  }
}

TEST(RouteTable, RowsMatchDijkstraAndBfsOnWaxman300) {
  expect_rows_match(waxman300(), {});
}

TEST(RouteTable, RowsMatchFilteredSearchesWithBlockedNodes) {
  for (const Graph& g : all_datasets()) {
    expect_rows_match(g, every_kth_blocked(g, 5));
  }
  const Graph g = waxman300();
  expect_rows_match(g, every_kth_blocked(g, 37));
}

TEST(RouteTable, BlockedSourceRowIsUnreachable) {
  const Graph g = make_ring(6, 1.0);
  std::vector<bool> blocked(6, false);
  blocked[2] = true;
  const RouteTable table(g, blocked);
  for (const Route& route : table.row(2)) {
    EXPECT_GE(route.latency_ms, kUnreachable);
    EXPECT_EQ(route.hops, kUnreachableHops);
    EXPECT_EQ(route.parent_link, kNoLink);
  }
  EXPECT_EQ(table.route(1, 3).hops, 4u);  // around the back of the ring
}

TEST(RouteTable, DisconnectionIsDetected) {
  // Line 0-1-2-3: blocking 1 splits {0} from {2, 3}.
  const Graph g = make_line(4, 1.0);
  std::vector<bool> blocked(4, false);
  blocked[1] = true;
  const RouteTable table(g, blocked);
  EXPECT_GE(table.route(0, 2).latency_ms, kUnreachable);
  EXPECT_DOUBLE_EQ(table.route(2, 3).latency_ms, 1.0);
  EXPECT_DOUBLE_EQ(table.route(0, 0).latency_ms, 0.0);
}

TEST(RouteTable, AllPairsReadsTheTable) {
  // all_pairs copies the latencies. The table's tree hops never undercut
  // BFS's minimum hops, and on CERNET some latency-shortest paths are
  // longer in hops than the fewest-hop one.
  const Graph g = cernet();
  const RouteTable table(g);
  const AllPairs pairs = all_pairs(g);
  std::size_t longer = 0;
  for (NodeId src = 0; src < g.node_count(); ++src) {
    const std::vector<std::uint32_t> min_hops = bfs_hops(g, src);
    for (NodeId dst = 0; dst < g.node_count(); ++dst) {
      EXPECT_EQ(pairs.latency_ms(src, dst), table.route(src, dst).latency_ms);
      EXPECT_GE(table.route(src, dst).hops, min_hops[dst]);
      if (table.route(src, dst).hops > min_hops[dst]) ++longer;
    }
  }
  EXPECT_GT(longer, 0u);
}

TEST(RouteTable, EdgeLinksMapBackToLinks) {
  std::vector<Graph> graphs = all_datasets();
  graphs.push_back(waxman300());
  for (const Graph& g : graphs) {
    const auto& links = g.links();
    for (NodeId u = 0; u < g.node_count(); ++u) {
      for (const Edge& e : g.neighbors(u)) {
        ASSERT_LT(e.link, links.size()) << g.name();
        const Graph::Link& link = links[e.link];
        EXPECT_EQ(link.u, std::min(u, e.to)) << g.name();
        EXPECT_EQ(link.v, std::max(u, e.to)) << g.name();
        EXPECT_EQ(link.latency_ms, e.latency_ms) << g.name();
      }
    }
  }
}

/// FNV-1a-64 over every Route's latency bits, hops and parent link, rows
/// in source order.
std::uint64_t routes_digest(const RouteTable& table) {
  golden::Fnv1a hash;
  hash.u64(table.node_count());
  for (NodeId src = 0; src < table.node_count(); ++src) {
    for (const Route& route : table.row(src)) {
      hash.f64(route.latency_ms);
      hash.u64(route.hops);
      hash.u64(route.parent_link);
    }
  }
  return hash.value();
}

TEST(RouteTable, BuildsOnOneAndFourWorkersAreByteIdentical) {
  // Both tables span several blocks, so helper threads build some of
  // them; the digests were taken from a one-thread build.
  for (const std::size_t n : {std::size_t{300}, std::size_t{1000}}) {
    Rng rng(n);
    golden::expect_committed(CCNOPT_TOPOLOGY_GOLDEN,
                             "waxman" + std::to_string(n) + "/routes",
                             routes_digest(RouteTable(make_waxman(n, rng))));
  }
}

}  // namespace
}  // namespace ccnopt::topology
