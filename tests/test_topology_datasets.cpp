#include "ccnopt/topology/datasets.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "ccnopt/topology/shortest_paths.hpp"

namespace ccnopt::topology {
namespace {

// Table II's |V| and |E| (directed-edge convention) per dataset.
struct TableIIRow {
  const char* name;
  std::size_t v;
  std::size_t e;
};

// Prints the dataset name so discovered test names are the same on every
// build; the default byte dump would include the address of `name`.
void PrintTo(const TableIIRow& row, std::ostream* os) {
  *os << row.name;
}

class Datasets : public ::testing::TestWithParam<TableIIRow> {};

TEST_P(Datasets, MatchesTableII) {
  const auto graph = dataset_by_name(GetParam().name);
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->node_count(), GetParam().v);
  EXPECT_EQ(graph->directed_edge_count(), GetParam().e);
}

TEST_P(Datasets, ConnectedWithPositiveLatencies) {
  const auto graph = dataset_by_name(GetParam().name);
  ASSERT_TRUE(graph.has_value());
  EXPECT_TRUE(graph->is_connected());
  for (const Graph::Link& link : graph->links()) {
    EXPECT_GT(link.latency_ms, 0.0);
    EXPECT_LT(link.latency_ms, 40.0);  // intradomain links, not transoceanic
  }
}

TEST_P(Datasets, AllNodesNamedAndLocated) {
  const auto graph = dataset_by_name(GetParam().name);
  ASSERT_TRUE(graph.has_value());
  for (NodeId id = 0; id < graph->node_count(); ++id) {
    const NodeInfo& node = graph->node(id);
    EXPECT_FALSE(node.name.empty());
    EXPECT_NE(node.location.lat_deg, 0.0);
    EXPECT_NE(node.location.lon_deg, 0.0);
    EXPECT_EQ(*graph->find_node(node.name), id);  // names unique
  }
}

std::string dataset_test_name(
    const ::testing::TestParamInfo<TableIIRow>& param_info) {
  std::string name = param_info.param.name;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    TableII, Datasets,
    ::testing::Values(TableIIRow{"Abilene", 11, 28},
                      TableIIRow{"CERNET", 36, 112},
                      TableIIRow{"GEANT", 23, 74},
                      TableIIRow{"US-A", 20, 80}),
    dataset_test_name);

TEST(Abilene, KnownBackboneLinks) {
  const Graph g = abilene();
  const auto has = [&g](const char* a, const char* b) {
    return g.has_edge(*g.find_node(a), *g.find_node(b));
  };
  EXPECT_TRUE(has("Seattle", "Sunnyvale"));
  EXPECT_TRUE(has("Denver", "KansasCity"));
  EXPECT_TRUE(has("NewYork", "WashingtonDC"));
  EXPECT_FALSE(has("Seattle", "NewYork"));  // coast-to-coast is multi-hop
}

TEST(Abilene, CoastToCoastIsMultiHop) {
  const Graph g = abilene();
  const auto hops = bfs_hops(g, *g.find_node("Seattle"));
  EXPECT_GE(hops[*g.find_node("NewYork")], 3u);
}

TEST(DatasetByName, CaseInsensitiveAliases) {
  EXPECT_TRUE(dataset_by_name("abilene").has_value());
  EXPECT_TRUE(dataset_by_name("ABILENE").has_value());
  EXPECT_TRUE(dataset_by_name("us-a").has_value());
  EXPECT_TRUE(dataset_by_name("USA").has_value());
  EXPECT_TRUE(dataset_by_name("us_a").has_value());
  EXPECT_EQ(dataset_by_name("arpanet").status().code(), ErrorCode::kNotFound);
}

TEST(AllDatasets, FourInTableOrder) {
  const auto datasets = all_datasets();
  ASSERT_EQ(datasets.size(), 4u);
  EXPECT_EQ(datasets[0].name(), "Abilene");
  EXPECT_EQ(datasets[1].name(), "CERNET");
  EXPECT_EQ(datasets[2].name(), "GEANT");
  EXPECT_EQ(datasets[3].name(), "US-A");
  EXPECT_EQ(dataset_names().size(), 4u);
}

}  // namespace
}  // namespace ccnopt::topology
