#include "ccnopt/topology/io.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ccnopt/common/random.hpp"
#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/generators.hpp"

namespace ccnopt::topology {
namespace {

TEST(EdgeList, RoundTripsAllDatasets) {
  for (const Graph& original : all_datasets()) {
    std::ostringstream out;
    write_edge_list(original, out);
    const auto parsed = read_edge_list_string(out.str());
    ASSERT_TRUE(parsed.has_value()) << original.name();
    EXPECT_EQ(parsed->name(), original.name());
    EXPECT_EQ(parsed->node_count(), original.node_count());
    EXPECT_EQ(parsed->undirected_edge_count(),
              original.undirected_edge_count());
    for (NodeId id = 0; id < original.node_count(); ++id) {
      EXPECT_EQ(parsed->node(id).name, original.node(id).name);
      EXPECT_NEAR(parsed->node(id).location.lat_deg,
                  original.node(id).location.lat_deg, 1e-5);
    }
    for (const Graph::Link& link : original.links()) {
      const auto latency = parsed->edge_latency(link.u, link.v);
      ASSERT_TRUE(latency.has_value());
      EXPECT_NEAR(*latency, link.latency_ms, 1e-5);
    }
  }
}

TEST(EdgeList, ParsesMinimalGraph) {
  const auto graph = read_edge_list_string(
      "# comment\n"
      "graph tiny\n"
      "node a 1.0 2.0\n"
      "node b 3.0 4.0\n"
      "\n"
      "edge a b 7.5\n");
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->name(), "tiny");
  EXPECT_EQ(graph->node_count(), 2u);
  EXPECT_NEAR(*graph->edge_latency(0, 1), 7.5, 1e-12);
  EXPECT_DOUBLE_EQ(graph->node(0).location.lat_deg, 1.0);
}

TEST(EdgeList, ParseErrorsCarryLineNumbers) {
  struct Case {
    const char* text;
    const char* fragment;
  };
  const Case cases[] = {
      {"node a\n", "node takes"},
      {"graph g extra\n", "exactly one name"},
      {"node a 1 2\nnode a 3 4\n", "duplicate node"},
      {"node a 1 2\nedge a b 1\n", "unknown node b"},
      {"node a 1 2\nnode b 3 4\nedge a b zero\n", "expected a number"},
      {"node a 1 2\nnode b 3 4\nedge a b -1\n", "latency"},
      {"teleport a b\n", "unknown directive"},
      {"graph g\ngraph h\n", "duplicate graph"},
      {"node a 1 2\nnode b 3 4\nedge a b 1\nedge b a 2\n", "duplicate link"},
      {"node a 0 0\nnode b 1 1\nedge a b nan\n", "line 3: add_edge: latency"},
      {"node a 0 0\nnode b 1 1\nedge a b inf\n", "line 3: add_edge: latency"},
      {"node a 0 0\nnode b 1 1\nedge a b 1e300\n",
       "line 3: add_edge: latency"},
      {"node a nan 0\n", "line 1: coordinates"},
      {"node a 0 -inf\n", "line 1: coordinates"},
      {"node a 0 0\nnode b 90.5 0\n", "line 2: coordinates"},
      {"node a 0 180.5\n", "line 1: coordinates"},
      {"node a 0 0\nnode b 1 1\nedge a b 1e-320\n",
       "line 3: number out of range: '1e-320'"},
      {"node a 0 0\nnode b 1 1\nedge a b 1e400\n",
       "line 3: number out of range: '1e400'"},
      {"node a 1e400 0\n", "line 1: number out of range: '1e400'"},
  };
  for (const Case& c : cases) {
    const auto graph = read_edge_list_string(c.text);
    ASSERT_FALSE(graph.has_value()) << c.text;
    EXPECT_EQ(graph.status().code(), ErrorCode::kParseError) << c.text;
    EXPECT_NE(graph.status().message().find("line"), std::string::npos);
    EXPECT_NE(graph.status().message().find(c.fragment), std::string::npos)
        << graph.status().message();
  }
}

TEST(EdgeList, NumberWithTrailingJunkRejected) {
  const auto graph = read_edge_list_string("node a 1.0x 2.0\n");
  ASSERT_FALSE(graph.has_value());
  EXPECT_NE(graph.status().message().find("trailing junk"),
            std::string::npos);
}

TEST(EdgeList, CoordinateBoundsAreInclusive) {
  EXPECT_TRUE(read_edge_list_string("node a -90 180\nnode b 90 -180\n")
                  .has_value());
}

TEST(EdgeList, EmptyInputIsAnEmptyGraph) {
  const auto graph = read_edge_list_string("");
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->node_count(), 0u);
}

/// [begin, end) of every whitespace-separated token of `text`.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    const std::size_t begin = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > begin) spans.emplace_back(begin, i);
  }
  return spans;
}

/// One random edit of `text`: a flipped bit, a truncation, a duplicated or
/// dropped token, or a token replaced by a hostile number.
void mutate(std::string& text, Rng& rng) {
  static const char* const kNumbers[] = {
      "1e400", "-1e400", "1e-320", "nan",  "-nan", "inf", "",
      "1e",    ".",      "-",      "0x1p3", "99999999999999999999999"};
  if (text.empty()) return;
  const auto spans = token_spans(text);
  const std::size_t op = rng.uniform_int(0, 4);
  if (op == 0 || spans.empty()) {
    const std::size_t at = rng.uniform_int(0, text.size() - 1);
    text[at] = static_cast<char>(text[at] ^ (1u << rng.uniform_int(0, 7)));
    return;
  }
  if (op == 1) {
    text.resize(rng.uniform_int(0, text.size() - 1));
    return;
  }
  const auto [begin, end] = spans[rng.uniform_int(0, spans.size() - 1)];
  if (op == 2) {
    const std::string copy = text.substr(begin, end - begin);
    text.insert(end, 1, ' ');
    text.insert(end + 1, copy);
  } else if (op == 3) {
    text.erase(begin, end - begin);
  } else {
    text.replace(begin, end - begin,
                 kNumbers[rng.uniform_int(0, std::size(kNumbers) - 1)]);
  }
}

TEST(EdgeList, SeededMutationsFailCleanly) {
  // 2,000 mutants of a valid file, 1-4 edits each, from a fixed seed. Each
  // must parse to a Graph or fail with a line-numbered kParseError; none
  // may abort.
  std::ostringstream out;
  write_edge_list(abilene(), out);
  const std::string valid = out.str();
  Rng rng(20261018);
  int parsed = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text = valid;
    const std::size_t edits = rng.uniform_int(1, 4);
    for (std::size_t e = 0; e < edits; ++e) mutate(text, rng);
    const auto graph = read_edge_list_string(text);
    if (graph) {
      ++parsed;
      continue;
    }
    EXPECT_EQ(graph.status().code(), ErrorCode::kParseError)
        << "trial " << trial << ": " << graph.status().message();
    EXPECT_EQ(graph.status().message().rfind("line ", 0), 0u)
        << "trial " << trial << ": " << graph.status().message();
  }
  // The edits must reach both outcomes, or the harness tests nothing.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, 2000);
}

TEST(Dot, ContainsEveryNodeAndLink) {
  const Graph g = abilene();
  std::ostringstream out;
  write_dot(g, out);
  const std::string dot = out.str();
  EXPECT_NE(dot.find("graph \"Abilene\""), std::string::npos);
  for (NodeId id = 0; id < g.node_count(); ++id) {
    EXPECT_NE(dot.find("\"" + g.node(id).name + "\""), std::string::npos);
  }
  // One "--" per undirected link.
  std::size_t separators = 0;
  for (std::size_t pos = dot.find("--"); pos != std::string::npos;
       pos = dot.find("--", pos + 2)) {
    ++separators;
  }
  EXPECT_EQ(separators, g.undirected_edge_count());
}

TEST(Dot, GeneratedGraphsExportToo) {
  const Graph g = make_grid(2, 3);
  std::ostringstream out;
  write_dot(g, out);
  EXPECT_NE(out.str().find("grid"), std::string::npos);
}

}  // namespace
}  // namespace ccnopt::topology
