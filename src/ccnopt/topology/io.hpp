// Topology serialization: Graphviz DOT export (for figures/inspection) and
// a line-oriented edge-list format for loading custom topologies into the
// planner and benches.
//
// Edge-list format (UTF-8 text, '#' comments, blank lines ignored):
//   graph <name>
//   node <name> <lat_deg> <lon_deg>
//   edge <name_a> <name_b> <latency_ms>
// Nodes must be declared before edges reference them.
#pragma once

#include <iosfwd>
#include <string>

#include "ccnopt/common/error.hpp"
#include "ccnopt/topology/graph.hpp"

namespace ccnopt::topology {

/// Writes `g` as an undirected Graphviz DOT graph with latency labels and
/// geographic positions as node attributes.
void write_dot(const Graph& g, std::ostream& out);

/// Writes `g` in the edge-list format above; read_edge_list inverts it.
void write_edge_list(const Graph& g, std::ostream& out);

/// Parses the edge-list format. Fails with kParseError (carrying the line
/// number) on malformed input, unknown node references, duplicate nodes or
/// edges, coordinates that are not finite or lie outside +-90 latitude /
/// +-180 longitude, or latencies Graph::add_edge rejects.
Expected<Graph> read_edge_list(std::istream& in);

/// Convenience: parse from a string.
Expected<Graph> read_edge_list_string(const std::string& text);

}  // namespace ccnopt::topology
