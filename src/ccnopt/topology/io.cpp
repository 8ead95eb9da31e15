#include "ccnopt/topology/io.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "ccnopt/common/strings.hpp"

namespace ccnopt::topology {

void write_dot(const Graph& g, std::ostream& out) {
  out << "graph \"" << g.name() << "\" {\n";
  out << "  layout=neato;\n";
  for (NodeId id = 0; id < g.node_count(); ++id) {
    const NodeInfo& node = g.node(id);
    // DOT pos: x=longitude, y=latitude, loosely scaled for neato.
    out << "  \"" << node.name << "\" [pos=\""
        << format_double(node.location.lon_deg / 2.0, 3) << ","
        << format_double(node.location.lat_deg / 2.0, 3) << "!\"];\n";
  }
  for (const Graph::Link& link : g.links()) {
    out << "  \"" << g.node(link.u).name << "\" -- \"" << g.node(link.v).name
        << "\" [label=\"" << format_double(link.latency_ms, 1) << "\"];\n";
  }
  out << "}\n";
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << "# ccnopt edge list\n";
  out << "graph " << g.name() << "\n";
  for (NodeId id = 0; id < g.node_count(); ++id) {
    const NodeInfo& node = g.node(id);
    out << "node " << node.name << " "
        << format_double(node.location.lat_deg, 6) << " "
        << format_double(node.location.lon_deg, 6) << "\n";
  }
  for (const Graph::Link& link : g.links()) {
    out << "edge " << g.node(link.u).name << " " << g.node(link.v).name << " "
        << format_double(link.latency_ms, 6) << "\n";
  }
}

namespace {

Status parse_error(int line, const std::string& message) {
  return Status(ErrorCode::kParseError,
                "line " + std::to_string(line) + ": " + message);
}

Expected<double> parse_double(const std::string& token, int line) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &consumed);
  } catch (const std::out_of_range&) {
    // Overflow, and underflow into the subnormals (e.g. 1e-320).
    return parse_error(line, "number out of range: '" + token + "'");
  } catch (const std::invalid_argument&) {
    return parse_error(line, "expected a number, got '" + token + "'");
  }
  if (consumed != token.size()) {
    return parse_error(line, "trailing junk in number '" + token + "'");
  }
  return value;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) tokens.push_back(token);
  return tokens;
}

}  // namespace

Expected<Graph> read_edge_list(std::istream& in) {
  Graph graph("unnamed");
  bool named = false;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const std::vector<std::string> tokens = tokenize(std::string(trimmed));

    if (tokens[0] == "graph") {
      if (tokens.size() != 2) {
        return parse_error(line_number, "graph takes exactly one name");
      }
      if (named) return parse_error(line_number, "duplicate graph line");
      graph = Graph(tokens[1]);
      named = true;
    } else if (tokens[0] == "node") {
      if (tokens.size() != 4) {
        return parse_error(line_number, "node takes: name lat lon");
      }
      if (graph.find_node(tokens[1]).has_value()) {
        return parse_error(line_number, "duplicate node " + tokens[1]);
      }
      const auto lat = parse_double(tokens[2], line_number);
      if (!lat) return lat.status();
      const auto lon = parse_double(tokens[3], line_number);
      if (!lon) return lon.status();
      // The negated range tests reject NaN as well.
      if (!(std::abs(*lat) <= 90.0) || !(std::abs(*lon) <= 180.0)) {
        return parse_error(line_number,
                           "coordinates must be finite, latitude within "
                           "+-90 and longitude within +-180");
      }
      graph.add_node(NodeInfo{tokens[1], GeoPoint{*lat, *lon}});
    } else if (tokens[0] == "edge") {
      if (tokens.size() != 4) {
        return parse_error(line_number, "edge takes: a b latency_ms");
      }
      const auto a = graph.find_node(tokens[1]);
      if (!a) return parse_error(line_number, "unknown node " + tokens[1]);
      const auto b = graph.find_node(tokens[2]);
      if (!b) return parse_error(line_number, "unknown node " + tokens[2]);
      const auto latency = parse_double(tokens[3], line_number);
      if (!latency) return latency.status();
      if (const Status status = graph.add_edge(*a, *b, *latency);
          !status.is_ok()) {
        return parse_error(line_number, status.message());
      }
    } else {
      return parse_error(line_number, "unknown directive " + tokens[0]);
    }
  }
  return graph;
}

Expected<Graph> read_edge_list_string(const std::string& text) {
  std::istringstream stream(text);
  return read_edge_list(stream);
}

}  // namespace ccnopt::topology
