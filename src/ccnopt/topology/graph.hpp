// Undirected weighted network graph: routers as nodes, links carrying a
// one-way latency in milliseconds. This is the substrate from which the
// paper's Table III parameters (n, w, d1 - d0) are derived.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ccnopt/common/error.hpp"

namespace ccnopt::topology {

using NodeId = std::uint32_t;

/// Geographic coordinates (degrees); used by the latency model.
struct GeoPoint {
  double lat_deg = 0.0;
  double lon_deg = 0.0;
};

struct NodeInfo {
  std::string name;
  GeoPoint location;
};

/// One directed half of an undirected link.
struct Edge {
  NodeId to = 0;
  std::uint32_t link = 0;  ///< index of the undirected link in links()
  double latency_ms = 0.0;
};

class Graph {
 public:
  explicit Graph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a node and returns its id (ids are dense, 0-based).
  NodeId add_node(NodeInfo info);

  /// Adds an undirected link with a positive latency. Rejects self-loops,
  /// unknown endpoints, duplicate links, and a latency that is not
  /// positive, or not below kUnreachable / 2^32 (NaN and infinity
  /// included).
  Status add_edge(NodeId u, NodeId v, double latency_ms);

  std::size_t node_count() const { return nodes_.size(); }
  /// Number of undirected links.
  std::size_t undirected_edge_count() const { return edge_count_; }
  /// Number of directed adjacency entries (= 2x undirected); this is the
  /// |E| convention of the paper's Table II.
  std::size_t directed_edge_count() const { return 2 * edge_count_; }

  /// Precondition: id < node_count().
  const NodeInfo& node(NodeId id) const;

  /// Adjacency list of `id`; precondition: id < node_count().
  std::span<const Edge> neighbors(NodeId id) const;

  bool has_edge(NodeId u, NodeId v) const;

  /// Latency of link (u, v); kNotFound if absent.
  Expected<double> edge_latency(NodeId u, NodeId v) const;

  /// Node id by exact name; kNotFound if absent.
  Expected<NodeId> find_node(const std::string& name) const;

  /// True iff every node is reachable from node 0 (or the graph is empty).
  bool is_connected() const;

  /// All undirected links as (u, v, latency) with u < v, in insertion order.
  struct Link {
    NodeId u;
    NodeId v;
    double latency_ms;
  };
  const std::vector<Link>& links() const { return links_; }

 private:
  std::string name_;
  std::vector<NodeInfo> nodes_;
  std::vector<std::vector<Edge>> adjacency_;
  std::vector<Link> links_;
  std::unordered_map<std::string, NodeId> by_name_;
  std::size_t edge_count_ = 0;
};

}  // namespace ccnopt::topology
