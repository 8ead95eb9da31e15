#include "ccnopt/topology/graph.hpp"

#include <algorithm>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/topology/shortest_paths.hpp"

namespace ccnopt::topology {

NodeId Graph::add_node(NodeInfo info) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  by_name_.emplace(info.name, id);
  nodes_.push_back(std::move(info));
  adjacency_.emplace_back();
  return id;
}

Status Graph::add_edge(NodeId u, NodeId v, double latency_ms) {
  if (u >= nodes_.size() || v >= nodes_.size()) {
    return Status(ErrorCode::kOutOfRange, "add_edge: unknown node id");
  }
  if (u == v) {
    return Status(ErrorCode::kInvalidArgument, "add_edge: self-loop");
  }
  if (latency_ms <= 0.0) {
    return Status(ErrorCode::kInvalidArgument,
                  "add_edge: latency must be positive");
  }
  // A simple path has fewer than 2^32 links, so below this bound every
  // path's latency stays below the kUnreachable sentinel. NaN fails too.
  if (!(latency_ms < kUnreachable / 0x1p32)) {
    return Status(ErrorCode::kInvalidArgument,
                  "add_edge: latency must be finite and below 2.3e8 ms");
  }
  if (has_edge(u, v)) {
    return Status(ErrorCode::kFailedPrecondition,
                  "add_edge: duplicate link " + nodes_[u].name + " <-> " +
                      nodes_[v].name);
  }
  const auto link = static_cast<std::uint32_t>(links_.size());
  adjacency_[u].push_back(Edge{v, link, latency_ms});
  adjacency_[v].push_back(Edge{u, link, latency_ms});
  links_.push_back(Link{std::min(u, v), std::max(u, v), latency_ms});
  ++edge_count_;
  return Status::ok();
}

const NodeInfo& Graph::node(NodeId id) const {
  CCNOPT_EXPECTS(id < nodes_.size());
  return nodes_[id];
}

std::span<const Edge> Graph::neighbors(NodeId id) const {
  CCNOPT_EXPECTS(id < adjacency_.size());
  return adjacency_[id];
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  if (u >= adjacency_.size()) return false;
  return std::any_of(adjacency_[u].begin(), adjacency_[u].end(),
                     [v](const Edge& e) { return e.to == v; });
}

Expected<double> Graph::edge_latency(NodeId u, NodeId v) const {
  if (u < adjacency_.size()) {
    for (const Edge& e : adjacency_[u]) {
      if (e.to == v) return e.latency_ms;
    }
  }
  return Status(ErrorCode::kNotFound, "edge_latency: no such link");
}

Expected<NodeId> Graph::find_node(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status(ErrorCode::kNotFound, "find_node: no node named " + name);
  }
  return it->second;
}

bool Graph::is_connected() const {
  if (nodes_.empty()) return true;
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const Edge& e : adjacency_[u]) {
      if (!seen[e.to]) {
        seen[e.to] = true;
        ++reached;
        stack.push_back(e.to);
      }
    }
  }
  return reached == nodes_.size();
}

}  // namespace ccnopt::topology
