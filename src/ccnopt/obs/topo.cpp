#include "ccnopt/obs/topo.hpp"

#include <algorithm>
#include <ostream>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/obs/export.hpp"

namespace ccnopt::obs {

TopoRecorder::TopoRecorder(
    std::string topology, std::size_t router_count,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> links)
    : topology_(std::move(topology)), replications_(1) {
  CCNOPT_EXPECTS(router_count >= 1);
  nodes_.resize(router_count);
  links_.reserve(links.size());
  for (const auto& [u, v] : links) {
    CCNOPT_EXPECTS(u < v);
    CCNOPT_EXPECTS(v < router_count);
    links_.push_back(TopoLinkStats{u, v, 0});
  }
}

void TopoRecorder::on_request(std::uint32_t first_hop, std::uint32_t tier,
                              std::uint32_t served_by, double latency_ms,
                              std::uint32_t hops) {
  CCNOPT_ASSERT(first_hop < nodes_.size());
  CCNOPT_ASSERT(served_by < nodes_.size());
  TopoNodeStats& node = nodes_[first_hop];
  ++node.requests;
  node.latency_ms_sum += latency_ms;
  node.hops_sum += hops;
  switch (tier) {
    case kTopoTierLocal:
      ++node.local;
      break;
    case kTopoTierNetwork:
      ++node.network;
      ++nodes_[served_by].served_for_peers;
      break;
    case kTopoTierOrigin:
      ++node.origin;
      break;
    default:
      CCNOPT_ASSERT(false);
  }
}

void TopoRecorder::on_placement(std::uint32_t node, std::uint32_t depth) {
  CCNOPT_ASSERT(node < nodes_.size());
  ++nodes_[node].placements;
  if (depth >= placement_depths_.size()) {
    placement_depths_.resize(depth + 1, 0);
  }
  ++placement_depths_[depth];
}

void TopoRecorder::set_router_cache(std::uint32_t id, std::uint64_t evictions,
                                    std::uint64_t insertions,
                                    std::uint64_t occupancy,
                                    std::uint64_t capacity) {
  CCNOPT_EXPECTS(id < nodes_.size());
  nodes_[id].evictions = evictions;
  nodes_[id].insertions = insertions;
  nodes_[id].occupancy = occupancy;
  nodes_[id].capacity = capacity;
}

void TopoRecorder::add_link_traversals(
    const std::vector<std::uint64_t>& counts) {
  CCNOPT_EXPECTS(counts.size() == links_.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    links_[i].traversals += counts[i];
  }
}

void TopoRecorder::merge(const TopoRecorder& other) {
  if (!other.enabled()) return;
  if (!enabled()) {
    *this = other;
    return;
  }
  replications_ += other.replications_;
  absorb(other);
}

void TopoRecorder::absorb(const TopoRecorder& other) {
  if (!other.enabled()) return;
  CCNOPT_EXPECTS(enabled());
  CCNOPT_EXPECTS(other.topology_ == topology_);
  CCNOPT_EXPECTS(other.nodes_.size() == nodes_.size());
  CCNOPT_EXPECTS(other.links_.empty() ||
                 other.links_.size() == links_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    TopoNodeStats& mine = nodes_[i];
    const TopoNodeStats& theirs = other.nodes_[i];
    mine.requests += theirs.requests;
    mine.local += theirs.local;
    mine.network += theirs.network;
    mine.origin += theirs.origin;
    mine.served_for_peers += theirs.served_for_peers;
    mine.placements += theirs.placements;
    mine.latency_ms_sum += theirs.latency_ms_sum;
    mine.hops_sum += theirs.hops_sum;
    mine.evictions += theirs.evictions;
    mine.insertions += theirs.insertions;
    mine.occupancy += theirs.occupancy;
    mine.capacity += theirs.capacity;
  }
  for (std::size_t i = 0; i < other.links_.size(); ++i) {
    CCNOPT_EXPECTS(other.links_[i].u == links_[i].u);
    CCNOPT_EXPECTS(other.links_[i].v == links_[i].v);
    links_[i].traversals += other.links_[i].traversals;
  }
  if (other.placement_depths_.size() > placement_depths_.size()) {
    placement_depths_.resize(other.placement_depths_.size(), 0);
  }
  for (std::size_t d = 0; d < other.placement_depths_.size(); ++d) {
    placement_depths_[d] += other.placement_depths_[d];
  }
}

std::uint64_t TopoRecorder::total_requests() const {
  std::uint64_t total = 0;
  for (const TopoNodeStats& node : nodes_) total += node.requests;
  return total;
}

std::uint64_t TopoRecorder::total_placements() const {
  std::uint64_t total = 0;
  for (const TopoNodeStats& node : nodes_) total += node.placements;
  return total;
}

std::uint64_t TopoRecorder::total_link_traversals() const {
  std::uint64_t total = 0;
  for (const TopoLinkStats& link : links_) total += link.traversals;
  return total;
}

std::uint64_t TopoRecorder::max_link_load() const {
  std::uint64_t worst = 0;
  for (const TopoLinkStats& link : links_) {
    worst = std::max(worst, link.traversals);
  }
  return worst;
}

double TopoRecorder::mean_placement_depth() const {
  std::uint64_t count = 0;
  std::uint64_t depth_sum = 0;
  for (std::size_t d = 0; d < placement_depths_.size(); ++d) {
    count += placement_depths_[d];
    depth_sum += placement_depths_[d] * d;
  }
  return count == 0 ? 0.0
                    : static_cast<double>(depth_sum) /
                          static_cast<double>(count);
}

void write_topo_json(std::ostream& out, const TopoRecorder& topo) {
  out << "{\n  \"schema\": \"ccnopt-topo-v1\",\n  \"topology\": \""
      << json_escape(topo.topology()) << "\",\n  \"routers\": "
      << topo.nodes().size() << ",\n  \"links\": " << topo.links().size()
      << ",\n  \"replications\": " << topo.replications()
      << ",\n  \"placement_depths\": [";
  const std::vector<std::uint64_t>& depths = topo.placement_depths();
  for (std::size_t d = 0; d < depths.size(); ++d) {
    out << (d ? ", " : "") << depths[d];
  }
  out << "],\n  \"nodes\": [";
  bool first = true;
  for (std::size_t id = 0; id < topo.nodes().size(); ++id) {
    const TopoNodeStats& node = topo.nodes()[id];
    out << (first ? "\n" : ",\n") << "    {\"id\": " << id
        << ", \"requests\": " << node.requests
        << ", \"local\": " << node.local << ", \"network\": " << node.network
        << ", \"origin\": " << node.origin
        << ", \"misses\": " << node.requests - node.local
        << ", \"served_for_peers\": " << node.served_for_peers
        << ", \"placements\": " << node.placements
        << ", \"latency_ms_sum\": " << json_number(node.latency_ms_sum)
        << ", \"hops_sum\": " << node.hops_sum
        << ", \"evictions\": " << node.evictions
        << ", \"insertions\": " << node.insertions
        << ", \"occupancy\": " << node.occupancy
        << ", \"capacity\": " << node.capacity << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "],\n  \"edges\": [";
  first = true;
  for (const TopoLinkStats& link : topo.links()) {
    out << (first ? "\n" : ",\n") << "    {\"u\": " << link.u
        << ", \"v\": " << link.v << ", \"traversals\": " << link.traversals
        << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "]\n}\n";
}

void write_topo_csv(std::ostream& out, const TopoRecorder& topo) {
  out << "kind,id,u,v,requests,local,network,origin,misses,"
         "served_for_peers,placements,latency_ms_sum,hops_sum,evictions,"
         "insertions,occupancy,capacity,traversals,count\n";
  for (std::size_t id = 0; id < topo.nodes().size(); ++id) {
    const TopoNodeStats& node = topo.nodes()[id];
    out << "node," << id << ",,," << node.requests << "," << node.local << ","
        << node.network << "," << node.origin << ","
        << node.requests - node.local << "," << node.served_for_peers << ","
        << node.placements << "," << json_number(node.latency_ms_sum) << ","
        << node.hops_sum << "," << node.evictions << "," << node.insertions
        << "," << node.occupancy << "," << node.capacity << ",,\n";
  }
  for (const TopoLinkStats& link : topo.links()) {
    out << "edge,," << link.u << "," << link.v
        << ",,,,,,,,,,,,,," << link.traversals << ",\n";
  }
  const std::vector<std::uint64_t>& depths = topo.placement_depths();
  for (std::size_t d = 0; d < depths.size(); ++d) {
    out << "depth," << d << ",,,,,,,,,,,,,,,,," << depths[d] << "\n";
  }
}

}  // namespace ccnopt::obs
