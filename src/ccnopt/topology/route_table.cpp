#include "ccnopt/topology/route_table.hpp"

#include <algorithm>
#include <bit>

namespace ccnopt::topology {
namespace {

/// The surviving subgraph's adjacency in CSR form: node u's entries are
/// edges[offsets[u], offsets[u + 1]), in neighbors(u) order, minus those
/// into blocked nodes; blocked nodes keep none.
struct Csr {
  std::vector<std::uint32_t> offsets;
  std::vector<Edge> edges;
};

Csr surviving_adjacency(const Graph& g, const std::vector<bool>& blocked) {
  const auto alive = [&blocked](NodeId v) {
    return blocked.empty() || !blocked[v];
  };
  Csr csr;
  csr.offsets.reserve(g.node_count() + 1);
  csr.edges.reserve(g.directed_edge_count());
  csr.offsets.push_back(0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (alive(u)) {
      for (const Edge& e : g.neighbors(u)) {
        if (alive(e.to)) csr.edges.push_back(e);
      }
    }
    csr.offsets.push_back(static_cast<std::uint32_t>(csr.edges.size()));
  }
  return csr;
}

/// Fills the rows of one source block into scratch reused across blocks:
/// one Dijkstra per source, then one BFS per source, the block's sources
/// run together as bit lanes of 64-bit words.
class BlockBuilder {
 public:
  BlockBuilder(const Csr& csr, std::size_t n)
      : csr_(csr), dist_(n), pos_(n, kOutside), lanes_(n), seen_(n),
        next_lanes_(n) {}

  /// Dijkstra on an indexed 4-ary min-heap keyed on (distance, node): it
  /// settles nodes in the same order as dijkstra_filtered's lazy heap, and
  /// relaxation is strict in both, so latencies and parents match it.
  void fill_latencies(NodeId src, Route* row) {
    std::fill(dist_.begin(), dist_.end(), kUnreachable);
    dist_[src] = 0.0;
    heap_.assign(1, src);
    pos_[src] = 0;
    while (!heap_.empty()) {
      const NodeId u = heap_.front();
      pos_[u] = kOutside;
      const NodeId last = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_down(last);
      const double dist = dist_[u];
      row[u].latency_ms = dist;
      for (std::uint32_t i = csr_.offsets[u]; i < csr_.offsets[u + 1]; ++i) {
        const Edge& e = csr_.edges[i];
        const double candidate = dist + e.latency_ms;
        if (candidate < dist_[e.to]) {
          dist_[e.to] = candidate;
          row[e.to].parent_link = e.link;
          if (pos_[e.to] == kOutside) {
            pos_[e.to] = static_cast<std::uint32_t>(heap_.size());
            heap_.push_back(e.to);
          }
          sift_up(e.to);
        }
      }
    }
  }

  /// Level-synchronous BFS from every source in [first, first + 64) with
  /// `alive(src)`: bit (src - first) of lanes_[v] marks v as on src's
  /// frontier, seen_[v] as reached.
  template <typename Alive>
  void fill_hops(NodeId first, NodeId last, Route* routes, Alive alive) {
    const std::size_t n = dist_.size();
    frontier_.clear();
    for (NodeId src = first; src < last; ++src) {
      if (!alive(src)) continue;
      const std::uint64_t bit = std::uint64_t{1} << (src - first);
      seen_[src] |= bit;
      lanes_[src] |= bit;
      frontier_.push_back(src);
      routes[src * n + src].hops = 0;
    }
    for (std::uint32_t level = 1; !frontier_.empty(); ++level) {
      reached_.clear();
      for (const NodeId u : frontier_) {
        for (std::uint32_t i = csr_.offsets[u]; i < csr_.offsets[u + 1]; ++i) {
          const NodeId v = csr_.edges[i].to;
          const std::uint64_t fresh = lanes_[u] & ~seen_[v];
          if (fresh == 0) continue;
          if (next_lanes_[v] == 0) reached_.push_back(v);
          next_lanes_[v] |= fresh;
        }
      }
      for (const NodeId u : frontier_) lanes_[u] = 0;
      for (const NodeId v : reached_) {
        const std::uint64_t fresh = next_lanes_[v];
        seen_[v] |= fresh;
        lanes_[v] = fresh;
        next_lanes_[v] = 0;
        for (std::uint64_t bits = fresh; bits != 0; bits &= bits - 1) {
          const auto src = first + static_cast<NodeId>(std::countr_zero(bits));
          routes[src * n + v].hops = level;
        }
      }
      frontier_.swap(reached_);
    }
    std::fill(seen_.begin(), seen_.end(), 0);
  }

 private:
  static constexpr std::uint32_t kOutside = 0xFFFFFFFFu;

  bool before(NodeId a, NodeId b) const {
    return dist_[a] < dist_[b] || (dist_[a] == dist_[b] && a < b);
  }
  void place(NodeId v, std::uint32_t i) {
    heap_[i] = v;
    pos_[v] = i;
  }
  void sift_up(NodeId v) {
    std::uint32_t i = pos_[v];
    while (i > 0) {
      const std::uint32_t parent = (i - 1) / 4;
      if (!before(v, heap_[parent])) break;
      place(heap_[parent], i);
      i = parent;
    }
    place(v, i);
  }
  /// Re-seats `v` from the root downwards after the root was removed.
  void sift_down(NodeId v) {
    const auto size = static_cast<std::uint32_t>(heap_.size());
    std::uint32_t i = 0;
    while (true) {
      const std::uint32_t first = 4 * i + 1;
      if (first >= size) break;
      std::uint32_t best = first;
      for (std::uint32_t c = first + 1; c < std::min(first + 4, size); ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], v)) break;
      place(heap_[best], i);
      i = best;
    }
    place(v, i);
  }

  const Csr& csr_;
  std::vector<double> dist_;
  std::vector<std::uint32_t> pos_;  // heap index, kOutside when not queued
  std::vector<NodeId> heap_;
  std::vector<std::uint64_t> lanes_;       // frontier bits per node
  std::vector<std::uint64_t> seen_;        // reached bits per node
  std::vector<std::uint64_t> next_lanes_;  // next frontier being gathered
  std::vector<NodeId> frontier_;
  std::vector<NodeId> reached_;
};

}  // namespace

static_assert(RouteTable::kSourceBlock <= 64);

RouteTable::RouteTable(const Graph& g, const std::vector<bool>& blocked,
                       const BlockRunner& run_blocks)
    : n_(g.node_count()), routes_(n_ * n_) {
  CCNOPT_EXPECTS(blocked.empty() || blocked.size() == n_);
  link_ends_.reserve(g.links().size());
  for (const Graph::Link& link : g.links()) {
    link_ends_.push_back(link.u ^ link.v);
  }
  const Csr csr = surviving_adjacency(g, blocked);
  const auto alive = [&blocked](std::size_t src) {
    return blocked.empty() || !blocked[src];  // blocked rows stay unreachable
  };
  const auto build_block = [&](std::size_t block) {
    BlockBuilder builder(csr, n_);
    const std::size_t first = block * kSourceBlock;
    const std::size_t last = std::min(n_, first + kSourceBlock);
    for (std::size_t src = first; src < last; ++src) {
      if (alive(src)) {
        builder.fill_latencies(static_cast<NodeId>(src),
                               routes_.data() + src * n_);
      }
    }
    builder.fill_hops(static_cast<NodeId>(first), static_cast<NodeId>(last),
                      routes_.data(), alive);
  };
  const std::size_t blocks = (n_ + kSourceBlock - 1) / kSourceBlock;
  if (run_blocks) {
    run_blocks(blocks, build_block);
  } else {
    for (std::size_t block = 0; block < blocks; ++block) build_block(block);
  }
}

}  // namespace ccnopt::topology
