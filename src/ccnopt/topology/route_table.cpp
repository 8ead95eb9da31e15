#include "ccnopt/topology/route_table.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

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

/// Fills rows with Dijkstra into scratch reused across a block's sources.
class BlockBuilder {
 public:
  BlockBuilder(const Csr& csr, std::size_t n)
      : csr_(csr), dist_(n), pos_(n, kOutside) {}

  /// Dijkstra on an indexed 4-ary min-heap keyed on (distance, node): it
  /// settles nodes in the same order as dijkstra_filtered's lazy heap, and
  /// relaxation is strict in both, so latencies and parents match it. A
  /// node's hops are its parent's plus one, set with the parent, so they
  /// count the edges of its path on this tree.
  void fill_row(NodeId src, Route* row) {
    std::fill(dist_.begin(), dist_.end(), kUnreachable);
    dist_[src] = 0.0;
    row[src].hops = 0;
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
          row[e.to].hops = row[u].hops + 1;
          if (pos_[e.to] == kOutside) {
            pos_[e.to] = static_cast<std::uint32_t>(heap_.size());
            heap_.push_back(e.to);
          }
          sift_up(e.to);
        }
      }
    }
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
};

}  // namespace

RouteTable::RouteTable(const Graph& g, const std::vector<bool>& blocked)
    : n_(g.node_count()), routes_(n_ * n_) {
  CCNOPT_EXPECTS(blocked.empty() || blocked.size() == n_);
  link_ends_.reserve(g.links().size());
  for (const Graph::Link& link : g.links()) {
    link_ends_.push_back(link.u ^ link.v);
  }
  const Csr csr = surviving_adjacency(g, blocked);
  const std::size_t blocks = (n_ + kSourceBlock - 1) / kSourceBlock;
  // Every thread claims the next unbuilt block until none is left. The
  // first exception a thread throws is rethrown once all have stopped.
  std::atomic<std::size_t> next_block{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto build_blocks = [&] {
    try {
      BlockBuilder builder(csr, n_);
      for (std::size_t block = next_block.fetch_add(1); block < blocks;
           block = next_block.fetch_add(1)) {
        const std::size_t first = block * kSourceBlock;
        const std::size_t last = std::min(n_, first + kSourceBlock);
        for (std::size_t src = first; src < last; ++src) {
          // Blocked rows stay unreachable.
          if (blocked.empty() || !blocked[src]) {
            builder.fill_row(static_cast<NodeId>(src),
                             routes_.data() + src * n_);
          }
        }
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  const std::size_t threads = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), blocks);
  {
    std::vector<std::jthread> helpers;  // joined when the scope ends
    try {
      while (helpers.size() + 1 < threads) helpers.emplace_back(build_blocks);
    } catch (const std::system_error&) {
      // A helper that cannot start leaves its blocks to the others.
    }
    build_blocks();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace ccnopt::topology
