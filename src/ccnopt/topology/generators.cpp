#include "ccnopt/topology/generators.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/topology/geo.hpp"

namespace ccnopt::topology {
namespace {

Graph make_named(const std::string& name, std::size_t n) {
  Graph g(name);
  for (std::size_t i = 0; i < n; ++i) {
    g.add_node(NodeInfo{name + "-" + std::to_string(i), GeoPoint{}});
  }
  return g;
}

void must_add(Graph& g, NodeId u, NodeId v, double latency_ms) {
  const Status status = g.add_edge(u, v, latency_ms);
  CCNOPT_ASSERT(status.is_ok());
}

}  // namespace

Graph make_ring(std::size_t n, double latency_ms) {
  CCNOPT_EXPECTS(n >= 3);
  Graph g = make_named("ring", n);
  for (std::size_t i = 0; i < n; ++i) {
    must_add(g, static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
             latency_ms);
  }
  return g;
}

Graph make_line(std::size_t n, double latency_ms) {
  CCNOPT_EXPECTS(n >= 2);
  Graph g = make_named("line", n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    must_add(g, static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
             latency_ms);
  }
  return g;
}

Graph make_star(std::size_t n, double latency_ms) {
  CCNOPT_EXPECTS(n >= 2);
  Graph g = make_named("star", n);
  for (std::size_t i = 1; i < n; ++i) {
    must_add(g, 0, static_cast<NodeId>(i), latency_ms);
  }
  return g;
}

Graph make_grid(std::size_t rows, std::size_t cols, double latency_ms) {
  CCNOPT_EXPECTS(rows >= 1 && cols >= 1);
  CCNOPT_EXPECTS(rows * cols >= 2);
  Graph g = make_named("grid", rows * cols);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) must_add(g, id(r, c), id(r, c + 1), latency_ms);
      if (r + 1 < rows) must_add(g, id(r, c), id(r + 1, c), latency_ms);
    }
  }
  return g;
}

Graph make_full_mesh(std::size_t n, double latency_ms) {
  CCNOPT_EXPECTS(n >= 2);
  Graph g = make_named("mesh", n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      must_add(g, static_cast<NodeId>(i), static_cast<NodeId>(j), latency_ms);
    }
  }
  return g;
}

Graph make_waxman(std::size_t n, Rng& rng, const WaxmanOptions& options) {
  CCNOPT_EXPECTS(n >= 2);
  CCNOPT_EXPECTS(options.alpha > 0.0 && options.beta > 0.0);
  CCNOPT_EXPECTS(options.side_km > 0.0);

  Graph g("waxman");
  // Treat the square as a small flat patch: ~111 km per degree of latitude,
  // scaled longitude near the placement latitude band.
  const double deg_span = options.side_km / 111.0;
  std::vector<HaversinePoint> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    const GeoPoint location{rng.uniform(0.0, deg_span),
                            rng.uniform(0.0, deg_span)};
    points[i] = haversine_point(location);
    g.add_node(NodeInfo{"waxman-" + std::to_string(i), location});
  }
  const LatencyModel latency_model{};
  const auto link_latency_ms = [&](std::size_t i, std::size_t j) {
    return latency_model.link_latency_ms(points[i].point, points[j].point);
  };

  // Spanning backbone: connect node i to its nearest already-placed node so
  // the graph is connected regardless of the random draws below.
  std::vector<std::size_t> nearest(n, 0);
  for (std::size_t i = 1; i < n; ++i) {
    double best = haversine_km(points[i], points[0]);
    for (std::size_t j = 1; j < i; ++j) {
      const double d = haversine_km(points[i], points[j]);
      if (d < best) {
        best = d;
        nearest[i] = j;
      }
    }
    must_add(g, static_cast<NodeId>(i), static_cast<NodeId>(nearest[i]),
             link_latency_ms(i, nearest[i]));
  }

  const double diagonal = options.side_km * std::sqrt(2.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      // j's backbone link is the only edge between i and j so far.
      if (nearest[j] == i) continue;
      const double d = haversine_km(points[i], points[j]);
      const double p = options.alpha * std::exp(-d / (options.beta * diagonal));
      if (rng.bernoulli(std::min(1.0, p))) {
        must_add(g, static_cast<NodeId>(i), static_cast<NodeId>(j),
                 link_latency_ms(i, j));
      }
    }
  }
  return g;
}

}  // namespace ccnopt::topology
