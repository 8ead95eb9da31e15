// Geographic helpers: great-circle distance and the distance -> latency
// model used to synthesize link latencies for the embedded topologies.
#pragma once

#include "ccnopt/topology/graph.hpp"

namespace ccnopt::topology {

/// A point with the cosine of its latitude computed once, for callers
/// that measure one point against many (graph generators).
struct HaversinePoint {
  GeoPoint point;
  double cos_lat = 1.0;
};
HaversinePoint haversine_point(const GeoPoint& p);

/// Great-circle distance between two points (haversine), in kilometers.
/// Both overloads run the one formula and return the same bits.
double haversine_km(const HaversinePoint& a, const HaversinePoint& b);
double haversine_km(const GeoPoint& a, const GeoPoint& b);

/// Link latency model: one-way propagation at `km_per_ms` (signal speed in
/// fiber, ~200 km/ms) over `route_factor` x the great-circle distance
/// (fiber paths are not straight lines), plus fixed per-hop equipment
/// delay. All synthesized datasets use the defaults.
struct LatencyModel {
  double km_per_ms = 200.0;
  double route_factor = 1.0;
  double per_hop_overhead_ms = 0.1;

  double link_latency_ms(const GeoPoint& a, const GeoPoint& b) const;
};

/// Adds an undirected link between the nodes named `a` and `b`, with the
/// latency computed from their coordinates. Aborts on unknown names or
/// duplicate links (dataset construction is compile-time-authored data, so
/// failures are programming errors).
void add_geo_edge(Graph& g, const std::string& a, const std::string& b,
                  const LatencyModel& model = {});

}  // namespace ccnopt::topology
