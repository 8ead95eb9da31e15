#include "ccnopt/topology/geo.hpp"

#include <cmath>

#include "ccnopt/common/assert.hpp"

namespace ccnopt::topology {
namespace {

constexpr double kEarthRadiusKm = 6371.0;
constexpr double kDegToRad = 3.14159265358979323846 / 180.0;

}  // namespace

HaversinePoint haversine_point(const GeoPoint& p) {
  return HaversinePoint{p, std::cos(p.lat_deg * kDegToRad)};
}

double haversine_km(const HaversinePoint& a, const HaversinePoint& b) {
  const double dlat = (b.point.lat_deg - a.point.lat_deg) * kDegToRad;
  const double dlon = (b.point.lon_deg - a.point.lon_deg) * kDegToRad;
  const double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   a.cos_lat * b.cos_lat * std::sin(dlon / 2) *
                       std::sin(dlon / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

double haversine_km(const GeoPoint& a, const GeoPoint& b) {
  return haversine_km(haversine_point(a), haversine_point(b));
}

double LatencyModel::link_latency_ms(const GeoPoint& a,
                                     const GeoPoint& b) const {
  const double km = haversine_km(a, b) * route_factor;
  return km / km_per_ms + per_hop_overhead_ms;
}

void add_geo_edge(Graph& g, const std::string& a, const std::string& b,
                  const LatencyModel& model) {
  const auto ida = g.find_node(a);
  const auto idb = g.find_node(b);
  CCNOPT_ASSERT(ida.has_value());
  CCNOPT_ASSERT(idb.has_value());
  const double latency =
      model.link_latency_ms(g.node(*ida).location, g.node(*idb).location);
  const Status status = g.add_edge(*ida, *idb, latency);
  CCNOPT_ASSERT(status.is_ok());
}

}  // namespace ccnopt::topology
