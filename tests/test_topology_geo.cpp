#include "ccnopt/topology/geo.hpp"

#include <gtest/gtest.h>

namespace ccnopt::topology {
namespace {

constexpr GeoPoint kNewYork{40.71, -74.01};
constexpr GeoPoint kLondon{51.51, -0.13};
constexpr GeoPoint kSeattle{47.61, -122.33};

TEST(Haversine, ZeroForIdenticalPoints) {
  EXPECT_DOUBLE_EQ(haversine_km(kNewYork, kNewYork), 0.0);
}

TEST(Haversine, Symmetric) {
  EXPECT_DOUBLE_EQ(haversine_km(kNewYork, kLondon),
                   haversine_km(kLondon, kNewYork));
}

TEST(Haversine, KnownDistances) {
  // NY <-> London ~ 5570 km; Seattle <-> NY ~ 3870 km.
  EXPECT_NEAR(haversine_km(kNewYork, kLondon), 5570.0, 60.0);
  EXPECT_NEAR(haversine_km(kSeattle, kNewYork), 3870.0, 60.0);
}

TEST(Haversine, OneDegreeOfLatitude) {
  const GeoPoint a{10.0, 20.0};
  const GeoPoint b{11.0, 20.0};
  EXPECT_NEAR(haversine_km(a, b), 111.2, 0.5);
}

TEST(Haversine, AntipodalIsHalfCircumference) {
  const GeoPoint a{0.0, 0.0};
  const GeoPoint b{0.0, 180.0};
  EXPECT_NEAR(haversine_km(a, b), 20015.0, 10.0);
}

TEST(Haversine, PreparedPointsGiveTheSameBits) {
  for (const GeoPoint& a : {kNewYork, kLondon, kSeattle}) {
    for (const GeoPoint& b : {kNewYork, kLondon, kSeattle}) {
      EXPECT_EQ(haversine_km(haversine_point(a), haversine_point(b)),
                haversine_km(a, b));
    }
  }
}

TEST(LatencyModel, ProportionalToDistancePlusOverhead) {
  const LatencyModel model{200.0, 1.0, 0.1};
  const double km = haversine_km(kSeattle, kNewYork);
  EXPECT_NEAR(model.link_latency_ms(kSeattle, kNewYork), km / 200.0 + 0.1,
              1e-9);
}

TEST(LatencyModel, RouteFactorScalesDistanceOnly) {
  const LatencyModel straight{200.0, 1.0, 0.0};
  const LatencyModel detour{200.0, 1.3, 0.0};
  EXPECT_NEAR(detour.link_latency_ms(kSeattle, kNewYork),
              1.3 * straight.link_latency_ms(kSeattle, kNewYork), 1e-9);
}

TEST(AddGeoEdge, ComputesLatencyFromCoordinates) {
  Graph g("geo");
  g.add_node({"ny", kNewYork});
  g.add_node({"sea", kSeattle});
  add_geo_edge(g, "ny", "sea");
  ASSERT_EQ(g.undirected_edge_count(), 1u);
  const LatencyModel model{};
  EXPECT_NEAR(*g.edge_latency(0, 1),
              model.link_latency_ms(kNewYork, kSeattle), 1e-9);
}

TEST(AddGeoEdgeDeath, UnknownNameAborts) {
  Graph g("geo");
  g.add_node({"ny", kNewYork});
  EXPECT_DEATH(add_geo_edge(g, "ny", "nowhere"), "invariant");
}

}  // namespace
}  // namespace ccnopt::topology
