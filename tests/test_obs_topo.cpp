// Contract of the topology-resolved flight recorder: a default recorder is
// disabled, counters accumulate per entity, merge is an index-ordered sum
// that preserves topology shape, and both writers serialize
// deterministically under the ccnopt-topo-v1 schema.
#include "ccnopt/obs/topo.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace ccnopt::obs {
namespace {

TopoRecorder make_triangle() {
  // 3 routers, triangle links (u < v, insertion order).
  return TopoRecorder("triangle", 3, {{0, 1}, {0, 2}, {1, 2}});
}

TEST(TopoRecorder, DefaultConstructedIsDisabled) {
  const TopoRecorder topo;
  EXPECT_FALSE(topo.enabled());
  EXPECT_TRUE(topo.nodes().empty());
  EXPECT_TRUE(topo.links().empty());
  EXPECT_EQ(topo.total_requests(), 0u);
  EXPECT_EQ(topo.total_placements(), 0u);
  EXPECT_EQ(topo.mean_placement_depth(), 0.0);
}

TEST(TopoRecorder, AccumulatesPerEntity) {
  TopoRecorder topo = make_triangle();
  ASSERT_TRUE(topo.enabled());
  EXPECT_EQ(topo.replications(), 1u);

  topo.on_request(0, kTopoTierLocal, 0, 1.0, 0);
  topo.on_request(0, kTopoTierNetwork, 2, 4.5, 2);
  topo.on_request(1, kTopoTierOrigin, 2, 9.0, 3);
  topo.on_placement(1, 0);
  topo.on_placement(2, 1);
  topo.on_placement(2, 1);
  topo.set_router_cache(2, 7, 11, 5, 10);
  topo.add_link_traversals({3, 0, 2});

  EXPECT_EQ(topo.nodes()[0].requests, 2u);
  EXPECT_EQ(topo.nodes()[0].local, 1u);
  EXPECT_EQ(topo.nodes()[0].network, 1u);
  EXPECT_EQ(topo.nodes()[0].origin, 0u);
  EXPECT_DOUBLE_EQ(topo.nodes()[0].latency_ms_sum, 5.5);
  EXPECT_EQ(topo.nodes()[0].hops_sum, 2u);
  EXPECT_EQ(topo.nodes()[1].requests, 1u);
  EXPECT_EQ(topo.nodes()[1].origin, 1u);
  // Node 2 served node 0's network-tier request; origin hits do not count.
  EXPECT_EQ(topo.nodes()[2].served_for_peers, 1u);
  EXPECT_EQ(topo.nodes()[1].placements, 1u);
  EXPECT_EQ(topo.nodes()[2].placements, 2u);
  EXPECT_EQ(topo.nodes()[2].evictions, 7u);
  EXPECT_EQ(topo.nodes()[2].insertions, 11u);
  EXPECT_EQ(topo.nodes()[2].occupancy, 5u);
  EXPECT_EQ(topo.nodes()[2].capacity, 10u);

  EXPECT_EQ(topo.total_requests(), 3u);
  EXPECT_EQ(topo.total_placements(), 3u);
  EXPECT_EQ(topo.total_link_traversals(), 5u);
  EXPECT_EQ(topo.max_link_load(), 3u);
  ASSERT_EQ(topo.placement_depths().size(), 2u);
  EXPECT_EQ(topo.placement_depths()[0], 1u);
  EXPECT_EQ(topo.placement_depths()[1], 2u);
  EXPECT_DOUBLE_EQ(topo.mean_placement_depth(), 2.0 / 3.0);
}

TEST(TopoRecorder, MergeSumsEntityByEntity) {
  TopoRecorder a = make_triangle();
  a.on_request(0, kTopoTierLocal, 0, 1.0, 0);
  a.on_placement(0, 0);
  a.add_link_traversals({1, 1, 1});

  TopoRecorder b = make_triangle();
  b.on_request(0, kTopoTierOrigin, 2, 9.0, 3);
  b.on_request(2, kTopoTierLocal, 2, 1.0, 0);
  b.on_placement(0, 2);
  b.add_link_traversals({0, 2, 0});

  a.merge(b);
  EXPECT_EQ(a.replications(), 2u);
  EXPECT_EQ(a.nodes()[0].requests, 2u);
  EXPECT_EQ(a.nodes()[0].local, 1u);
  EXPECT_EQ(a.nodes()[0].origin, 1u);
  EXPECT_EQ(a.nodes()[2].local, 1u);
  EXPECT_EQ(a.nodes()[0].placements, 2u);
  EXPECT_EQ(a.total_requests(), 3u);
  ASSERT_EQ(a.placement_depths().size(), 3u);
  EXPECT_EQ(a.placement_depths()[0], 1u);
  EXPECT_EQ(a.placement_depths()[2], 1u);
  EXPECT_EQ(a.links()[0].traversals, 1u);
  EXPECT_EQ(a.links()[1].traversals, 3u);
  EXPECT_EQ(a.links()[2].traversals, 1u);
}

TEST(TopoRecorder, DisabledSummaryAdoptsFirstMerge) {
  TopoRecorder summary;
  TopoRecorder run = make_triangle();
  run.on_request(1, kTopoTierLocal, 1, 1.0, 0);
  summary.merge(run);
  EXPECT_TRUE(summary.enabled());
  EXPECT_EQ(summary.replications(), 1u);
  EXPECT_EQ(summary.nodes()[1].local, 1u);

  // Merging a disabled recorder back is a no-op.
  summary.merge(TopoRecorder());
  EXPECT_EQ(summary.replications(), 1u);
  EXPECT_EQ(summary.total_requests(), 1u);
}

TEST(TopoRecorder, AbsorbsALinkFreeShardRecorder) {
  // A shard recorder carries no links: absorbing it adds its nodes and
  // placement depths and leaves the run's link loads and replication
  // count alone.
  TopoRecorder run = make_triangle();
  run.on_placement(1, 0);
  run.add_link_traversals({2, 0, 1});
  TopoRecorder shard("triangle", 3, {});
  shard.on_request(0, kTopoTierNetwork, 2, 4.5, 2);
  shard.on_placement(2, 1);

  run.absorb(shard);
  EXPECT_EQ(run.replications(), 1u);
  EXPECT_EQ(run.nodes()[0].network, 1u);
  EXPECT_DOUBLE_EQ(run.nodes()[0].latency_ms_sum, 4.5);
  EXPECT_EQ(run.nodes()[2].served_for_peers, 1u);
  EXPECT_EQ(run.total_placements(), 2u);
  ASSERT_EQ(run.placement_depths().size(), 2u);
  EXPECT_EQ(run.placement_depths()[1], 1u);
  ASSERT_EQ(run.links().size(), 3u);
  EXPECT_EQ(run.total_link_traversals(), 3u);
  EXPECT_EQ(run.links()[0].traversals, 2u);
}

TEST(TopoWriters, JsonCarriesSchemaShapeAndCounters) {
  TopoRecorder topo = make_triangle();
  topo.on_request(0, kTopoTierNetwork, 2, 4.5, 2);
  topo.on_placement(1, 1);
  topo.add_link_traversals({3, 0, 2});
  std::ostringstream out;
  write_topo_json(out, topo);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\": \"ccnopt-topo-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"topology\": \"triangle\""), std::string::npos);
  EXPECT_NE(json.find("\"routers\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"links\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"placement_depths\": [0, 1]"), std::string::npos);
  EXPECT_NE(json.find("\"served_for_peers\": 1"), std::string::npos);
  EXPECT_NE(json.find("{\"u\": 0, \"v\": 1, \"traversals\": 3}"),
            std::string::npos);
}

TEST(TopoWriters, CsvIsExactAndDeterministic) {
  TopoRecorder topo("pair", 2, {{0, 1}});
  topo.on_request(0, kTopoTierNetwork, 1, 2.5, 1);
  topo.on_placement(0, 0);
  topo.set_router_cache(0, 1, 2, 3, 4);
  topo.add_link_traversals({6});
  std::ostringstream out;
  write_topo_csv(out, topo);
  EXPECT_EQ(out.str(),
            "kind,id,u,v,requests,local,network,origin,misses,"
            "served_for_peers,placements,latency_ms_sum,hops_sum,evictions,"
            "insertions,occupancy,capacity,traversals,count\n"
            "node,0,,,1,0,1,0,1,0,1,2.5,1,1,2,3,4,,\n"
            "node,1,,,0,0,0,0,0,1,0,0,0,0,0,0,0,,\n"
            "edge,,0,1,,,,,,,,,,,,,,6,\n"
            "depth,0,,,,,,,,,,,,,,,,,1\n");

  // Serializing twice yields identical bytes (both writers are pure).
  std::ostringstream again;
  write_topo_csv(again, topo);
  EXPECT_EQ(out.str(), again.str());
}

}  // namespace
}  // namespace ccnopt::obs
