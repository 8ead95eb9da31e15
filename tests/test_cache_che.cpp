#include "ccnopt/cache/che.hpp"

#include <gtest/gtest.h>

#include "ccnopt/cache/lru.hpp"
#include "ccnopt/common/random.hpp"
#include "ccnopt/popularity/sampler.hpp"

namespace ccnopt::cache {
namespace {

TEST(Che, CharacteristicTimeSatisfiesOccupancyConstraint) {
  const popularity::ZipfDistribution zipf(1000, 0.8);
  const auto che = CheApproximation::create(zipf, 100);
  ASSERT_TRUE(che.has_value());
  // sum_i h_i == capacity at T_C by construction.
  double occupancy = 0.0;
  for (std::uint64_t rank = 1; rank <= 1000; ++rank) {
    occupancy += che->hit_ratio(rank);
  }
  EXPECT_NEAR(occupancy, 100.0, 1e-5);
  EXPECT_GT(che->characteristic_time(), 0.0);
}

TEST(Che, HitRatioMonotoneInPopularity) {
  const popularity::ZipfDistribution zipf(500, 1.0);
  const auto che = CheApproximation::create(zipf, 50);
  ASSERT_TRUE(che.has_value());
  for (std::uint64_t rank = 1; rank < 500; ++rank) {
    EXPECT_GE(che->hit_ratio(rank), che->hit_ratio(rank + 1));
  }
  EXPECT_GT(che->hit_ratio(1), 0.99);  // the top content is near-pinned
}

TEST(Che, AggregateBelowFrequencyIdeal) {
  // LRU cannot beat the static top-C store under IRM.
  for (double s : {0.6, 0.9, 1.3}) {
    const popularity::ZipfDistribution zipf(800, s);
    const auto che = CheApproximation::create(zipf, 80);
    ASSERT_TRUE(che.has_value());
    EXPECT_LT(che->aggregate_hit_ratio(), che->ideal_hit_ratio()) << s;
    EXPECT_GT(che->aggregate_hit_ratio(), 0.0);
  }
}

TEST(Che, LargerCacheHigherHitRatioAndTime) {
  const popularity::ZipfDistribution zipf(1000, 0.8);
  const auto small = CheApproximation::create(zipf, 50);
  const auto large = CheApproximation::create(zipf, 200);
  ASSERT_TRUE(small.has_value());
  ASSERT_TRUE(large.has_value());
  EXPECT_GT(large->aggregate_hit_ratio(), small->aggregate_hit_ratio());
  EXPECT_GT(large->characteristic_time(), small->characteristic_time());
}

TEST(Che, PredictsSimulatedLruHitRatio) {
  // The headline validation: Che vs a long LRU simulation, within a point.
  const std::uint64_t catalog = 2000;
  const std::size_t capacity = 150;
  for (double s : {0.7, 1.1}) {
    const popularity::ZipfDistribution zipf(catalog, s);
    const auto che = CheApproximation::create(zipf, capacity);
    ASSERT_TRUE(che.has_value());

    LruCache lru(capacity);
    popularity::AliasSampler sampler(catalog, s);
    Rng rng(2024);
    for (int i = 0; i < 150000; ++i) lru.admit(sampler.sample(rng));
    lru.reset_stats();
    for (int i = 0; i < 300000; ++i) lru.admit(sampler.sample(rng));
    EXPECT_NEAR(lru.stats().hit_ratio(), che->aggregate_hit_ratio(), 0.012)
        << "s=" << s;
  }
}

TEST(Che, UniformPopularityGivesUniformHitRatio) {
  // Degenerate check via a nearly-flat Zipf: all h_i approach C/N.
  const popularity::ZipfDistribution zipf(200, 0.01);
  const auto che = CheApproximation::create(zipf, 20);
  ASSERT_TRUE(che.has_value());
  EXPECT_NEAR(che->hit_ratio(1), che->hit_ratio(200), 0.02);
  EXPECT_NEAR(che->aggregate_hit_ratio(), 0.1, 0.02);
}

TEST(Che, RejectsDegenerateCapacities) {
  const popularity::ZipfDistribution zipf(100, 0.8);
  EXPECT_FALSE(CheApproximation::create(zipf, 0).has_value());
  EXPECT_FALSE(CheApproximation::create(zipf, 100).has_value());
  EXPECT_TRUE(CheApproximation::create(zipf, 99).has_value());
}

TEST(CheDeath, HitRatioRankBounds) {
  const popularity::ZipfDistribution zipf(100, 0.8);
  const auto che = CheApproximation::create(zipf, 10);
  ASSERT_TRUE(che.has_value());
  EXPECT_DEATH((void)che->hit_ratio(0), "precondition");
  EXPECT_DEATH((void)che->hit_ratio(101), "precondition");
}

}  // namespace
}  // namespace ccnopt::cache
