#include "ccnopt/cache/lfu.hpp"

#include <gtest/gtest.h>

#include "ccnopt/common/random.hpp"
#include "ccnopt/popularity/sampler.hpp"

namespace ccnopt::cache {
namespace {

TEST(Lfu, EvictsLeastFrequent) {
  LfuCache cache(2);
  cache.admit(1);
  cache.admit(1);  // freq(1) = 2
  cache.admit(2);  // freq(2) = 1
  cache.admit(3);  // evicts 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(Lfu, FrequencyAccounting) {
  LfuCache cache(4);
  cache.admit(7);
  cache.admit(7);
  cache.admit(7);
  cache.admit(8);
  EXPECT_EQ(cache.frequency(7), 3u);
  EXPECT_EQ(cache.frequency(8), 1u);
  EXPECT_EQ(cache.frequency(999), 0u);
}

TEST(Lfu, TieBrokenByRecencyWithinBucket) {
  LfuCache cache(2);
  cache.admit(1);
  cache.admit(2);
  // Both at frequency 1; 1 is older. Inserting 3 evicts 1.
  cache.admit(3);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(Lfu, NewEntryStartsAtFrequencyOne) {
  LfuCache cache(2);
  cache.admit(1);
  cache.admit(1);
  cache.admit(1);
  cache.admit(2);
  cache.admit(3);  // 2 and 3 both freq 1; 2 older -> evicted
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(Lfu, ZeroCapacity) {
  LfuCache cache(0);
  EXPECT_FALSE(cache.admit(1));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Lfu, CapacityNeverExceeded) {
  LfuCache cache(5);
  for (ContentId id = 1; id <= 100; ++id) {
    cache.admit(id % 11 + 1);
    EXPECT_LE(cache.size(), 5u);
  }
}

TEST(Lfu, ConvergesToTopRanksUnderZipf) {
  // Section III-A's steady-state claim: a frequency-based policy ends up
  // holding the most popular contents. After a long Zipf stream, the top
  // few ranks must all be resident.
  const std::uint64_t catalog = 200;
  const std::size_t capacity = 20;
  LfuCache cache(capacity);
  popularity::AliasSampler sampler(catalog, 1.0);
  Rng rng(1234);
  for (int i = 0; i < 200000; ++i) cache.admit(sampler.sample(rng));
  for (ContentId rank = 1; rank <= 10; ++rank) {
    EXPECT_TRUE(cache.contains(rank)) << "rank=" << rank;
  }
}

TEST(Lfu, HitRatioApproachesZipfCdfOfCapacity) {
  const std::uint64_t catalog = 500;
  const std::size_t capacity = 50;
  const double s = 0.8;
  LfuCache cache(capacity);
  const popularity::ZipfDistribution zipf(catalog, s);
  popularity::AliasSampler sampler(catalog, s);
  Rng rng(99);
  // Warm up, then measure.
  for (int i = 0; i < 100000; ++i) cache.admit(sampler.sample(rng));
  cache.reset_stats();
  for (int i = 0; i < 100000; ++i) cache.admit(sampler.sample(rng));
  // LFU without aging converges from below (early random arrivals hold
  // inflated counts); ~5 points of F(capacity) after this warmup.
  EXPECT_NEAR(cache.stats().hit_ratio(), zipf.cdf(capacity), 0.07);
  EXPECT_LT(cache.stats().hit_ratio(), zipf.cdf(capacity) + 0.01);
}

}  // namespace
}  // namespace ccnopt::cache
