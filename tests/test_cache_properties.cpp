// Invariants every replacement policy must satisfy, parameterized over the
// full policy set and several capacities (TEST_P sweep).
#include <gtest/gtest.h>

#include <set>

#include "ccnopt/cache/policy.hpp"
#include "ccnopt/common/random.hpp"
#include "ccnopt/popularity/sampler.hpp"

namespace ccnopt::cache {
namespace {

struct PolicyCase {
  PolicyKind kind;
  std::size_t capacity;
};

class PolicyInvariants : public ::testing::TestWithParam<PolicyCase> {
 protected:
  std::unique_ptr<CachePolicy> make() const {
    return make_policy(GetParam().kind, GetParam().capacity, 77);
  }
};

TEST_P(PolicyInvariants, SizeNeverExceedsCapacity) {
  auto cache = make();
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    cache->admit(rng.uniform_int(1, 50));
    ASSERT_LE(cache->size(), cache->capacity());
  }
}

TEST_P(PolicyInvariants, AdmittedContentImmediatelyResident) {
  auto cache = make();
  if (cache->capacity() == 0) GTEST_SKIP();
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const ContentId id = rng.uniform_int(1, 30);
    cache->admit(id);
    EXPECT_TRUE(cache->contains(id));
  }
}

TEST_P(PolicyInvariants, HitIffContains) {
  auto cache = make();
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const ContentId id = rng.uniform_int(1, 40);
    const bool was_resident = cache->contains(id);
    EXPECT_EQ(cache->admit(id), was_resident);
  }
}

TEST_P(PolicyInvariants, ContentsMatchesSizeAndContains) {
  auto cache = make();
  Rng rng(4);
  for (int i = 0; i < 300; ++i) cache->admit(rng.uniform_int(1, 25));
  const auto contents = cache->contents();
  EXPECT_EQ(contents.size(), cache->size());
  const std::set<ContentId> unique(contents.begin(), contents.end());
  EXPECT_EQ(unique.size(), contents.size());  // no duplicates
  for (const ContentId id : contents) EXPECT_TRUE(cache->contains(id));
}

TEST_P(PolicyInvariants, NoStaleResidency) {
  // Scanning the whole key universe, the number of ids reported resident
  // must equal size() — evicted ids must not linger in any side index
  // (regression: RandomCache's swap-remove once resurrected the victim
  // when it occupied the last slot).
  auto cache = make();
  Rng rng(8);
  for (int i = 0; i < 2000; ++i) cache->admit(rng.uniform_int(1, 50));
  std::size_t resident = 0;
  for (ContentId id = 1; id <= 50; ++id) {
    if (cache->contains(id)) ++resident;
  }
  EXPECT_EQ(resident, cache->size());
}

TEST_P(PolicyInvariants, StatsBalance) {
  auto cache = make();
  Rng rng(5);
  const int requests = 1500;
  for (int i = 0; i < requests; ++i) cache->admit(rng.uniform_int(1, 60));
  const CacheStats& stats = cache->stats();
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(requests));
  EXPECT_EQ(stats.insertions - stats.evictions, cache->size());
}

TEST_P(PolicyInvariants, DeterministicReplay) {
  auto a = make();
  auto b = make();
  Rng rng_a(6), rng_b(6);
  for (int i = 0; i < 800; ++i) {
    EXPECT_EQ(a->admit(rng_a.uniform_int(1, 35)),
              b->admit(rng_b.uniform_int(1, 35)));
  }
}

TEST_P(PolicyInvariants, NameNonEmpty) {
  EXPECT_STRNE(make()->name(), "");
  EXPECT_STREQ(make()->name(), to_string(GetParam().kind));
}

std::string policy_case_name(
    const ::testing::TestParamInfo<PolicyCase>& param_info) {
  return std::string(to_string(param_info.param.kind)) + "_cap" +
         std::to_string(param_info.param.capacity);
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAndCapacities, PolicyInvariants,
    ::testing::Values(PolicyCase{PolicyKind::kLru, 0},
                      PolicyCase{PolicyKind::kLru, 1},
                      PolicyCase{PolicyKind::kLru, 16},
                      PolicyCase{PolicyKind::kLfu, 0},
                      PolicyCase{PolicyKind::kLfu, 1},
                      PolicyCase{PolicyKind::kLfu, 16},
                      PolicyCase{PolicyKind::kFifo, 0},
                      PolicyCase{PolicyKind::kFifo, 1},
                      PolicyCase{PolicyKind::kFifo, 16},
                      PolicyCase{PolicyKind::kRandom, 0},
                      PolicyCase{PolicyKind::kRandom, 1},
                      PolicyCase{PolicyKind::kRandom, 16}),
    policy_case_name);

TEST(PolicyComparison, LfuBeatsFifoAndRandomOnZipf) {
  // The reason the paper's canonical local policy is frequency-based:
  // under a stationary Zipf stream LFU's hit ratio dominates.
  const std::uint64_t catalog = 400;
  const std::size_t capacity = 40;
  popularity::AliasSampler sampler(catalog, 0.9);

  auto run = [&](PolicyKind kind) {
    auto cache = make_policy(kind, capacity, 11);
    Rng rng(4242);
    for (int i = 0; i < 60000; ++i) cache->admit(sampler.sample(rng));
    cache->reset_stats();
    for (int i = 0; i < 60000; ++i) cache->admit(sampler.sample(rng));
    return cache->stats().hit_ratio();
  };

  const double lfu = run(PolicyKind::kLfu);
  const double lru = run(PolicyKind::kLru);
  const double fifo = run(PolicyKind::kFifo);
  const double random = run(PolicyKind::kRandom);
  EXPECT_GT(lfu, fifo);
  EXPECT_GT(lfu, random);
  EXPECT_GE(lru, fifo - 0.02);  // LRU roughly ties FIFO on IRM, never worse by much
  EXPECT_GT(lfu, 0.0);
}

}  // namespace
}  // namespace ccnopt::cache
