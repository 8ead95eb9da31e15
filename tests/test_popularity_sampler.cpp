#include "ccnopt/popularity/sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

namespace ccnopt::popularity {
namespace {

/// Pearson chi-square statistic of observed counts against expected counts
/// (equal sizes, every expected count positive).
double chi_square(const std::vector<std::uint64_t>& observed,
                  const std::vector<double>& expected) {
  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double diff = static_cast<double>(observed[i]) - expected[i];
    stat += diff * diff / expected[i];
  }
  return stat;
}

// All samplers must realize the same distribution; run the same
// frequency-vs-pmf check against each.
enum class Kind { kAlias, kInverse, kRejection };

std::unique_ptr<RankSampler> make(Kind kind, std::uint64_t n, double s) {
  if (kind == Kind::kRejection) {
    return std::make_unique<ZipfRejectionSampler>(n, s);
  }
  if (kind == Kind::kAlias) return std::make_unique<AliasSampler>(n, s);
  return std::make_unique<InverseCdfSampler>(ZipfDistribution(n, s));
}

class Samplers : public ::testing::TestWithParam<Kind> {};

TEST_P(Samplers, RanksInCatalog) {
  auto sampler = make(GetParam(), 50, 0.8);
  Rng rng(42);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t rank = sampler->sample(rng);
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 50u);
  }
}

TEST_P(Samplers, FrequenciesMatchPmf) {
  const std::uint64_t n = 100;
  const double s = 0.8;
  const ZipfDistribution zipf(n, s);
  auto sampler = make(GetParam(), n, s);
  Rng rng(7);
  const std::uint64_t draws = 200000;
  std::vector<std::uint64_t> counts(n, 0);
  for (std::uint64_t i = 0; i < draws; ++i) ++counts[sampler->sample(rng) - 1];

  // Chi-square against the exact pmf; 99 dof -> 99.9th percentile ~ 149.
  std::vector<double> expected(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    expected[i] = zipf.pmf(i + 1) * static_cast<double>(draws);
  }
  const double stat = chi_square(counts, expected);
  EXPECT_LT(stat, 160.0);
}

TEST_P(Samplers, TopRankMostFrequent) {
  auto sampler = make(GetParam(), 20, 1.2);
  Rng rng(3);
  std::vector<int> counts(21, 0);
  for (int i = 0; i < 50000; ++i) ++counts[sampler->sample(rng)];
  for (int rank = 2; rank <= 20; ++rank) {
    EXPECT_GT(counts[1], counts[rank]) << "rank=" << rank;
  }
}

TEST_P(Samplers, Deterministic) {
  auto a = make(GetParam(), 64, 0.9);
  auto b = make(GetParam(), 64, 0.9);
  Rng rng_a(99), rng_b(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a->sample(rng_a), b->sample(rng_b));
  }
}

std::string sampler_name(const ::testing::TestParamInfo<Kind>& param_info) {
  switch (param_info.param) {
    case Kind::kAlias:
      return "alias";
    case Kind::kInverse:
      return "inverse_cdf";
    case Kind::kRejection:
      return "rejection";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(AllSamplers, Samplers,
                         ::testing::Values(Kind::kAlias, Kind::kInverse,
                                           Kind::kRejection),
                         sampler_name);

// Distribution equivalence across the exponent grid the paper sweeps: both
// O(1) production samplers (alias and rejection-inversion) against the
// exact pmf, by chi-square and by total-variation distance.
class SamplerEquivalence
    : public ::testing::TestWithParam<std::tuple<Kind, double>> {};

TEST_P(SamplerEquivalence, MatchesExactPmf) {
  const auto [kind, s] = GetParam();
  const std::uint64_t n = 100;
  const ZipfDistribution zipf(n, s);
  auto sampler = make(kind, n, s);
  Rng rng(20240806);
  const std::uint64_t draws = 200000;
  std::vector<std::uint64_t> counts(n, 0);
  for (std::uint64_t i = 0; i < draws; ++i) ++counts[sampler->sample(rng) - 1];

  std::vector<double> expected(n);
  double tv = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    expected[i] = zipf.pmf(i + 1) * static_cast<double>(draws);
    tv += std::abs(static_cast<double>(counts[i]) /
                       static_cast<double>(draws) -
                   zipf.pmf(i + 1));
  }
  tv *= 0.5;
  // 99 dof -> 99.9th percentile ~ 149; TV of a faithful sampler at these
  // draw counts concentrates well below 0.01.
  const double stat = chi_square(counts, expected);
  EXPECT_LT(stat, 160.0) << "s=" << s;
  EXPECT_LT(tv, 0.01) << "s=" << s;
}

std::string equivalence_name(
    const ::testing::TestParamInfo<std::tuple<Kind, double>>& param_info) {
  const auto [kind, s] = param_info.param;
  std::string name = kind == Kind::kAlias ? "alias" : "rejection";
  name += "_s";
  name += std::to_string(static_cast<int>(s * 10.0 + 0.5));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    ExponentGrid, SamplerEquivalence,
    ::testing::Combine(::testing::Values(Kind::kAlias, Kind::kRejection),
                       ::testing::Values(0.6, 0.8, 1.0, 1.2)),
    equivalence_name);

TEST(ZipfRejectionSampler, ConstantMemoryAtHugeCatalog) {
  // 10^12 contents: any tabulated sampler would need terabytes; the
  // rejection sampler is three doubles. Draws must stay in range and the
  // head of the distribution must dominate.
  const std::uint64_t n = 1000000000000ull;
  ZipfRejectionSampler sampler(n, 0.8);
  Rng rng(11);
  std::uint64_t head = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t rank = sampler.sample(rng);
    ASSERT_GE(rank, 1u);
    ASSERT_LE(rank, n);
    if (rank <= n / 1000) ++head;
  }
  // F(N/1000) ~= (10^1.8 - 1)/(10^2.4 - 1) ~= 0.248, so ~4960 of 20000
  // draws in expectation (sd ~61); require a clearly super-uniform head
  // mass (uniform would give ~20 of 20000).
  EXPECT_GT(head, 4600u);
}

TEST(ZipfRejectionSampler, SingleContentCatalog) {
  ZipfRejectionSampler sampler(1, 0.8);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.sample(rng), 1u);
}

TEST(MakeZipfSampler, AutoSelectsByCatalogSize) {
  // Below the threshold kAuto keeps the alias sampler (bit-compatible
  // streams with every historical run); at/above it, rejection-inversion.
  const auto small = make_zipf_sampler(1000, 0.8);
  EXPECT_NE(dynamic_cast<AliasSampler*>(small.get()), nullptr);
  const auto large = make_zipf_sampler(kRejectionAutoThreshold, 0.8);
  EXPECT_NE(dynamic_cast<ZipfRejectionSampler*>(large.get()), nullptr);
  const auto forced =
      make_zipf_sampler(1000, 0.8, SamplerKind::kRejectionInversion);
  EXPECT_NE(dynamic_cast<ZipfRejectionSampler*>(forced.get()), nullptr);
  const auto forced_alias =
      make_zipf_sampler(kRejectionAutoThreshold, 0.8, SamplerKind::kAlias);
  EXPECT_NE(dynamic_cast<AliasSampler*>(forced_alias.get()), nullptr);
}

TEST(AliasSampler, ExplicitWeights) {
  // 3 categories with weights 1:2:1 -> rank 2 about half the draws.
  AliasSampler sampler(std::vector<double>{1.0, 2.0, 1.0});
  Rng rng(5);
  std::vector<int> counts(4, 0);
  const int draws = 40000;
  for (int i = 0; i < draws; ++i) ++counts[sampler.sample(rng)];
  EXPECT_NEAR(counts[2] / static_cast<double>(draws), 0.5, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(draws), 0.25, 0.02);
}

TEST(AliasSampler, ZeroWeightCategoryNeverDrawn) {
  AliasSampler sampler(std::vector<double>{1.0, 0.0, 1.0});
  Rng rng(6);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_NE(sampler.sample(rng), 2u);
  }
}

TEST(AliasSampler, SingleCategory) {
  AliasSampler sampler(std::vector<double>{3.0});
  Rng rng(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.sample(rng), 1u);
}

/// sample_block(count) must write exactly what `count` successive sample()
/// calls return and leave the Rng where they leave it, for counts around
/// the alias sampler's 64-draw chunk.
void expect_block_matches_repeated(RankSampler& sampler, std::uint64_t seed) {
  for (const std::size_t count : {0, 1, 63, 64, 65, 256, 1000}) {
    Rng block_rng(seed);
    Rng single_rng(seed);
    std::vector<std::uint64_t> block(count);
    sampler.sample_block(block_rng, block.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(block[i], sampler.sample(single_rng))
          << "count " << count << ", draw " << i;
    }
    // Full range: the distribution returns the next raw word as is.
    EXPECT_EQ(block_rng.uniform_int(0, UINT64_MAX),
              single_rng.uniform_int(0, UINT64_MAX))
        << "count " << count;
  }
}

TEST(AliasSampler, SampleBlockMatchesRepeatedSample) {
  AliasSampler zipf(100000, 0.8);
  expect_block_matches_repeated(zipf, 11);
  AliasSampler weighted(std::vector<double>{1.0, 0.0, 2.0, 0.5});
  expect_block_matches_repeated(weighted, 12);
  AliasSampler single(std::vector<double>{3.0});
  expect_block_matches_repeated(single, 13);
}

TEST(ZipfRejectionSampler, SampleBlockMatchesRepeatedSample) {
  ZipfRejectionSampler sampler(1000000, 0.8);
  expect_block_matches_repeated(sampler, 14);
  ZipfRejectionSampler unit_exponent(5000, 1.0);
  expect_block_matches_repeated(unit_exponent, 15);
}

TEST(AliasSamplerDeath, RejectsInvalidWeights) {
  EXPECT_DEATH(AliasSampler(std::vector<double>{}), "precondition");
  EXPECT_DEATH(AliasSampler(std::vector<double>{0.0, 0.0}), "precondition");
  EXPECT_DEATH(AliasSampler(std::vector<double>{1.0, -1.0}), "precondition");
}

}  // namespace
}  // namespace ccnopt::popularity
