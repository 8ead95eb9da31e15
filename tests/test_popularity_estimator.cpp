#include "ccnopt/popularity/estimator.hpp"

#include <gtest/gtest.h>

#include "ccnopt/common/random.hpp"
#include "ccnopt/popularity/sampler.hpp"

namespace ccnopt::popularity {
namespace {

std::vector<std::uint64_t> sample_histogram(std::uint64_t catalog, double s,
                                            std::uint64_t draws,
                                            std::uint64_t seed) {
  AliasSampler sampler(catalog, s);
  Rng rng(seed);
  std::vector<std::uint64_t> histogram(catalog, 0);
  for (std::uint64_t i = 0; i < draws; ++i) {
    ++histogram[sampler.sample(rng) - 1];
  }
  return histogram;
}

TEST(RankHistogram, CountsRanks) {
  const std::vector<std::uint64_t> ranks = {1, 1, 3, 2, 1};
  const auto histogram = rank_histogram(ranks, 4);
  EXPECT_EQ(histogram, (std::vector<std::uint64_t>{3, 1, 1, 0}));
}

TEST(RankHistogramDeath, RejectsOutOfRangeRank) {
  const std::vector<std::uint64_t> ranks = {5};
  EXPECT_DEATH((void)rank_histogram(ranks, 4), "precondition");
}

// Both estimators must recover the exponent; the MLE much more tightly.
class EstimatorRecovery : public ::testing::TestWithParam<double> {};

TEST_P(EstimatorRecovery, MleRecoversExponent) {
  const double s = GetParam();
  const auto histogram = sample_histogram(500, s, 200000, 17);
  const auto fit = fit_zipf_mle(histogram);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->s, s, 0.03) << "s=" << s;
  EXPECT_EQ(fit->samples, 200000u);
}

TEST_P(EstimatorRecovery, LogLogRecoversExponentOnTheHead) {
  const double s = GetParam();
  const auto histogram = sample_histogram(500, s, 200000, 18);
  // Head truncation avoids the noisy singleton tail that biases the slope.
  const auto fit = fit_zipf_loglog(histogram, /*head_ranks=*/50);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->s, s, 0.12) << "s=" << s;
  EXPECT_GT(fit->r_squared, 0.9);
}

std::string exponent_name(const ::testing::TestParamInfo<double>& param_info) {
  std::string name = "s";
  name += std::to_string(static_cast<int>(param_info.param * 100));
  return name;
}

INSTANTIATE_TEST_SUITE_P(AcrossExponents, EstimatorRecovery,
                         ::testing::Values(0.5, 0.8, 1.0, 1.3, 1.6),
                         exponent_name);

TEST(FitZipfMle, MoreSamplesTightenTheEstimate) {
  const double s = 0.8;
  const auto small = fit_zipf_mle(sample_histogram(300, s, 3000, 3));
  const auto large = fit_zipf_mle(sample_histogram(300, s, 300000, 3));
  ASSERT_TRUE(small.has_value());
  ASSERT_TRUE(large.has_value());
  EXPECT_LE(std::abs(large->s - s), std::abs(small->s - s) + 0.01);
}

TEST(FitZipfMle, ExactProportionsGiveExactExponent) {
  // Feed the model's own expected counts: the MLE must return s almost
  // exactly (no sampling noise).
  const double s = 1.2;
  const std::uint64_t catalog = 200;
  const ZipfDistribution zipf(catalog, s);
  std::vector<std::uint64_t> histogram(catalog);
  for (std::uint64_t i = 0; i < catalog; ++i) {
    histogram[i] =
        static_cast<std::uint64_t>(zipf.pmf(i + 1) * 1e7 + 0.5);
  }
  const auto fit = fit_zipf_mle(histogram);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->s, s, 1e-3);
}

TEST(FitZipfMle, ClampsAtBracketEdges) {
  // Nearly all mass on rank 1 (a second rank keeps the fit well-posed):
  // steeper than any s in the bracket -> clamp high.
  std::vector<std::uint64_t> spike(100, 0);
  spike[0] = 1000;
  spike[1] = 1;
  const auto high = fit_zipf_mle(spike);
  ASSERT_TRUE(high.has_value());
  EXPECT_DOUBLE_EQ(high->s, 3.0);
  // Perfectly uniform: flatter than any s -> clamp low.
  std::vector<std::uint64_t> uniform(100, 10);
  const auto low = fit_zipf_mle(uniform);
  ASSERT_TRUE(low.has_value());
  EXPECT_DOUBLE_EQ(low->s, 0.05);
}

TEST(FitZipfMle, FailureModes) {
  EXPECT_FALSE(fit_zipf_mle(std::vector<std::uint64_t>{}).has_value());
  EXPECT_FALSE(fit_zipf_mle(std::vector<std::uint64_t>{5}).has_value());
  // One distinct rank only.
  std::vector<std::uint64_t> one(10, 0);
  one[3] = 7;
  EXPECT_FALSE(fit_zipf_mle(one).has_value());
}

TEST(FitZipfLogLog, FailureModes) {
  // Fewer than 3 distinct observed ranks.
  std::vector<std::uint64_t> two(10, 0);
  two[0] = 5;
  two[1] = 3;
  const auto fit = fit_zipf_loglog(two);
  EXPECT_FALSE(fit.has_value());
  EXPECT_EQ(fit.status().code(), ErrorCode::kFailedPrecondition);
}

TEST(FitZipfLogLog, HeadTruncationRespected) {
  auto histogram = sample_histogram(400, 0.8, 100000, 9);
  // Corrupt the tail; a head-limited fit must not see it.
  for (std::size_t i = 100; i < histogram.size(); ++i) histogram[i] = 1000;
  const auto head_fit = fit_zipf_loglog(histogram, 50);
  ASSERT_TRUE(head_fit.has_value());
  EXPECT_NEAR(head_fit->s, 0.8, 0.15);
  const auto full_fit = fit_zipf_loglog(histogram, 0);
  ASSERT_TRUE(full_fit.has_value());
  EXPECT_GT(std::abs(full_fit->s - 0.8), std::abs(head_fit->s - 0.8));
}

}  // namespace
}  // namespace ccnopt::popularity
