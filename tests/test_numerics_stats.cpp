#include "ccnopt/numerics/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace ccnopt::numerics {
namespace {

TEST(RunningStats, MeanAndVariance) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all, left, right;
  const std::vector<double> xs = {1.5, -2.0, 3.25, 8.0, 0.0, -1.0, 4.5};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    all.add(xs[i]);
    (i < 3 ? left : right).add(xs[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

// Bit-level comparison of two accumulators through their observable
// state. mean/min/max require count >= 1; callers pass only non-empty or
// compare empties via count alone.
void expect_identical_bits(const RunningStats& a, const RunningStats& b) {
  ASSERT_EQ(a.count(), b.count());
  if (a.count() == 0) return;
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  if (a.count() >= 2) {
    EXPECT_EQ(a.variance(), b.variance());
  }
}

// Adversarial magnitude spread: values spanning ~16 decades with sign
// flips, so naive sum-of-squares formulations and order-dependent
// groupings diverge in the low bits.
std::vector<double> adversarial_values(std::size_t n) {
  std::vector<double> xs;
  xs.reserve(n);
  double magnitude = 1e-8;
  for (std::size_t i = 0; i < n; ++i) {
    const double sign = (i % 3 == 0) ? -1.0 : 1.0;
    xs.push_back(sign * magnitude * (1.0 + 0.125 * static_cast<double>(i % 7)));
    magnitude *= 1.9;
    if (magnitude > 1e8) magnitude = 1e-8;
  }
  return xs;
}

TEST(RunningStatsMergeTree, FixedShapeIsExplicitPairwiseHalving) {
  // The tree's grouping is pinned: split at n/2, recurse. Four partials
  // must reduce as merge(merge(A,B), merge(C,D)); three as
  // merge(A, merge(B,C)) — bit for bit.
  const std::vector<double> xs = adversarial_values(64);
  std::vector<RunningStats> parts(4);
  for (std::size_t i = 0; i < xs.size(); ++i) parts[i % 4].add(xs[i]);

  RunningStats ab = parts[0];
  ab.merge(parts[1]);
  RunningStats cd = parts[2];
  cd.merge(parts[3]);
  RunningStats expected4 = ab;
  expected4.merge(cd);
  expect_identical_bits(merge_tree(parts), expected4);

  const std::vector<RunningStats> three(parts.begin(), parts.begin() + 3);
  RunningStats bc = parts[1];
  bc.merge(parts[2]);
  RunningStats expected3 = parts[0];
  expected3.merge(bc);
  expect_identical_bits(merge_tree(three), expected3);

  // Degenerate shapes: empty input and a single partial.
  EXPECT_EQ(merge_tree({}).count(), 0u);
  expect_identical_bits(merge_tree(std::vector<RunningStats>{parts[2]}),
                        parts[2]);
}

TEST(RunningStatsMergeTree, IndependentOfShardGrouping) {
  // The windowed engine's recording contract: per-router partials are
  // filled by whichever shard owns the router, then reduced through the
  // fixed-shape tree — so the result must depend only on the partials,
  // never on how routers were grouped into shards. Simulate several shard
  // layouts filling the same 13 router slots from the same per-router
  // streams.
  const std::size_t routers = 13;
  const std::vector<double> xs = adversarial_values(13 * 41);
  const auto fill_slots = [&](std::size_t shard_count) {
    std::vector<RunningStats> slots(routers);
    // Each shard owns a contiguous router range and replays its routers'
    // values in per-router order — mirroring the engine's serve loop.
    for (std::size_t s = 0; s < shard_count; ++s) {
      const std::size_t lo = routers * s / shard_count;
      const std::size_t hi = routers * (s + 1) / shard_count;
      for (std::size_t r = lo; r < hi; ++r) {
        for (std::size_t i = 0; i < xs.size(); ++i) {
          if (i % routers == r) slots[r].add(xs[i]);
        }
      }
    }
    return merge_tree(slots);
  };
  const RunningStats one = fill_slots(1);
  for (const std::size_t shard_count : {2u, 3u, 8u, 13u}) {
    SCOPED_TRACE(shard_count);
    expect_identical_bits(fill_slots(shard_count), one);
  }
}

TEST(RunningStatsMergeTree, EmptySlotPositionsShapeTheTree) {
  // Empty accumulators are identity ELEMENTS but not identity POSITIONS:
  // the documented contract is that callers present fixed-size slot
  // arrays. Verify an empty slot changes nothing about the merged
  // moments when the shape is held fixed.
  const std::vector<double> xs = adversarial_values(32);
  std::vector<RunningStats> with_gap(5);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // Slot 2 stays empty.
    const std::size_t slot = i % 4;
    with_gap[slot >= 2 ? slot + 1 : slot].add(xs[i]);
  }
  std::vector<RunningStats> with_gap_again = with_gap;
  expect_identical_bits(merge_tree(with_gap), merge_tree(with_gap_again));
  EXPECT_EQ(merge_tree(with_gap).count(), xs.size());
}

TEST(RunningStatsMergeTree, CloseToStreamingOnAdversarialInput) {
  // Not bit-equal to a single global stream (grouping differs), but the
  // Chan update is numerically stable: relative error stays tiny even
  // across 16 decades of magnitude spread.
  const std::vector<double> xs = adversarial_values(4096);
  RunningStats streaming;
  std::vector<RunningStats> slots(64);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    streaming.add(xs[i]);
    slots[i % 64].add(xs[i]);
  }
  const RunningStats merged = merge_tree(slots);
  EXPECT_EQ(merged.count(), streaming.count());
  EXPECT_NEAR(merged.mean(), streaming.mean(),
              1e-9 * std::abs(streaming.mean()));
  EXPECT_NEAR(merged.variance(), streaming.variance(),
              1e-9 * streaming.variance());
  EXPECT_EQ(merged.min(), streaming.min());
  EXPECT_EQ(merged.max(), streaming.max());
}

TEST(RunningStatsDeath, RequiresSamples) {
  RunningStats empty;
  EXPECT_DEATH((void)empty.mean(), "precondition");
  RunningStats one;
  one.add(1.0);
  EXPECT_DEATH((void)one.variance(), "precondition");
}

TEST(RunningStats, ConfidenceIntervalShrinksWithSamples) {
  RunningStats small, large;
  for (int i = 0; i < 16; ++i) small.add(i % 4);
  for (int i = 0; i < 1024; ++i) large.add(i % 4);
  EXPECT_GT(small.mean_ci_half_width(), large.mean_ci_half_width());
  // Known case: stddev 0 -> zero-width interval.
  RunningStats constant;
  constant.add(5.0);
  constant.add(5.0);
  EXPECT_DOUBLE_EQ(constant.mean_ci_half_width(), 0.0);
}

TEST(Mean, Basic) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.0);
}

TEST(LinearFit, RecoversExactLine) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {3.0, 5.0, 7.0, 9.0};  // y = 2x + 1
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, EstimatesZipfExponentFromLogLog) {
  // log f(i) = -s log i + const; the fit must recover s.
  const double s = 0.8;
  std::vector<double> log_rank, log_freq;
  for (int i = 1; i <= 100; ++i) {
    log_rank.push_back(std::log(i));
    log_freq.push_back(-s * std::log(i) + 2.0);
  }
  const LinearFit fit = linear_fit(log_rank, log_freq);
  EXPECT_NEAR(fit.slope, -0.8, 1e-10);
}

}  // namespace
}  // namespace ccnopt::numerics
