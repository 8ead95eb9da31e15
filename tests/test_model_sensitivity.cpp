#include "ccnopt/model/sensitivity.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

namespace ccnopt::model {
namespace {

SystemParams base() { return SystemParams::paper_defaults(); }

TEST(Linspace, EndpointsAndSpacing) {
  const auto values = linspace(0.0, 1.0, 5);
  ASSERT_EQ(values.size(), 5u);
  EXPECT_DOUBLE_EQ(values.front(), 0.0);
  EXPECT_DOUBLE_EQ(values.back(), 1.0);
  EXPECT_DOUBLE_EQ(values[2], 0.5);
}

TEST(SweepAlpha, MonotoneNonDecreasing) {
  // Figure 4: l* grows with alpha.
  const auto points =
      sweep(base(), SweepParameter::kAlpha, linspace(0.05, 1.0, 20));
  ASSERT_TRUE(points.has_value());
  ASSERT_EQ(points->size(), 20u);
  for (std::size_t i = 1; i < points->size(); ++i) {
    EXPECT_GE((*points)[i].ell_star, (*points)[i - 1].ell_star - 1e-9);
  }
  EXPECT_LT(points->front().ell_star, 0.05);
  EXPECT_GT(points->back().ell_star, 0.9);
}

TEST(SweepZipf, SkipsSingularPoint) {
  const auto points =
      sweep(with_alpha(base(), 0.8), SweepParameter::kZipf,
            {0.5, 0.9, 1.0, 1.1, 1.5});
  ASSERT_TRUE(points.has_value());
  EXPECT_EQ(points->size(), 4u);  // s = 1 dropped
  for (const SweepPoint& p : *points) EXPECT_NE(p.parameter, 1.0);
}

TEST(SweepRouters, DecreasingForPartialAlpha) {
  // Figure 6: more routers -> higher total coordination cost -> lower l*.
  const auto points =
      sweep(with_alpha(base(), 0.6), SweepParameter::kRouters,
            {10.0, 50.0, 150.0, 400.0});
  ASSERT_TRUE(points.has_value());
  for (std::size_t i = 1; i < points->size(); ++i) {
    EXPECT_LE((*points)[i].ell_star, (*points)[i - 1].ell_star + 1e-9);
  }
}

TEST(SweepUnitCost, DecreasingForSmallAlpha) {
  // Figure 7: costlier coordination -> lower l* when cost matters.
  const auto points = sweep(with_alpha(base(), 0.3), SweepParameter::kUnitCost,
                            {10.0, 30.0, 60.0, 100.0});
  ASSERT_TRUE(points.has_value());
  for (std::size_t i = 1; i < points->size(); ++i) {
    EXPECT_LT((*points)[i].ell_star, (*points)[i - 1].ell_star);
  }
}

TEST(SweepUnitCost, FlatAtAlphaOne) {
  // Figure 7: with alpha = 1 the cost term vanishes; l* must not move.
  const auto points =
      sweep(with_alpha(base(), 1.0), SweepParameter::kUnitCost,
            {10.0, 50.0, 100.0});
  ASSERT_TRUE(points.has_value());
  EXPECT_NEAR((*points)[0].ell_star, (*points)[2].ell_star, 1e-9);
}

TEST(SweepGamma, IncreasingCoordination) {
  // Figure 4's series ordering: higher gamma -> higher l* at fixed alpha.
  const auto points =
      sweep(with_alpha(base(), 0.6), SweepParameter::kGamma,
            {2.0, 4.0, 6.0, 8.0, 10.0});
  ASSERT_TRUE(points.has_value());
  for (std::size_t i = 1; i < points->size(); ++i) {
    EXPECT_GT((*points)[i].ell_star, (*points)[i - 1].ell_star);
  }
}

TEST(Sweep, AllValuesInvalidFails) {
  const auto points = sweep(base(), SweepParameter::kZipf, {1.0});
  EXPECT_FALSE(points.has_value());
}

TEST(SweepPoints, CarryGainsConsistentWithEll) {
  const auto points = sweep(base(), SweepParameter::kAlpha, {0.3, 0.9});
  ASSERT_TRUE(points.has_value());
  // Higher alpha -> more coordination -> strictly better gains.
  EXPECT_GT((*points)[1].origin_load_reduction,
            (*points)[0].origin_load_reduction);
  EXPECT_GT((*points)[1].routing_improvement,
            (*points)[0].routing_improvement);
}

TEST(SensitiveRange, DetectsTransitionWindow) {
  const auto points =
      sweep(base(), SweepParameter::kAlpha, linspace(0.02, 1.0, 100));
  ASSERT_TRUE(points.has_value());
  const auto range = sensitive_range(*points);
  ASSERT_TRUE(range.has_value());
  EXPECT_GT(range->low, 0.0);
  EXPECT_LT(range->high, 1.0);
  EXPECT_GT(range->width(), 0.0);
  EXPECT_LT(range->width(), 1.0);
}

TEST(SensitiveRange, SyntheticCurveByHand) {
  std::vector<SweepPoint> curve;
  for (int i = 0; i <= 10; ++i) {
    SweepPoint p;
    p.parameter = 0.1 * i;
    p.ell_star = 0.1 * i;  // identity ramp
    curve.push_back(p);
  }
  const auto range = sensitive_range(curve, 0.25, 0.75);
  ASSERT_TRUE(range.has_value());
  EXPECT_NEAR(range->low, 0.25, 1e-9);
  EXPECT_NEAR(range->high, 0.75, 1e-9);
}

TEST(SensitiveRange, FailsWhenCurveNeverReachesLevel) {
  std::vector<SweepPoint> flat(5);
  for (int i = 0; i < 5; ++i) {
    flat[static_cast<std::size_t>(i)].parameter = i;
    flat[static_cast<std::size_t>(i)].ell_star = 0.05;
  }
  EXPECT_FALSE(sensitive_range(flat).has_value());
}

TEST(MaxSensitivity, PicksSteepestSegment) {
  std::vector<SweepPoint> curve(3);
  curve[0] = {0.0, 0.0, 0, 0};
  curve[1] = {1.0, 0.1, 0, 0};
  curve[2] = {2.0, 0.9, 0, 0};
  EXPECT_NEAR(max_sensitivity(curve), 0.8, 1e-12);
}

TEST(MaxSensitivity, HigherGammaShiftsSensitivityEarlier) {
  // The stability phenomenon of Section V-B1: the alpha window where l*
  // swings fastest moves with gamma.
  const auto grid = linspace(0.02, 1.0, 200);
  const auto low_gamma =
      sweep(with_gamma(base(), 2.0), SweepParameter::kAlpha, grid);
  const auto high_gamma =
      sweep(with_gamma(base(), 10.0), SweepParameter::kAlpha, grid);
  ASSERT_TRUE(low_gamma.has_value());
  ASSERT_TRUE(high_gamma.has_value());
  // gamma = 2 tops out around l* ~ 0.82 at alpha = 1, so probe the
  // 0.1 -> 0.7 window both curves traverse.
  const auto range_low = sensitive_range(*low_gamma, 0.1, 0.7);
  const auto range_high = sensitive_range(*high_gamma, 0.1, 0.7);
  ASSERT_TRUE(range_low.has_value());
  ASSERT_TRUE(range_high.has_value());
  // Higher gamma's curve sits above, so it crosses the levels earlier.
  EXPECT_LT(range_high->low, range_low->low);
}

// A sweep evaluates each valid value on its own: the points of a grid
// sweep equal, bit for bit, the one-value sweeps of its valid values.
TEST(SweepRunner, SkipsInvalidValuesLikeTheSerialSweep) {
  // s = 1 is the Zipf singular point: the sweep skips it.
  const std::vector<double> grid{0.6, 0.8, 1.0, 1.2, 1.4};
  const auto swept = sweep(base(), SweepParameter::kZipf, grid);
  ASSERT_TRUE(swept.has_value());
  ASSERT_EQ(swept->size(), 4u);
  std::size_t next = 0;
  for (const double value : grid) {
    if (value == 1.0) continue;
    const auto single = sweep(base(), SweepParameter::kZipf, {value});
    ASSERT_TRUE(single.has_value()) << "s=" << value;
    ASSERT_EQ(single->size(), 1u);
    const SweepPoint& a = (*swept)[next++];
    const SweepPoint& b = single->front();
    EXPECT_EQ(a.parameter, b.parameter) << "s=" << value;
    EXPECT_EQ(a.ell_star, b.ell_star) << "s=" << value;
    EXPECT_EQ(a.origin_load_reduction, b.origin_load_reduction)
        << "s=" << value;
    EXPECT_EQ(a.routing_improvement, b.routing_improvement) << "s=" << value;
  }
}

TEST(SweepRunner, FailsWhenNoValueIsValid) {
  const auto result = sweep(base(), SweepParameter::kZipf, {1.0, 1.0});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace ccnopt::model
