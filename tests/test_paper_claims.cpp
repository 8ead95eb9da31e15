// Every qualitative claim of the paper's Section V, asserted against the
// regenerated figure sweeps. Where the paper's text contradicts itself or
// its own formulas, EXPERIMENTS.md records the discrepancy and the test
// asserts the behavior that follows from the model (the erratum notes).
#include <gtest/gtest.h>

#include <algorithm>

#include "ccnopt/experiments/figures.hpp"
#include "ccnopt/model/sensitivity.hpp"

namespace ccnopt::experiments {
namespace {

model::SystemParams base() { return model::SystemParams::paper_defaults(); }

const FigureData& alpha_sweep() {
  static const FigureData data = sweep_vs_alpha(base());
  return data;
}

const FigureData& zipf_sweep() {
  static const FigureData data = sweep_vs_zipf(base());
  return data;
}

const FigureData& router_sweep() {
  static const FigureData data = sweep_vs_routers(base());
  return data;
}

const FigureData& cost_sweep() {
  static const FigureData data = sweep_vs_unit_cost(base());
  return data;
}

double peak_parameter(const Series& series, Metric metric) {
  const auto it = std::max_element(
      series.points.begin(), series.points.end(),
      [metric](const model::SweepPoint& a, const model::SweepPoint& b) {
        return metric_value(a, metric) < metric_value(b, metric);
      });
  return it->parameter;
}

// --- Figure 4 -------------------------------------------------------------

TEST(Figure4, EllStarMonotoneInAlphaFromZeroToOne) {
  for (const Series& series : alpha_sweep().series) {
    for (std::size_t i = 1; i < series.points.size(); ++i) {
      EXPECT_GE(series.points[i].ell_star,
                series.points[i - 1].ell_star - 1e-9)
          << series.label;
    }
    EXPECT_LT(series.points.front().ell_star, 0.05) << series.label;
    EXPECT_GT(series.points.back().ell_star, 0.8) << series.label;
  }
}

TEST(Figure4, HigherGammaHigherCoordination) {
  // "for the same alpha, a higher gamma leads to a higher level of
  // coordination"
  const auto& series = alpha_sweep().series;
  for (std::size_t s = 1; s < series.size(); ++s) {
    for (std::size_t i = 0; i < series[s].points.size(); ++i) {
      EXPECT_GE(series[s].points[i].ell_star,
                series[s - 1].points[i].ell_star - 1e-9)
          << series[s].label << " at alpha="
          << series[s].points[i].parameter;
    }
  }
}

TEST(Figure4, SlowThenRapidGrowth) {
  // "when alpha is relatively small, l* increases slowly ... when alpha is
  // sufficiently large, l* grows rapidly"
  // gamma = 2 tops out around l* ~ 0.82 at alpha = 1; probe the
  // 0.1 -> 0.7 swing it does traverse.
  const Series& gamma2 = alpha_sweep().series.front();
  const auto range = model::sensitive_range(gamma2.points, 0.1, 0.7);
  ASSERT_TRUE(range.has_value());
  EXPECT_GT(range->low, 0.2);  // flat early phase exists
  EXPECT_LT(range->width(), 0.6);  // the swing is concentrated
}

TEST(Figure4, SensitiveRangeShiftsWithGamma) {
  // The paper's example quotes [0.2,0.4] for gamma=2 and [0.6,0.8] for
  // gamma=10, which contradicts its own series ordering (higher gamma sits
  // above, so it must cross earlier); the model gives the consistent
  // direction: higher gamma -> earlier sensitive range.
  const auto range_g2 =
      model::sensitive_range(alpha_sweep().series[0].points, 0.1, 0.7);
  const auto range_g10 =
      model::sensitive_range(alpha_sweep().series[4].points, 0.1, 0.7);
  ASSERT_TRUE(range_g2.has_value());
  ASSERT_TRUE(range_g10.has_value());
  EXPECT_LT(range_g10->low, range_g2->low);
  EXPECT_LT(range_g10->high, range_g2->high);
}

// --- Figure 5 -------------------------------------------------------------

TEST(Figure5, AlphaOneDecreasesAcrossS) {
  // "for alpha = 1 ... l* decreases from 1 to ~0.35 as s goes 0 -> 2"
  const Series& alpha1 = zipf_sweep().series.back();
  ASSERT_EQ(alpha1.label, "alpha=1.0");
  EXPECT_GT(alpha1.points.front().ell_star, 0.95);
  EXPECT_NEAR(alpha1.points.back().ell_star, 0.35, 0.05);
  for (std::size_t i = 1; i < alpha1.points.size(); ++i) {
    EXPECT_LE(alpha1.points[i].ell_star,
              alpha1.points[i - 1].ell_star + 1e-9);
  }
}

TEST(Figure5, PartialAlphaVanishesAtSmallS) {
  // "when alpha < 1, l* converges to 0 when s approaches 0". The
  // convergence point depends on how heavily the cost term weighs: under
  // our explicit amortization it has reached ~0 by s = 0.1 for
  // alpha <= 0.6, while alpha = 0.8 is still descending (EXPERIMENTS.md).
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_LT(zipf_sweep().series[s].points.front().ell_star, 0.02)
        << zipf_sweep().series[s].label;
  }
  // For every alpha < 1, s -> 0 pulls l* strictly below its peak.
  for (std::size_t s = 0; s + 1 < zipf_sweep().series.size(); ++s) {
    const Series& series = zipf_sweep().series[s];
    const auto max_it = std::max_element(
        series.points.begin(), series.points.end(),
        [](const auto& a, const auto& b) { return a.ell_star < b.ell_star; });
    EXPECT_LT(series.points.front().ell_star, max_it->ell_star)
        << series.label;
  }
}

TEST(Figure5, PartialAlphaHasInteriorMaximum) {
  // "for 0 <= alpha < 1, there exists a maximum l* around [s ~] 0.5-0.9"
  // (alpha <= 0.6 under our normalization; alpha = 0.8's cost share is too
  // small to pull the peak off the small-s plateau).
  for (std::size_t s = 0; s < 3; ++s) {
    const Series& series = zipf_sweep().series[s];
    const double peak = peak_parameter(series, Metric::kEllStar);
    EXPECT_GT(peak, 0.4) << series.label;
    EXPECT_LT(peak, 1.3) << series.label;
    // Interior: strictly above both endpoints.
    const double peak_value =
        metric_value(*std::max_element(
                         series.points.begin(), series.points.end(),
                         [](const auto& a, const auto& b) {
                           return a.ell_star < b.ell_star;
                         }),
                     Metric::kEllStar);
    EXPECT_GT(peak_value, series.points.front().ell_star);
    EXPECT_GT(peak_value, series.points.back().ell_star);
  }
}

TEST(Figure5, LowerAlphaLowerCoordination) {
  // "l* decreases when alpha is decreasing"
  const auto& series = zipf_sweep().series;
  for (std::size_t s = 1; s < series.size(); ++s) {
    for (std::size_t i = 0; i < series[s].points.size(); ++i) {
      EXPECT_GE(series[s].points[i].ell_star,
                series[s - 1].points[i].ell_star - 1e-9);
    }
  }
}

// --- Figure 6 -------------------------------------------------------------

TEST(Figure6, EllStarDecreasesWithNetworkSize) {
  // "l* decreases as n increases" (partial alpha; the cost scales with n).
  for (std::size_t s = 0; s + 1 < router_sweep().series.size(); ++s) {
    const Series& series = router_sweep().series[s];
    EXPECT_LT(series.points.back().ell_star,
              series.points.front().ell_star + 1e-9)
        << series.label;
  }
}

TEST(Figure6, HigherAlphaDrasticallyHigherCoordination) {
  const auto& series = router_sweep().series;
  // At every n, alpha = 1.0 coordinates more than alpha = 0.2.
  for (std::size_t i = 0; i < series[0].points.size(); ++i) {
    EXPECT_GT(series.back().points[i].ell_star,
              series.front().points[i].ell_star);
  }
}

// --- Figure 7 -------------------------------------------------------------

TEST(Figure7, AlphaOneConstantNearOne) {
  // "when alpha = 1, l* is a constant close to 1"
  const Series& alpha1 = cost_sweep().series.back();
  for (const auto& point : alpha1.points) {
    EXPECT_NEAR(point.ell_star, alpha1.points.front().ell_star, 1e-9);
    EXPECT_GT(point.ell_star, 0.9);
  }
}

TEST(Figure7, SmallAlphaDropsWithUnitCost) {
  // "for small alpha, l* decreases drastically as w increases"
  const Series& alpha02 = cost_sweep().series.front();
  EXPECT_LT(alpha02.points.back().ell_star,
            0.25 * alpha02.points.front().ell_star + 1e-9);
}

TEST(Figure7, LargerAlphaLargerEllForSameW) {
  const auto& series = cost_sweep().series;
  for (std::size_t s = 1; s < series.size(); ++s) {
    for (std::size_t i = 0; i < series[s].points.size(); ++i) {
      EXPECT_GE(series[s].points[i].ell_star,
                series[s - 1].points[i].ell_star - 1e-9);
    }
  }
}

// --- Figure 8 -------------------------------------------------------------

TEST(Figure8, OriginGainGrowsWithAlphaAndGamma) {
  for (const Series& series : alpha_sweep().series) {
    for (std::size_t i = 1; i < series.points.size(); ++i) {
      EXPECT_GE(series.points[i].origin_load_reduction,
                series.points[i - 1].origin_load_reduction - 1e-9)
          << series.label;
    }
  }
  // "a higher gamma leads to a higher overall origin load reduction"
  const auto& series = alpha_sweep().series;
  const std::size_t mid = series[0].points.size() / 2;
  for (std::size_t s = 1; s < series.size(); ++s) {
    EXPECT_GE(series[s].points[mid].origin_load_reduction,
              series[s - 1].points[mid].origin_load_reduction - 1e-9);
  }
}

// --- Figure 9 -------------------------------------------------------------

TEST(Figure9, OriginGainPeaksNearS13ForPartialAlpha) {
  // "the overall origin load reduction ... reaches the maximum at around
  // s = 1.3" (partial alpha; at alpha = 1 G_O keeps growing with s).
  for (const char* label : {"alpha=0.4", "alpha=0.6", "alpha=0.8"}) {
    const auto it = std::find_if(
        zipf_sweep().series.begin(), zipf_sweep().series.end(),
        [label](const Series& s) { return s.label == label; });
    ASSERT_NE(it, zipf_sweep().series.end());
    const double peak = peak_parameter(*it, Metric::kOriginGain);
    EXPECT_GT(peak, 1.0) << label;
    EXPECT_LT(peak, 1.55) << label;
  }
}

// --- Figure 10 ------------------------------------------------------------

TEST(Figure10, SmallAlphaOriginGainFlatInN) {
  // "when alpha is relatively small, the origin load reduction stays
  // roughly constant over n"
  const Series& alpha02 = router_sweep().series.front();
  double lo = 1.0, hi = 0.0;
  for (std::size_t i = 1; i < alpha02.points.size(); ++i) {  // skip n=10 edge
    lo = std::min(lo, alpha02.points[i].origin_load_reduction);
    hi = std::max(hi, alpha02.points[i].origin_load_reduction);
  }
  EXPECT_LT(hi - lo, 0.05);
}

TEST(Figure10, AlphaOneOriginGainGrowsWithN) {
  // "when alpha is approaching 1 ... the origin load reduction increases
  // with an increasing n"
  const Series& alpha1 = router_sweep().series.back();
  EXPECT_GT(alpha1.points.back().origin_load_reduction,
            alpha1.points.front().origin_load_reduction + 0.2);
}

// --- Figure 11 ------------------------------------------------------------

TEST(Figure11, SmallAlphaOriginGainDropsWithW) {
  // "when alpha is small, the origin load reduction decreases rapidly as
  // the unit coordination cost increases"
  const Series& alpha02 = cost_sweep().series.front();
  EXPECT_GT(alpha02.points.front().origin_load_reduction, 0.1);
  EXPECT_LT(alpha02.points.back().origin_load_reduction, 0.02);
}

TEST(Figure11, LargeAlphaOriginGainInvariantToW) {
  const Series& alpha1 = cost_sweep().series.back();
  EXPECT_NEAR(alpha1.points.front().origin_load_reduction,
              alpha1.points.back().origin_load_reduction, 1e-9);
}

// --- Figure 12 ------------------------------------------------------------

TEST(Figure12, RoutingGainGrowsWithAlphaAndGamma) {
  for (const Series& series : alpha_sweep().series) {
    for (std::size_t i = 1; i < series.points.size(); ++i) {
      EXPECT_GE(series.points[i].routing_improvement,
                series.points[i - 1].routing_improvement - 1e-9)
          << series.label;
    }
  }
  const auto& series = alpha_sweep().series;
  for (std::size_t s = 1; s < series.size(); ++s) {
    EXPECT_GT(series[s].points.back().routing_improvement,
              series[s - 1].points.back().routing_improvement);
  }
}

// --- Figure 13 ------------------------------------------------------------

TEST(Figure13, RoutingGainPeaksNearSEqualOne) {
  // "for s close to 1 ... the routing performance improvement is large
  // (reaching the maximum at around s = 1)"
  for (const Series& series : zipf_sweep().series) {
    const double peak = peak_parameter(series, Metric::kRoutingGain);
    EXPECT_GT(peak, 0.8) << series.label;
    EXPECT_LT(peak, 1.3) << series.label;
  }
}

TEST(Figure13, RoutingGainSmallFarFromOne) {
  // "when s is further away from 1 ... the improvement is smaller"
  const Series& alpha1 = zipf_sweep().series.back();
  const double at_peak =
      metric_value(*std::max_element(alpha1.points.begin(),
                                     alpha1.points.end(),
                                     [](const auto& a, const auto& b) {
                                       return a.routing_improvement <
                                              b.routing_improvement;
                                     }),
                   Metric::kRoutingGain);
  EXPECT_LT(alpha1.points.front().routing_improvement, 0.3 * at_peak);
  EXPECT_LT(alpha1.points.back().routing_improvement, 0.3 * at_peak);
}

// --- Theorem 2 headline ---------------------------------------------------

TEST(Theorem2, OppositeStrategiesAcrossTheSingularPoint) {
  // "different ranges of the Zipf exponent can lead to opposite optimal
  // strategies": s in (0,1) -> full coordination as n grows; s in (1,2) ->
  // none.
  const auto below = model::sweep(
      model::with_alpha(model::with_zipf(base(), 0.6), 1.0),
      model::SweepParameter::kRouters, {20.0, 100.0, 500.0});
  const auto above = model::sweep(
      model::with_alpha(model::with_zipf(base(), 1.5), 1.0),
      model::SweepParameter::kRouters, {20.0, 100.0, 500.0});
  ASSERT_TRUE(below.has_value());
  ASSERT_TRUE(above.has_value());
  EXPECT_GT((*below).back().ell_star, 0.97);
  EXPECT_LT((*above).back().ell_star, 0.3);
  // And the trends point in opposite directions.
  EXPECT_GT((*below).back().ell_star, (*below).front().ell_star);
  EXPECT_LT((*above).back().ell_star, (*above).front().ell_star);
}

}  // namespace
}  // namespace ccnopt::experiments
