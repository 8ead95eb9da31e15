#include "ccnopt/model/heterogeneous.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "ccnopt/common/random.hpp"

#include "ccnopt/model/optimizer.hpp"
#include "ccnopt/model/performance.hpp"

namespace ccnopt::model {
namespace {

SystemParams homogeneous_base() {
  return with_alpha(SystemParams::paper_defaults(), 1.0);
}

HeterogeneousParams skewed_params() {
  HeterogeneousParams hp =
      HeterogeneousParams::from_homogeneous(homogeneous_base());
  for (std::size_t i = 0; i < hp.capacities.size(); ++i) {
    hp.capacities[i] = (i % 2 == 0) ? 500.0 : 1500.0;  // same total as 1000
  }
  return hp;
}

TEST(HeterogeneousParams, FromHomogeneousReplicates) {
  const HeterogeneousParams hp =
      HeterogeneousParams::from_homogeneous(homogeneous_base());
  EXPECT_EQ(hp.capacities.size(), 20u);
  for (const double c : hp.capacities) EXPECT_DOUBLE_EQ(c, 1000.0);
  EXPECT_TRUE(hp.validate().is_ok());
}

TEST(HeterogeneousParams, ValidationRules) {
  HeterogeneousParams hp = skewed_params();
  EXPECT_TRUE(hp.validate().is_ok());

  HeterogeneousParams one_router = hp;
  one_router.capacities = {100.0};
  EXPECT_FALSE(one_router.validate().is_ok());

  HeterogeneousParams zero_capacity = hp;
  zero_capacity.capacities[3] = 0.0;
  EXPECT_FALSE(zero_capacity.validate().is_ok());

  HeterogeneousParams tiny_catalog = hp;
  tiny_catalog.catalog_n = 100.0;
  EXPECT_FALSE(tiny_catalog.validate().is_ok());

  HeterogeneousParams bad_share = hp;
  bad_share.request_share.assign(hp.capacities.size(), 0.01);  // sums to 0.2
  EXPECT_FALSE(bad_share.validate().is_ok());

  HeterogeneousParams good_share = hp;
  good_share.request_share.assign(hp.capacities.size(),
                                  1.0 / static_cast<double>(hp.capacities.size()));
  EXPECT_TRUE(good_share.validate().is_ok());
}

TEST(HeterogeneousModel, ReducesToHomogeneousEquationTwo) {
  // Equal capacities and equal x: T must equal the homogeneous Eq. 2.
  const SystemParams homo = homogeneous_base();
  const HeterogeneousModel hetero(
      HeterogeneousParams::from_homogeneous(homo));
  const PerformanceModel reference(homo);
  for (double x : {0.0, 250.0, 600.0, 1000.0}) {
    const std::vector<double> xs(20, x);
    EXPECT_NEAR(hetero.routing_performance(xs),
                reference.routing_performance(x), 1e-12)
        << "x=" << x;
    EXPECT_NEAR(hetero.coordination_cost(xs), reference.coordination_cost(x),
                1e-12);
  }
  EXPECT_NEAR(hetero.baseline_performance(),
              reference.baseline_performance(), 1e-12);
}

TEST(HeterogeneousModel, TierSplitSumsToOne) {
  const HeterogeneousModel model(skewed_params());
  std::vector<double> x(20);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.3 * model.params().capacities[i];
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto split = model.tier_split(i, x);
    EXPECT_NEAR(split.local + split.network + split.origin, 1.0, 1e-12);
    EXPECT_GE(split.dead_zone, -1e-12);
    EXPECT_LE(split.dead_zone, split.origin + 1e-12);
  }
}

TEST(HeterogeneousModel, DeadZoneAppearsWithUnequalCoverage) {
  const HeterogeneousModel model(skewed_params());
  // Uniform level 0.5: small routers keep 250 local, big keep 750 ->
  // small routers have a (250, 750] dead zone; big routers none.
  std::vector<double> x(20);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.5 * model.params().capacities[i];
  }
  EXPECT_GT(model.tier_split(0, x).dead_zone, 0.0);   // capacity 500
  EXPECT_NEAR(model.tier_split(1, x).dead_zone, 0.0, 1e-12);  // capacity 1500
}

TEST(HeterogeneousModel, EqualCoverageEliminatesDeadZones) {
  const HeterogeneousModel model(skewed_params());
  const auto strategy = model.optimize_equal_coverage();
  ASSERT_TRUE(strategy.has_value());
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(model.tier_split(i, strategy->x).dead_zone, 0.0, 1e-9);
  }
}

TEST(HeterogeneousModel, StrategyFamilyOrdering) {
  // Coordinate descent refines the 1-D families, never loses to them.
  const HeterogeneousModel model(skewed_params());
  const auto uniform = model.optimize_uniform_level();
  const auto equal = model.optimize_equal_coverage();
  const auto descent = model.optimize_coordinate_descent();
  ASSERT_TRUE(uniform.has_value());
  ASSERT_TRUE(equal.has_value());
  ASSERT_TRUE(descent.has_value());
  EXPECT_LE(descent->objective, uniform->objective + 1e-9);
  EXPECT_LE(descent->objective, equal->objective + 1e-9);
  // With skewed capacities, exploiting the dead-zone structure wins.
  EXPECT_LT(equal->objective, uniform->objective);
}

TEST(HeterogeneousModel, DescentFindsEqualCoverageStructure) {
  // The optimal x equalizes local coverage: m_i = c_i - x_i equal across
  // routers (the insight the dead-zone term forces).
  const HeterogeneousModel model(skewed_params());
  const auto descent = model.optimize_coordinate_descent();
  ASSERT_TRUE(descent.has_value());
  const double m0 = model.params().capacities[0] - descent->x[0];
  for (std::size_t i = 1; i < descent->x.size(); ++i) {
    const double mi = model.params().capacities[i] - descent->x[i];
    EXPECT_NEAR(mi, m0, 2.0) << "router " << i;  // within a couple contents
  }
}

TEST(HeterogeneousModel, MatchesHomogeneousOptimizerOnEqualCapacities) {
  const SystemParams homo = with_alpha(SystemParams::paper_defaults(), 0.7);
  const HeterogeneousModel hetero(
      HeterogeneousParams::from_homogeneous(homo));
  const auto homo_result = optimize(homo);
  const auto hetero_result = hetero.optimize_coordinate_descent();
  ASSERT_TRUE(homo_result.has_value());
  ASSERT_TRUE(hetero_result.has_value());
  EXPECT_NEAR(hetero_result->objective, homo_result->objective,
              1e-4 * homo_result->objective);
  EXPECT_NEAR(hetero_result->coordination_level(hetero.params()),
              homo_result->ell_star, 0.01);
}

TEST(HeterogeneousModel, NoJointRandomMoveImprovesOnDescent) {
  // Independent oracle for coordinate descent: random moves of the whole
  // x vector at once — which coordinate descent never tries — must not
  // find a meaningfully better heterogeneous provisioning.
  HeterogeneousParams hp =
      HeterogeneousParams::from_homogeneous(homogeneous_base());
  hp.capacities.resize(6);
  for (std::size_t i = 0; i < hp.capacities.size(); ++i) {
    hp.capacities[i] = (i % 2 == 0) ? 600.0 : 1400.0;
  }
  const HeterogeneousModel hetero(hp);
  const auto descent = hetero.optimize_coordinate_descent();
  ASSERT_TRUE(descent.has_value());

  Rng rng(20240806);
  double best = descent->objective;
  for (int probe = 0; probe < 2000; ++probe) {
    const double radius = probe % 2 == 0 ? 5.0 : 100.0;
    std::vector<double> x = descent->x;
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = std::clamp(x[i] + rng.uniform(-radius, radius), 0.0,
                        hp.capacities[i]);
    }
    best = std::min(best, hetero.objective(x));
  }
  EXPECT_GE(best, descent->objective - 1e-4 * descent->objective);
}

TEST(HeterogeneousModel, RequestShareWeighting) {
  // Pushing all traffic onto one router makes only its tier split matter.
  HeterogeneousParams hp = skewed_params();
  hp.request_share.assign(hp.capacities.size(), 0.0);
  hp.request_share[1] = 1.0;  // the 1500-capacity router
  const HeterogeneousModel model(hp);
  std::vector<double> x(20, 0.0);
  const auto split = model.tier_split(1, x);
  const double expected = split.local * hp.latency.d0 +
                          split.network * hp.latency.d1 +
                          split.origin * hp.latency.d2;
  EXPECT_NEAR(model.routing_performance(x), expected, 1e-12);
}

TEST(HeterogeneousModel, CoordinationBeatsBaselineAtAlphaOne) {
  const HeterogeneousModel model(skewed_params());
  const auto descent = model.optimize_coordinate_descent();
  ASSERT_TRUE(descent.has_value());
  EXPECT_LT(descent->routing, model.baseline_performance());
  EXPECT_GT(descent->total_coordinated(), 0.0);
  EXPECT_GT(descent->coordination_level(model.params()), 0.0);
  EXPECT_LE(descent->coordination_level(model.params()), 1.0);
}

TEST(ParseCapacitySpec, GroupsAndSingles) {
  const auto spec = parse_capacity_spec("500x3,1500x2,42");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(*spec, (std::vector<double>{500, 500, 500, 1500, 1500, 42}));
}

TEST(ParseCapacitySpec, WhitespaceTolerated) {
  const auto spec = parse_capacity_spec(" 100 , 200x2 ");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->size(), 3u);
}

TEST(ParseCapacitySpec, Rejections) {
  EXPECT_FALSE(parse_capacity_spec("").has_value());
  EXPECT_FALSE(parse_capacity_spec("100,,200").has_value());
  EXPECT_FALSE(parse_capacity_spec("abc").has_value());
  EXPECT_FALSE(parse_capacity_spec("100x0").has_value());
  EXPECT_FALSE(parse_capacity_spec("100xtwo").has_value());
  EXPECT_FALSE(parse_capacity_spec("-5").has_value());
  EXPECT_FALSE(parse_capacity_spec("0x3").has_value());
  for (const char* bad : {"", "100,,200", "abc", "100x0", "-5"}) {
    EXPECT_EQ(parse_capacity_spec(bad).status().code(),
              ErrorCode::kParseError)
        << bad;
  }
}

TEST(HeterogeneousModelDeath, InvalidParamsRejected) {
  HeterogeneousParams hp = skewed_params();
  hp.s = 1.0;
  EXPECT_DEATH(HeterogeneousModel{hp}, "precondition");
}

}  // namespace
}  // namespace ccnopt::model
