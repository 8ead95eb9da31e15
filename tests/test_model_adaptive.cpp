#include "ccnopt/model/adaptive.hpp"

#include <gtest/gtest.h>

#include "ccnopt/common/random.hpp"
#include "ccnopt/popularity/sampler.hpp"

namespace ccnopt::model {
namespace {

SystemParams small_twin() {
  SystemParams p = SystemParams::paper_defaults();
  p.catalog_n = 10000.0;
  p.capacity_c = 100.0;
  p.alpha = 1.0;
  return p;
}

AdaptiveConfig small_config() {
  AdaptiveConfig config;
  config.catalog_size = 10000;
  config.epoch_requests = 30000;
  config.smoothing = 1.0;  // trust each epoch fully (tests override)
  return config;
}

void feed_zipf_epoch(AdaptiveController& controller, double s,
                     std::uint64_t requests, std::uint64_t seed) {
  popularity::AliasSampler sampler(10000, s);
  Rng rng(seed);
  for (std::uint64_t i = 0; i < requests; ++i) {
    controller.observe(sampler.sample(rng));
  }
}

TEST(AdaptiveConfig, Validation) {
  EXPECT_TRUE(small_config().validate().is_ok());
  AdaptiveConfig bad = small_config();
  bad.catalog_size = 1;
  EXPECT_FALSE(bad.validate().is_ok());
  bad = small_config();
  bad.smoothing = 0.0;
  EXPECT_FALSE(bad.validate().is_ok());
  bad = small_config();
  bad.min_s = 2.5;
  EXPECT_FALSE(bad.validate().is_ok());
  bad = small_config();
  bad.singularity_margin = 0.0;
  EXPECT_FALSE(bad.validate().is_ok());
}

TEST(AdaptiveController, EstimatesTheTrueExponent) {
  AdaptiveController controller(small_twin(), small_config());
  feed_zipf_epoch(controller, 1.3, 30000, 5);
  EXPECT_TRUE(controller.epoch_complete());
  const auto decision = controller.end_epoch();
  ASSERT_TRUE(decision.has_value());
  EXPECT_NEAR(decision->estimated_s, 1.3, 0.05);
  EXPECT_NEAR(controller.params().s, 1.3, 0.05);
  EXPECT_EQ(controller.epochs_completed(), 1u);
  EXPECT_EQ(controller.observed_in_epoch(), 0u);  // histogram reset
}

TEST(AdaptiveController, DecisionMatchesOptimizerAtBelief) {
  AdaptiveController controller(small_twin(), small_config());
  feed_zipf_epoch(controller, 0.7, 30000, 6);
  const auto decision = controller.end_epoch();
  ASSERT_TRUE(decision.has_value());
  const auto reference =
      optimize(with_zipf(small_twin(), decision->smoothed_s));
  ASSERT_TRUE(reference.has_value());
  EXPECT_NEAR(decision->ell_star, reference->ell_star, 1e-9);
  EXPECT_NEAR(decision->x_star, reference->x_star, 1e-6);
}

TEST(AdaptiveController, SmoothingBlendsBeliefs) {
  AdaptiveConfig config = small_config();
  config.smoothing = 0.25;
  SystemParams twin = small_twin();
  twin.s = 0.5;  // prior belief
  AdaptiveController controller(twin, config);
  feed_zipf_epoch(controller, 1.5, 30000, 7);
  const auto decision = controller.end_epoch();
  ASSERT_TRUE(decision.has_value());
  // EWMA: 0.75 * 0.5 + 0.25 * ~1.5 ~ 0.75.
  EXPECT_NEAR(decision->smoothed_s, 0.75, 0.05);
}

TEST(AdaptiveController, TracksDriftOverEpochs) {
  AdaptiveConfig config = small_config();
  config.smoothing = 0.8;
  AdaptiveController controller(small_twin(), config);
  const double drift[] = {0.6, 0.9, 1.2, 1.5};
  for (std::uint64_t e = 0; e < 4; ++e) {
    feed_zipf_epoch(controller, drift[e], 30000, 100 + e);
    const auto decision = controller.end_epoch();
    ASSERT_TRUE(decision.has_value());
  }
  EXPECT_NEAR(controller.params().s, 1.5, 0.2);
  EXPECT_EQ(controller.epochs_completed(), 4u);
}

TEST(AdaptiveController, SidestepsTheSingularPoint) {
  AdaptiveConfig config = small_config();
  AdaptiveController controller(small_twin(), config);
  feed_zipf_epoch(controller, 1.0, 60000, 8);
  const auto decision = controller.end_epoch();
  ASSERT_TRUE(decision.has_value());
  // The belief must stay a valid optimizer input: off s = 1 by the margin.
  EXPECT_GE(std::abs(controller.params().s - 1.0),
            config.singularity_margin - 1e-12);
  EXPECT_TRUE(controller.params().validate().is_ok());
}

TEST(AdaptiveController, SparseEpochFailsButRecovers) {
  AdaptiveController controller(small_twin(), small_config());
  controller.observe(1);  // one sample: MLE cannot fit
  const auto failed = controller.end_epoch();
  EXPECT_FALSE(failed.has_value());
  EXPECT_EQ(controller.observed_in_epoch(), 0u);  // reset regardless
  const double prior = controller.params().s;
  // A healthy epoch afterwards works normally.
  feed_zipf_epoch(controller, 1.2, 30000, 9);
  const auto decision = controller.end_epoch();
  ASSERT_TRUE(decision.has_value());
  EXPECT_NE(controller.params().s, prior);
}

TEST(AdaptiveController, LogLogVariantAlsoTracks) {
  AdaptiveConfig config = small_config();
  config.use_mle = false;
  AdaptiveController controller(small_twin(), config);
  feed_zipf_epoch(controller, 0.8, 60000, 10);
  const auto decision = controller.end_epoch();
  ASSERT_TRUE(decision.has_value());
  EXPECT_NEAR(decision->estimated_s, 0.8, 0.25);  // log-log is noisier
}

TEST(AdaptiveControllerDeath, ObserveOutOfCatalog) {
  AdaptiveController controller(small_twin(), small_config());
  EXPECT_DEATH(controller.observe(0), "precondition");
  EXPECT_DEATH(controller.observe(10001), "precondition");
}

}  // namespace
}  // namespace ccnopt::model
