#include "ccnopt/numerics/roots.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace ccnopt::numerics {
namespace {

// The solver's contract, exercised against a catalogue of functions.
struct SolverCase {
  const char* name;
  Fn f;
  double lo;
  double hi;
  double root;
};

std::vector<SolverCase> cases() {
  return {
      {"linear", [](double x) { return 2.0 * x - 3.0; }, 0.0, 5.0, 1.5},
      {"quadratic", [](double x) { return x * x - 2.0; }, 0.0, 2.0,
       std::sqrt(2.0)},
      {"cubic", [](double x) { return x * x * x - x - 2.0; }, 1.0, 2.0,
       1.5213797068045676},
      {"transcendental", [](double x) { return std::cos(x) - x; }, 0.0, 1.0,
       0.7390851332151607},
      {"steep", [](double x) { return std::pow(x, -0.8) - 10.0; }, 1e-6, 1.0,
       std::pow(10.0, -1.25)},
  };
}

// One instance, named after the solver, so the suite's test names read
// AllSolvers/RootSolvers.<Test>/brent.
class RootSolvers : public ::testing::TestWithParam<int> {};

Expected<RootResult> solve(const SolverCase& c) {
  return brent(c.f, c.lo, c.hi);
}

TEST_P(RootSolvers, FindsKnownRoots) {
  for (const SolverCase& c : cases()) {
    const auto result = solve(c);
    ASSERT_TRUE(result.has_value()) << c.name;
    EXPECT_NEAR(result->root, c.root, 1e-8) << c.name;
  }
}

TEST_P(RootSolvers, RejectsNonBracketingInterval) {
  const auto result = solve({"nobracket",
                                         [](double x) { return x * x + 1.0; },
                                         -1.0, 1.0, 0.0});
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
}

TEST_P(RootSolvers, RejectsInvertedInterval) {
  const auto result = solve({"inverted",
                                         [](double x) { return x; }, 1.0,
                                         -1.0, 0.0});
  EXPECT_FALSE(result.has_value());
}

TEST_P(RootSolvers, RootAtEndpointReturnsImmediately) {
  const SolverCase c{"endpoint", [](double x) { return x - 1.0; }, 1.0, 2.0,
                     1.0};
  const auto result = solve(c);
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->root, 1.0);
  EXPECT_EQ(result->iterations, 0);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, RootSolvers, ::testing::Values(1),
                         [](const auto&) { return std::string("brent"); });

TEST(Brent, ConvergesFasterThanBisection) {
  // Bisection halves [0, 1] until it is narrower than x_tolerance:
  // ceil(log2((hi - lo) / x_tolerance)) = 40 steps at the default 1e-12.
  const RootOptions options;
  const int bisection_steps =
      static_cast<int>(std::ceil(std::log2(1.0 / options.x_tolerance)));
  const Fn f = [](double x) { return std::cos(x) - x; };
  const auto via_brent = brent(f, 0.0, 1.0, options);
  ASSERT_TRUE(via_brent.has_value());
  EXPECT_LT(via_brent->iterations, bisection_steps);
}

TEST(RootOptions, FToleranceStopsEarly) {
  const Fn f = [](double x) { return x * x * x - 2.0; };
  RootOptions options;
  options.f_tolerance = 0.25;
  const auto result = brent(f, -1.0, 3.0, options);
  const auto full = brent(f, -1.0, 3.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(full.has_value());
  EXPECT_LE(std::abs(result->f_at_root), 0.25);
  EXPECT_LT(result->iterations, full->iterations);
}

}  // namespace
}  // namespace ccnopt::numerics
