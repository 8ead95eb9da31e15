#include "ccnopt/numerics/harmonic.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ccnopt::numerics {
namespace {

TEST(HarmonicExact, SmallValuesByHand) {
  EXPECT_DOUBLE_EQ(harmonic_exact(0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(harmonic_exact(1, 2.0), 1.0);
  EXPECT_NEAR(harmonic_exact(3, 1.0), 1.0 + 0.5 + 1.0 / 3.0, 1e-15);
  EXPECT_NEAR(harmonic_exact(2, 0.5), 1.0 + 1.0 / std::sqrt(2.0), 1e-15);
}

TEST(HarmonicExact, ClassicHarmonicNumber) {
  // H_100 ~= 5.1873775...
  EXPECT_NEAR(harmonic_exact(100, 1.0), 5.187377517639621, 1e-12);
}

TEST(HarmonicEulerMaclaurin, MatchesExactAcrossExponents) {
  for (double s : {0.2, 0.5, 0.8, 1.0, 1.2, 1.5, 1.9}) {
    for (std::uint64_t k : {20ULL, 100ULL, 1000ULL, 50000ULL}) {
      EXPECT_NEAR(harmonic_euler_maclaurin(k, s), harmonic_exact(k, s),
                  1e-10 * harmonic_exact(k, s))
          << "s=" << s << " k=" << k;
    }
  }
}

TEST(HarmonicEulerMaclaurin, SmallKFallsBackToExact) {
  for (std::uint64_t k = 1; k <= 16; ++k) {
    EXPECT_DOUBLE_EQ(harmonic_euler_maclaurin(k, 0.8), harmonic_exact(k, 0.8));
  }
}

TEST(HarmonicEulerMaclaurin, HugeKIsFiniteAndMonotone) {
  // Direct summation is impossible at N = 10^12; the expansion must still
  // be finite and monotone in k.
  const double h1 = harmonic_euler_maclaurin(1000000000ULL, 0.8);
  const double h2 = harmonic_euler_maclaurin(1000000000000ULL, 0.8);
  EXPECT_TRUE(std::isfinite(h1));
  EXPECT_TRUE(std::isfinite(h2));
  EXPECT_GT(h2, h1);
}

TEST(HarmonicDispatch, ThresholdRouting) {
  // Below the threshold the dispatcher must agree with exact to the bit.
  EXPECT_DOUBLE_EQ(harmonic(100, 0.8, 4096), harmonic_exact(100, 0.8));
  // Above it, with Euler-Maclaurin to high accuracy.
  EXPECT_NEAR(harmonic(100000, 0.8, 64), harmonic_exact(100000, 0.8), 1e-8);
  EXPECT_DOUBLE_EQ(harmonic(0, 0.8), 0.0);
}

TEST(HarmonicTable, MatchesExact) {
  const HarmonicTable table(1000, 0.8);
  EXPECT_DOUBLE_EQ(table.at(0), 0.0);
  for (std::uint64_t k : {1ULL, 7ULL, 100ULL, 1000ULL}) {
    EXPECT_NEAR(table.at(k), harmonic_exact(k, 0.8), 1e-10);
  }
  EXPECT_EQ(table.max_k(), 1000u);
  EXPECT_DOUBLE_EQ(table.s(), 0.8);
}

TEST(HarmonicTable, LowerBoundInvertsPrefix) {
  const HarmonicTable table(100, 1.0);
  // lower_bound(H_k) == k for every k.
  for (std::uint64_t k = 1; k <= 100; ++k) {
    EXPECT_EQ(table.lower_bound(table.at(k)), k);
  }
  // A target between H_k and H_{k+1} resolves to k+1.
  EXPECT_EQ(table.lower_bound(0.5 * (table.at(3) + table.at(4))), 4u);
  // Beyond the table: clamps to max_k.
  EXPECT_EQ(table.lower_bound(table.at(100) + 1.0), 100u);
}

TEST(HarmonicLogExact, SmallValuesByHand) {
  // L_{k,s} = sum j^{-s} ln j; the j = 1 term is always zero.
  EXPECT_DOUBLE_EQ(harmonic_log_exact(0, 0.8), 0.0);
  EXPECT_DOUBLE_EQ(harmonic_log_exact(1, 0.8), 0.0);
  const double s = 0.7;
  EXPECT_NEAR(harmonic_log_exact(2, s), std::pow(2.0, -s) * std::log(2.0),
              1e-15);
  EXPECT_NEAR(harmonic_log_exact(3, s),
              std::pow(2.0, -s) * std::log(2.0) +
                  std::pow(3.0, -s) * std::log(3.0),
              1e-15);
}

TEST(HarmonicLogEulerMaclaurin, MatchesExactAcrossExponents) {
  for (double s : {0.2, 0.5, 0.8, 1.0, 1.2, 1.5, 1.9}) {
    for (std::uint64_t k : {50ULL, 100ULL, 1000ULL, 50000ULL}) {
      const double exact = harmonic_log_exact(k, s);
      EXPECT_NEAR(harmonic_log_euler_maclaurin(k, s), exact, 1e-10 * exact)
          << "s=" << s << " k=" << k;
    }
  }
}

TEST(HarmonicLogDispatch, ThresholdRouting) {
  EXPECT_DOUBLE_EQ(harmonic_log(100, 0.8, 4096),
                   harmonic_log_exact(100, 0.8));
  EXPECT_NEAR(harmonic_log(100000, 0.8, 64), harmonic_log_exact(100000, 0.8),
              1e-8 * harmonic_log_exact(100000, 0.8));
  EXPECT_DOUBLE_EQ(harmonic_log(1, 0.8), 0.0);
}

// ---------------------------------------------------------------------------
// Web-scale regression: pin H_{k,s} and L_{k,s} to < 1e-10 relative error up
// to k = 10^9 against an independent long-double reference that uses a much
// larger exact prefix (2*10^5 terms) before switching to Euler–Maclaurin, so
// its own error is orders of magnitude below the tolerance being enforced.
// ---------------------------------------------------------------------------

long double reference_harmonic(std::uint64_t k, double s_in) {
  const long double s = s_in;
  constexpr std::uint64_t kPrefix = 200000;
  if (k <= kPrefix) {
    long double sum = 0.0L;
    for (std::uint64_t j = k; j >= 1; --j) {
      sum += std::pow(static_cast<long double>(j), -s);
    }
    return sum;
  }
  long double prefix = 0.0L;
  for (std::uint64_t j = kPrefix; j >= 1; --j) {
    prefix += std::pow(static_cast<long double>(j), -s);
  }
  const long double a = static_cast<long double>(kPrefix);
  const long double b = static_cast<long double>(k);
  const long double integral =
      s_in == 1.0 ? std::log(b / a)
                  : (std::pow(b, 1.0L - s) - std::pow(a, 1.0L - s)) /
                        (1.0L - s);
  const auto f = [&](long double t) { return std::pow(t, -s); };
  const auto d1 = [&](long double t) { return -s * std::pow(t, -s - 1.0L); };
  const auto d3 = [&](long double t) {
    return -s * (s + 1.0L) * (s + 2.0L) * std::pow(t, -s - 3.0L);
  };
  const auto d5 = [&](long double t) {
    return -s * (s + 1.0L) * (s + 2.0L) * (s + 3.0L) * (s + 4.0L) *
           std::pow(t, -s - 5.0L);
  };
  // prefix already counts f(a); Euler–Maclaurin for sum_{j=a..b} contributes
  // (f(a)+f(b))/2, so subtract the double-counted f(a)/2.
  return prefix + integral + (f(b) - f(a)) / 2.0L +
         (d1(b) - d1(a)) / 12.0L - (d3(b) - d3(a)) / 720.0L +
         (d5(b) - d5(a)) / 30240.0L;
}

long double reference_harmonic_log(std::uint64_t k, double s_in) {
  const long double s = s_in;
  constexpr std::uint64_t kPrefix = 200000;
  const auto term = [&](std::uint64_t j) {
    const long double t = static_cast<long double>(j);
    return std::pow(t, -s) * std::log(t);
  };
  if (k <= kPrefix) {
    long double sum = 0.0L;
    for (std::uint64_t j = k; j >= 2; --j) sum += term(j);
    return sum;
  }
  long double prefix = 0.0L;
  for (std::uint64_t j = kPrefix; j >= 2; --j) prefix += term(j);
  const long double a = static_cast<long double>(kPrefix);
  const long double b = static_cast<long double>(k);
  // Antiderivative of t^{-s} ln t.
  const auto antideriv = [&](long double t) {
    if (s_in == 1.0) {
      const long double lt = std::log(t);
      return lt * lt / 2.0L;
    }
    const long double one_minus_s = 1.0L - s;
    return std::pow(t, one_minus_s) * (one_minus_s * std::log(t) - 1.0L) /
           (one_minus_s * one_minus_s);
  };
  // f^{(n)}(t) = t^{-s-n} (a_n ln t + c_n) with a_{n+1} = -(s+n) a_n,
  // c_{n+1} = a_n - (s+n) c_n.
  long double acoef[6];
  long double ccoef[6];
  acoef[0] = 1.0L;
  ccoef[0] = 0.0L;
  for (int n = 0; n < 5; ++n) {
    const long double sn = s + static_cast<long double>(n);
    acoef[n + 1] = -sn * acoef[n];
    ccoef[n + 1] = acoef[n] - sn * ccoef[n];
  }
  const auto fd = [&](int n, long double t) {
    return std::pow(t, -s - static_cast<long double>(n)) *
           (acoef[n] * std::log(t) + ccoef[n]);
  };
  return prefix + (antideriv(b) - antideriv(a)) + (fd(0, b) - fd(0, a)) / 2.0L +
         (fd(1, b) - fd(1, a)) / 12.0L - (fd(3, b) - fd(3, a)) / 720.0L +
         (fd(5, b) - fd(5, a)) / 30240.0L;
}

TEST(HarmonicRegression, ReferenceAgreesWithExactWhereSummable) {
  // Sanity-check the long-double reference itself against direct summation
  // at a k where both are cheap.
  for (double s : {0.6, 1.0, 1.2}) {
    const double exact = harmonic_exact(300000, s);
    EXPECT_NEAR(static_cast<double>(reference_harmonic(300000, s)), exact,
                1e-12 * exact)
        << "s=" << s;
    const double exact_log = harmonic_log_exact(300000, s);
    EXPECT_NEAR(static_cast<double>(reference_harmonic_log(300000, s)),
                exact_log, 1e-12 * exact_log)
        << "s=" << s;
  }
}

TEST(HarmonicRegression, BillionRankRelativeErrorBelow1em10) {
  for (double s : {0.6, 0.8, 1.0, 1.2}) {
    for (std::uint64_t k :
         {1000000ULL, 10000000ULL, 100000000ULL, 1000000000ULL}) {
      const double ref = static_cast<double>(reference_harmonic(k, s));
      EXPECT_NEAR(harmonic(k, s), ref, 1e-10 * ref) << "s=" << s << " k=" << k;
      const double ref_log =
          static_cast<double>(reference_harmonic_log(k, s));
      EXPECT_NEAR(harmonic_log(k, s), ref_log, 1e-10 * ref_log)
          << "s=" << s << " k=" << k;
    }
  }
}

TEST(HarmonicProperties, MonotoneInKDecreasingInS) {
  for (double s : {0.3, 0.9, 1.4}) {
    double prev = 0.0;
    for (std::uint64_t k = 1; k <= 64; ++k) {
      const double h = harmonic_exact(k, s);
      EXPECT_GT(h, prev);
      prev = h;
    }
  }
  // For fixed k >= 2, H_{k,s} decreases in s.
  EXPECT_GT(harmonic_exact(50, 0.5), harmonic_exact(50, 1.0));
  EXPECT_GT(harmonic_exact(50, 1.0), harmonic_exact(50, 1.5));
}

}  // namespace
}  // namespace ccnopt::numerics
