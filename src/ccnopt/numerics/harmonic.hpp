// Generalized harmonic numbers H_{k,s} = sum_{j=1..k} j^{-s}, the building
// block of the paper's Zipf machinery (Eq. 1) and its continuous
// approximation (Eq. 6).
//
// Two evaluation strategies are provided:
//   * harmonic_exact      — direct summation, O(k); ground truth for tests.
//   * harmonic_euler_maclaurin — Euler–Maclaurin expansion, O(1) after a
//     short prefix sum; accurate to ~1e-12 for k >= 10. Used when k is in
//     the paper's range (up to N = 10^12) where direct summation is
//     impossible.
#pragma once

#include <cstdint>
#include <vector>

namespace ccnopt::numerics {

/// H_{k,s} by direct summation (summed smallest-term-first for accuracy).
/// Requires k >= 0; H_{0,s} = 0.
double harmonic_exact(std::uint64_t k, double s);

/// H_{k,s} via the Euler–Maclaurin expansion around the integral
/// \int_1^k t^{-s} dt. Requires k >= 1. Valid for any real s (s = 1 uses the
/// log form of the integral). Absolute error < 1e-10 for k >= 16.
double harmonic_euler_maclaurin(std::uint64_t k, double s);

/// H_{k,s} choosing exact summation for small k and Euler–Maclaurin above
/// `exact_threshold`. This is the default used by the popularity module.
double harmonic(std::uint64_t k, double s,
                std::uint64_t exact_threshold = 4096);

/// Log-weighted harmonic number L_{k,s} = sum_{j=1..k} j^{-s} ln j — the
/// numerator of the Zipf expected log-rank E[ln rank] = L/H that the MLE
/// exponent fit matches to data. Same split as H_{k,s}.
double harmonic_log_exact(std::uint64_t k, double s);

/// L_{k,s} via Euler–Maclaurin on f(t) = t^{-s} ln t. Requires k >= 1.
double harmonic_log_euler_maclaurin(std::uint64_t k, double s);

/// L_{k,s} choosing exact summation below `exact_threshold`, Euler–Maclaurin
/// above — keeps the MLE fit O(1) per solver iteration at web-scale catalogs.
double harmonic_log(std::uint64_t k, double s,
                    std::uint64_t exact_threshold = 4096);

/// Memoized exact harmonic prefix sums for one fixed exponent s; O(1) lookup
/// after an O(max_k) build. Used by exact-Zipf CDF evaluation and samplers.
class HarmonicTable {
 public:
  /// Builds prefix sums H_{0,s} .. H_{max_k,s}. Requires max_k >= 1.
  HarmonicTable(std::uint64_t max_k, double s);

  double s() const { return s_; }
  std::uint64_t max_k() const { return prefix_.size() - 1; }

  /// H_{k,s}; requires k <= max_k().
  double at(std::uint64_t k) const;

  /// Smallest k with H_{k,s} >= target (inverse CDF helper); returns max_k()
  /// if the target exceeds H_{max_k,s}.
  std::uint64_t lower_bound(double target) const;

 private:
  double s_;
  // prefix_[k] = H_{k,s}; kept as a flat vector for cache-friendly lookup.
  std::vector<double> prefix_;
};

}  // namespace ccnopt::numerics
