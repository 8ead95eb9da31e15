#include "ccnopt/numerics/harmonic.hpp"

#include <algorithm>
#include <cmath>

#include "ccnopt/common/assert.hpp"

namespace ccnopt::numerics {

double harmonic_exact(std::uint64_t k, double s) {
  // Sum smallest terms first so tiny tail terms are not absorbed into a
  // large running sum.
  double sum = 0.0;
  for (std::uint64_t j = k; j >= 1; --j) {
    sum += std::pow(static_cast<double>(j), -s);
  }
  return sum;
}

double harmonic_euler_maclaurin(std::uint64_t k, double s) {
  CCNOPT_EXPECTS(k >= 1);
  // For small k the expansion's remainder is not negligible; sum directly.
  constexpr std::uint64_t kPrefix = 16;
  if (k <= kPrefix) return harmonic_exact(k, s);

  // H_{k,s} = H_{m,s} + sum_{j=m+1..k} j^{-s}, with the tail evaluated by
  // Euler-Maclaurin between m and k:
  //   sum_{j=m+1..k} f(j) = \int_m^k f + (f(k) - f(m))/2
  //                         + B2/2! (f'(k) - f'(m)) + B4/4! (f'''(k) - f'''(m)) + ...
  // with f(t) = t^{-s}. Using the closed-form derivatives of t^{-s}.
  const double m = static_cast<double>(kPrefix);
  const double x = static_cast<double>(k);
  double result = harmonic_exact(kPrefix, s);

  // Integral term.
  if (std::abs(s - 1.0) < 1e-12) {
    result += std::log(x / m);
  } else {
    result += (std::pow(x, 1.0 - s) - std::pow(m, 1.0 - s)) / (1.0 - s);
  }
  // Boundary term (f(k) - f(m))/2, counting k but not m.
  result += 0.5 * (std::pow(x, -s) - std::pow(m, -s));

  // Bernoulli corrections: B2 = 1/6, B4 = -1/30, B6 = 1/42.
  // f'(t)    = -s t^{-s-1}
  // f'''(t)  = -s(s+1)(s+2) t^{-s-3}
  // f^(5)(t) = -s(s+1)(s+2)(s+3)(s+4) t^{-s-5}
  const double b2 = 1.0 / 6.0, b4 = -1.0 / 30.0, b6 = 1.0 / 42.0;
  auto fd1 = [&](double t) { return -s * std::pow(t, -s - 1.0); };
  auto fd3 = [&](double t) {
    return -s * (s + 1.0) * (s + 2.0) * std::pow(t, -s - 3.0);
  };
  auto fd5 = [&](double t) {
    return -s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) *
           std::pow(t, -s - 5.0);
  };
  result += b2 / 2.0 * (fd1(x) - fd1(m));          // B2/2!
  result += b4 / 24.0 * (fd3(x) - fd3(m));         // B4/4!
  result += b6 / 720.0 * (fd5(x) - fd5(m));        // B6/6!
  return result;
}

double harmonic(std::uint64_t k, double s, std::uint64_t exact_threshold) {
  if (k == 0) return 0.0;
  if (k <= exact_threshold) return harmonic_exact(k, s);
  return harmonic_euler_maclaurin(k, s);
}

double harmonic_log_exact(std::uint64_t k, double s) {
  // Smallest terms first, as in harmonic_exact (ln 1 = 0, so j = 1
  // contributes nothing).
  double sum = 0.0;
  for (std::uint64_t j = k; j >= 2; --j) {
    const double t = static_cast<double>(j);
    sum += std::pow(t, -s) * std::log(t);
  }
  return sum;
}

double harmonic_log_euler_maclaurin(std::uint64_t k, double s) {
  CCNOPT_EXPECTS(k >= 1);
  constexpr std::uint64_t kPrefix = 16;
  if (k <= kPrefix) return harmonic_log_exact(k, s);

  // Euler-Maclaurin on f(t) = t^{-s} ln t between m = kPrefix and k, same
  // scheme as harmonic_euler_maclaurin. Antiderivative:
  //   \int t^{-s} ln t dt = t^{1-s}((1-s) ln t - 1)/(1-s)^2   (s != 1)
  //                       = (ln t)^2 / 2                       (s = 1)
  // Derivatives follow the closed recurrence
  //   f^(n)(t) = t^{-s-n} (a_n ln t + c_n),
  //   a_{n+1} = -(s+n) a_n,  c_{n+1} = a_n - (s+n) c_n,  a_0 = 1, c_0 = 0.
  const double m = static_cast<double>(kPrefix);
  const double x = static_cast<double>(k);
  double result = harmonic_log_exact(kPrefix, s);

  if (std::abs(s - 1.0) < 1e-12) {
    const double lx = std::log(x), lm = std::log(m);
    result += 0.5 * (lx * lx - lm * lm);
  } else {
    const double inv = 1.0 / (1.0 - s);
    const auto antiderivative = [&](double t) {
      return std::pow(t, 1.0 - s) * ((1.0 - s) * std::log(t) - 1.0) * inv *
             inv;
    };
    result += antiderivative(x) - antiderivative(m);
  }
  // Boundary term (f(k) - f(m))/2, counting k but not m.
  const auto f0 = [&](double t) { return std::pow(t, -s) * std::log(t); };
  result += 0.5 * (f0(x) - f0(m));

  // a_n, c_n up to n = 5 for the B2/B4/B6 corrections.
  double a[6], c[6];
  a[0] = 1.0;
  c[0] = 0.0;
  for (int n = 0; n < 5; ++n) {
    const double sn = s + static_cast<double>(n);
    a[n + 1] = -sn * a[n];
    c[n + 1] = a[n] - sn * c[n];
  }
  const auto fd = [&](int n, double t) {
    return std::pow(t, -s - static_cast<double>(n)) *
           (a[n] * std::log(t) + c[n]);
  };
  const double b2 = 1.0 / 6.0, b4 = -1.0 / 30.0, b6 = 1.0 / 42.0;
  result += b2 / 2.0 * (fd(1, x) - fd(1, m));    // B2/2!
  result += b4 / 24.0 * (fd(3, x) - fd(3, m));   // B4/4!
  result += b6 / 720.0 * (fd(5, x) - fd(5, m));  // B6/6!
  return result;
}

double harmonic_log(std::uint64_t k, double s, std::uint64_t exact_threshold) {
  if (k == 0) return 0.0;
  if (k <= exact_threshold) return harmonic_log_exact(k, s);
  return harmonic_log_euler_maclaurin(k, s);
}

HarmonicTable::HarmonicTable(std::uint64_t max_k, double s) : s_(s) {
  CCNOPT_EXPECTS(max_k >= 1);
  prefix_.resize(max_k + 1);
  prefix_[0] = 0.0;
  for (std::uint64_t k = 1; k <= max_k; ++k) {
    prefix_[k] = prefix_[k - 1] + std::pow(static_cast<double>(k), -s);
  }
}

double HarmonicTable::at(std::uint64_t k) const {
  CCNOPT_EXPECTS(k < prefix_.size());
  return prefix_[k];
}

std::uint64_t HarmonicTable::lower_bound(double target) const {
  const auto it = std::lower_bound(prefix_.begin() + 1, prefix_.end(), target);
  if (it == prefix_.end()) return max_k();
  return static_cast<std::uint64_t>(it - prefix_.begin());
}

}  // namespace ccnopt::numerics
