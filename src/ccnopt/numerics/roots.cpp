#include "ccnopt/numerics/roots.hpp"

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "ccnopt/obs/registry.hpp"

namespace ccnopt::numerics {
namespace {

bool opposite_signs(double a, double b) {
  return (a <= 0.0 && b >= 0.0) || (a >= 0.0 && b <= 0.0);
}

Status bad_bracket(double lo, double hi, double flo, double fhi) {
  return Status(ErrorCode::kInvalidArgument,
                "no sign change on bracket [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]: f(lo)=" + std::to_string(flo) +
                    ", f(hi)=" + std::to_string(fhi));
}

Expected<RootResult> brent_impl(const Fn& f, double lo, double hi,
                                const RootOptions& options) {
  if (!(lo < hi)) {
    return Status(ErrorCode::kInvalidArgument, "brent: lo must be < hi");
  }
  double a = lo, b = hi;
  double fa = f(a), fb = f(b);
  if (fa == 0.0) return RootResult{a, 0.0, 0};
  if (fb == 0.0) return RootResult{b, 0.0, 0};
  if (!opposite_signs(fa, fb)) return bad_bracket(lo, hi, fa, fb);

  // Keep b the best iterate (smallest |f|), c the previous b.
  if (std::abs(fa) < std::abs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a, fc = fa;
  bool used_bisection = true;
  double d = 0.0;  // step before last, for the interpolation guard

  for (int it = 0; it < options.max_iterations; ++it) {
    double s;
    if (fa != fc && fb != fc) {
      // Inverse quadratic interpolation.
      s = a * fb * fc / ((fa - fb) * (fa - fc)) +
          b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      // Secant step.
      s = b - fb * (b - a) / (fb - fa);
    }

    const double mid = 0.5 * (a + b);
    const bool s_outside = !((s > std::min(mid, b)) && (s < std::max(mid, b)));
    const bool step_too_small =
        used_bisection ? std::abs(s - b) >= 0.5 * std::abs(b - c)
                       : std::abs(s - b) >= 0.5 * std::abs(c - d);
    if (s_outside || step_too_small) {
      s = mid;
      used_bisection = true;
    } else {
      used_bisection = false;
    }

    const double fs = f(s);
    d = c;
    c = b;
    fc = fb;
    if (opposite_signs(fa, fs)) {
      b = s;
      fb = fs;
    } else {
      a = s;
      fa = fs;
    }
    if (std::abs(fa) < std::abs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
    if (fb == 0.0 || std::abs(b - a) < options.x_tolerance ||
        (options.f_tolerance > 0.0 && std::abs(fb) < options.f_tolerance)) {
      return RootResult{b, fb, it + 1};
    }
  }
  return RootResult{b, fb, options.max_iterations};
}

}  // namespace

// Usage counters land in the deterministic registry: call and iteration
// counts are pure functions of the solver inputs.
Expected<RootResult> brent(const Fn& f, double lo, double hi,
                           const RootOptions& options) {
  Expected<RootResult> result = brent_impl(f, lo, hi, options);
  obs::MetricsRegistry& registry = obs::metrics();
  registry.incr("numerics.roots.brent.calls");
  if (result) {
    registry.incr("numerics.roots.brent.iterations",
                  static_cast<std::uint64_t>(
                      result->iterations < 0 ? 0 : result->iterations));
  }
  return result;
}

}  // namespace ccnopt::numerics
