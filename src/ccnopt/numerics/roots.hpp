// One-dimensional root finding over a bracket (Brent). Lemma 2's fixed-point
// equation a*l^{-s} = (1-l)^{-s} + b and the exact first-order condition of
// Eq. 4 are both solved through it.
#pragma once

#include <functional>

#include "ccnopt/common/error.hpp"

namespace ccnopt::numerics {

struct RootOptions {
  double x_tolerance = 1e-12;   // stop when the bracket is this narrow
  double f_tolerance = 0.0;     // stop when |f| falls below this (0 = off)
  int max_iterations = 200;
};

struct RootResult {
  double root = 0.0;
  double f_at_root = 0.0;
  int iterations = 0;
};

using Fn = std::function<double(double)>;

/// Brent's method (inverse quadratic interpolation + secant + bisection
/// fallback) on [lo, hi]. Requires lo < hi and f(lo)*f(hi) <= 0; returns
/// kInvalidArgument otherwise (callers may not have a guaranteed bracket).
/// Superlinear convergence on smooth f.
Expected<RootResult> brent(const Fn& f, double lo, double hi,
                           const RootOptions& options = {});

}  // namespace ccnopt::numerics
