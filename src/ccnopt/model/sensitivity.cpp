#include "ccnopt/model/sensitivity.hpp"

#include <cmath>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/model/gains.hpp"
#include "ccnopt/obs/registry.hpp"
#include "ccnopt/obs/span.hpp"

namespace ccnopt::model {

const char* to_string(SweepParameter parameter) {
  switch (parameter) {
    case SweepParameter::kAlpha:
      return "alpha";
    case SweepParameter::kZipf:
      return "s";
    case SweepParameter::kRouters:
      return "n";
    case SweepParameter::kUnitCost:
      return "w";
    case SweepParameter::kGamma:
      return "gamma";
  }
  return "unknown";
}

SystemParams apply_sweep_parameter(const SystemParams& base,
                                   SweepParameter parameter, double value) {
  switch (parameter) {
    case SweepParameter::kAlpha:
      return with_alpha(base, value);
    case SweepParameter::kZipf:
      return with_zipf(base, value);
    case SweepParameter::kRouters:
      return with_routers(base, value);
    case SweepParameter::kUnitCost:
      return with_unit_cost(base, value);
    case SweepParameter::kGamma:
      return with_gamma(base, value);
  }
  CCNOPT_ASSERT(false);
  return base;
}

Expected<std::vector<SweepPoint>> sweep(const SystemParams& base,
                                        SweepParameter parameter,
                                        const std::vector<double>& values) {
  const obs::ScopedSpan span("sweep.run");
  obs::metrics().incr("model.sweep.runs");
  obs::metrics().incr("model.sweep.points", values.size());
  std::vector<SweepPoint> points;
  points.reserve(values.size());
  for (const double value : values) {
    const SystemParams params = apply_sweep_parameter(base, parameter, value);
    if (!params.validate().is_ok()) continue;  // skip e.g. s = 1
    const auto strategy = optimize(params);
    if (!strategy) return strategy.status();
    const PerformanceModel model(params);
    const GainReport gains = compute_gains(model, strategy->x_star);
    points.push_back(SweepPoint{value, strategy->ell_star,
                                gains.origin_load_reduction,
                                gains.routing_improvement});
  }
  if (points.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "sweep: no parameter value was valid");
  }
  return points;
}

std::vector<double> linspace(double lo, double hi, int count) {
  CCNOPT_EXPECTS(count >= 2);
  std::vector<double> values(static_cast<std::size_t>(count));
  const double step = (hi - lo) / (count - 1);
  for (int i = 0; i < count; ++i) {
    values[static_cast<std::size_t>(i)] = lo + step * i;
  }
  values.back() = hi;  // avoid accumulated rounding at the endpoint
  return values;
}

Expected<SensitiveRange> sensitive_range(const std::vector<SweepPoint>& curve,
                                         double lo_level, double hi_level) {
  CCNOPT_EXPECTS(lo_level < hi_level);
  if (curve.size() < 2) {
    return Status(ErrorCode::kInvalidArgument,
                  "sensitive_range: need at least 2 sweep points");
  }
  // Linear interpolation of the first upward crossing of each level.
  auto crossing = [&curve](double level) -> Expected<double> {
    for (std::size_t i = 1; i < curve.size(); ++i) {
      const SweepPoint& prev = curve[i - 1];
      const SweepPoint& next = curve[i];
      if (prev.ell_star <= level && next.ell_star >= level) {
        const double span = next.ell_star - prev.ell_star;
        if (span <= 0.0) return next.parameter;
        const double t = (level - prev.ell_star) / span;
        return prev.parameter + t * (next.parameter - prev.parameter);
      }
    }
    return Status(ErrorCode::kFailedPrecondition,
                  "sensitive_range: curve never crosses the level");
  };
  const auto low = crossing(lo_level);
  if (!low) return low.status();
  const auto high = crossing(hi_level);
  if (!high) return high.status();
  return SensitiveRange{*low, *high};
}

double max_sensitivity(const std::vector<SweepPoint>& curve) {
  double worst = 0.0;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    const double dp = curve[i].parameter - curve[i - 1].parameter;
    if (dp == 0.0) continue;
    worst = std::max(worst,
                     std::abs((curve[i].ell_star - curve[i - 1].ell_star) / dp));
  }
  return worst;
}

}  // namespace ccnopt::model
