// Parameter sweeps and stability analysis behind the paper's Figures 4-13
// and the "sensitive range" discussion of Section V-B.
#pragma once

#include <vector>

#include "ccnopt/common/error.hpp"
#include "ccnopt/model/optimizer.hpp"

namespace ccnopt::model {

/// One point of a sweep: the varied parameter value, the optimal strategy,
/// and both performance gains evaluated at it.
struct SweepPoint {
  double parameter = 0.0;
  double ell_star = 0.0;
  double origin_load_reduction = 0.0;   // G_O
  double routing_improvement = 0.0;     // G_R
};

/// Which knob a sweep varies (the with_* mutators of params.hpp).
enum class SweepParameter { kAlpha, kZipf, kRouters, kUnitCost, kGamma };

const char* to_string(SweepParameter parameter);

/// `base` with the swept parameter set to `value` (not validated).
SystemParams apply_sweep_parameter(const SystemParams& base,
                                   SweepParameter parameter, double value);

/// Evaluates optimize() + gains at each value of the named parameter,
/// holding everything else in `base` fixed. Values outside the valid domain
/// (e.g. s = 1) are skipped. The sweep fails on the first optimizer error,
/// or if no value is valid. Counts itself in the model.sweep.{runs,points}
/// metrics and times itself as the "sweep.run" span.
Expected<std::vector<SweepPoint>> sweep(const SystemParams& base,
                                        SweepParameter parameter,
                                        const std::vector<double>& values);

/// Uniformly spaced values in [lo, hi] inclusive; count >= 2.
std::vector<double> linspace(double lo, double hi, int count);

/// The paper's "sensitive range" of a monotone l*(alpha) curve: the
/// parameter interval over which ell_star rises from `lo_level` to
/// `hi_level` (defaults 0.1 -> 0.9). Returns kFailedPrecondition when the
/// curve never reaches the levels.
struct SensitiveRange {
  double low = 0.0;
  double high = 0.0;
  double width() const { return high - low; }
};
Expected<SensitiveRange> sensitive_range(const std::vector<SweepPoint>& curve,
                                         double lo_level = 0.1,
                                         double hi_level = 0.9);

/// Maximum |d ell*/d parameter| along a sweep (finite differences); the
/// stability measure discussed in Sections I and V.
double max_sensitivity(const std::vector<SweepPoint>& curve);

}  // namespace ccnopt::model
