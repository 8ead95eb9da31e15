#include "ccnopt/numerics/stats.hpp"

#include <algorithm>
#include <cmath>

#include "ccnopt/common/assert.hpp"

namespace ccnopt::numerics {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  CCNOPT_EXPECTS(count_ >= 1);
  return mean_;
}

double RunningStats::variance() const {
  CCNOPT_EXPECTS(count_ >= 2);
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  CCNOPT_EXPECTS(count_ >= 1);
  return min_;
}

double RunningStats::max() const {
  CCNOPT_EXPECTS(count_ >= 1);
  return max_;
}

double RunningStats::mean_ci_half_width(double z) const {
  CCNOPT_EXPECTS(z > 0.0);
  return z * stddev() / std::sqrt(static_cast<double>(count_));
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

RunningStats merge_tree(std::span<const RunningStats> parts) {
  if (parts.empty()) return RunningStats{};
  if (parts.size() == 1) return parts[0];
  const std::size_t half = parts.size() / 2;
  RunningStats left = merge_tree(parts.first(half));
  left.merge(merge_tree(parts.subspan(half)));
  return left;
}

double mean(std::span<const double> xs) {
  CCNOPT_EXPECTS(!xs.empty());
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

LinearFit linear_fit(std::span<const double> x, std::span<const double> y) {
  CCNOPT_EXPECTS(x.size() == y.size());
  CCNOPT_EXPECTS(x.size() >= 2);
  const double mx = mean(x);
  const double my = mean(y);
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
    syy += (y[i] - my) * (y[i] - my);
  }
  CCNOPT_EXPECTS(sxx > 0.0);
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = (syy > 0.0) ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

}  // namespace ccnopt::numerics
