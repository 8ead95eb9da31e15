// Summary statistics used by the simulator's metrics, and the least-squares
// fit behind the Zipf exponent estimator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ccnopt::numerics {

/// Streaming mean/variance accumulator (Welford). Numerically stable for
/// long simulation runs.
class RunningStats {
 public:
  void add(double x);

  std::uint64_t count() const { return count_; }
  /// Requires count() >= 1.
  double mean() const;
  /// Sample variance (n-1 denominator); requires count() >= 2.
  double variance() const;
  double stddev() const;
  /// Requires count() >= 1.
  double min() const;
  double max() const;
  double sum() const { return sum_; }

  /// Merges another accumulator into this one with Chan's parallel
  /// update: mean' = mean + delta * n2 / n, m2' = m2_a + m2_b +
  /// delta^2 * n1 * n2 / n. Exact in the sense that the result is a pure
  /// function of the two operand states — merging the same pair always
  /// produces the same bits — and an empty operand is an identity element
  /// (merging it changes nothing; merging INTO it adopts the other's
  /// state verbatim). Merge is NOT bit-associative in general; when a
  /// reduction must be independent of how partials are grouped, fix the
  /// grouping with merge_tree() below.
  void merge(const RunningStats& other);

  /// Half-width of a normal-approximation confidence interval on the mean,
  /// z * stddev / sqrt(n) (z = 1.96 ~ 95%); requires count() >= 2.
  double mean_ci_half_width(double z = 1.96) const;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Deterministic fixed-shape pairwise reduction of `parts` under
/// RunningStats::merge: the merge tree splits [0, n) at n/2 and recurses,
/// so the grouping — and therefore every bit of the combined moments —
/// depends only on parts.size(), never on how many threads or shards
/// produced the partials. Empty accumulators are identity elements, but
/// their POSITIONS still shape the tree, so callers that need
/// run-to-run bit-identity must present a fixed-size slot array (e.g.
/// one slot per router, empty slots included). Returns an empty
/// accumulator for empty input.
RunningStats merge_tree(std::span<const RunningStats> parts);

/// Arithmetic mean; requires non-empty input.
double mean(std::span<const double> xs);

/// Least-squares slope and intercept of y against x; requires >= 2 points
/// and non-constant x. Used to estimate Zipf exponents from log-log data.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};
LinearFit linear_fit(std::span<const double> x, std::span<const double> y);

}  // namespace ccnopt::numerics
