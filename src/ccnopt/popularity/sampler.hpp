// Random rank samplers for Zipf workloads (the simulator's Independent
// Reference Model request stream).
//
// Three implementations with different trade-offs:
//   * AliasSampler — Walker/Vose alias method: O(N) build, O(N) memory,
//     O(1) draw. The default for catalogs that fit comfortably in memory.
//   * ZipfRejectionSampler — Hörmann–Derflinger rejection-inversion:
//     O(1) build, O(1) memory, O(1) expected draw. The only viable option
//     for web-scale catalogs (N >= 10^6), where alias tables cost hundreds
//     of megabytes per exponent.
//   * InverseCdfSampler — binary search over the harmonic prefix table:
//     zero extra memory beyond the distribution, O(log N) draw.
//
// make_zipf_sampler() picks between the first two: alias for small
// catalogs (it is slightly cheaper per draw), rejection-inversion once the
// catalog crosses kRejectionAutoThreshold.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ccnopt/common/random.hpp"
#include "ccnopt/popularity/zipf.hpp"

namespace ccnopt::popularity {

/// Uniform-over-categories sampler interface: draws ranks in 1..N.
class RankSampler {
 public:
  virtual ~RankSampler() = default;
  virtual std::uint64_t sample(Rng& rng) = 0;
  virtual std::uint64_t catalog_size() const = 0;

  /// Draws `count` ranks into `out`, consuming `rng` exactly as `count`
  /// successive sample() calls would — the block is a pure amortization of
  /// the per-draw virtual dispatch, never a different stream. Hot-path
  /// samplers override this with a tight devirtualized loop.
  virtual void sample_block(Rng& rng, std::uint64_t* out, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) out[i] = sample(rng);
  }
};

/// Walker/Vose alias method over an explicit probability vector.
class AliasSampler final : public RankSampler {
 public:
  /// Marks the O(1)-per-draw guarantee; workloads on the simulator hot
  /// path static_assert on this so a sampler swap to an O(log N) draw
  /// cannot land silently.
  static constexpr bool kConstantTimeSample = true;

  /// Builds from any discrete distribution over ranks 1..N given as
  /// (unnormalized) weights; requires non-empty weights, all >= 0, sum > 0.
  explicit AliasSampler(const std::vector<double>& weights);

  /// Zipf(s, N): weights i^-s for ranks 1..N, written straight into the
  /// table (no harmonic prefix table, no weight buffer). Requires
  /// catalog_size >= 1 and exponent > 0.
  AliasSampler(std::uint64_t catalog_size, double exponent);

  std::uint64_t sample(Rng& rng) override;
  /// Block draws in prefetched chunks: all of a chunk's buckets are drawn
  /// and their table cells prefetched before any is resolved, so a table
  /// past the LLC overlaps its misses. Same stream as repeated sample().
  void sample_block(Rng& rng, std::uint64_t* out, std::size_t count) override;
  std::uint64_t catalog_size() const override { return prob_.size(); }

 private:
  /// Turns the weights held in prob_ into the alias table, in place.
  void build();

  std::vector<double> prob_;        // acceptance probability per bucket
  std::vector<std::uint32_t> alias_;  // fallback bucket
};

/// Inverse-CDF sampler backed by the distribution's harmonic table.
class InverseCdfSampler final : public RankSampler {
 public:
  explicit InverseCdfSampler(ZipfDistribution zipf) : zipf_(std::move(zipf)) {}

  std::uint64_t sample(Rng& rng) override {
    return zipf_.inverse_cdf(rng.uniform());
  }
  std::uint64_t catalog_size() const override { return zipf_.catalog_size(); }

 private:
  ZipfDistribution zipf_;
};

/// Exact Zipf(s, N) sampling by rejection-inversion (Hörmann & Derflinger,
/// "Rejection-inversion to generate variates from monotone discrete
/// distributions", ACM TOMACS 1996). The hat function t^{-s} is inverted in
/// closed form, so one draw costs a couple of transcendentals and accepts
/// with probability bounded away from zero uniformly in N and s — no table,
/// no normalizer, no O(N) anything. The drawn ranks follow the same exact
/// pmf i^{-s}/H_{N,s} as AliasSampler (only the random-stream consumption
/// differs, so the two are distribution- but not stream-equivalent).
class ZipfRejectionSampler final : public RankSampler {
 public:
  static constexpr bool kConstantTimeSample = true;

  /// Requires catalog_size >= 1 and exponent > 0 (s = 1 is fine; the
  /// s -> 1 limit is handled via log1p/expm1 forms).
  ZipfRejectionSampler(std::uint64_t catalog_size, double exponent);

  std::uint64_t sample(Rng& rng) override;
  /// Block draws devirtualized through the final class (the inner sample()
  /// calls inline); same stream as repeated sample().
  void sample_block(Rng& rng, std::uint64_t* out, std::size_t count) override;
  std::uint64_t catalog_size() const override { return n_; }
  double exponent() const { return s_; }

 private:
  /// Primitive of the hat h(x) = x^{-s}, shifted so the s -> 1 limit is
  /// smooth: H(x) = (x^{1-s} - 1)/(1 - s), computed as helper2 terms.
  double h_integral(double x) const;
  /// The hat itself, h(x) = x^{-s}.
  double h(double x) const;
  /// Inverse of h_integral.
  double h_integral_inverse(double x) const;

  std::uint64_t n_;
  double s_;
  double h_integral_x1_;       // H(1.5) - 1
  double h_integral_n_;        // H(N + 0.5)
  double rejection_threshold_; // shortcut: accept when k - x <= this
};

/// Sampler selection for make_zipf_sampler.
enum class SamplerKind {
  kAuto,                ///< alias below kRejectionAutoThreshold, else rejection
  kAlias,               ///< force the O(N)-memory alias table
  kRejectionInversion,  ///< force the O(1)-memory rejection-inversion sampler
};

const char* to_string(SamplerKind kind);

/// Catalog size at which kAuto switches from the alias table to
/// rejection-inversion: ~2 x 10^6 doubles of table is where build time and
/// memory start to dominate a short simulation.
inline constexpr std::uint64_t kRejectionAutoThreshold = 1ull << 20;

/// Builds an exact Zipf(s, N) rank sampler. kAuto keeps the alias table for
/// small catalogs (byte-compatible with the historical streams) and
/// switches to rejection-inversion at kRejectionAutoThreshold, where the
/// alias build would cost O(N) time and memory.
std::unique_ptr<RankSampler> make_zipf_sampler(
    std::uint64_t catalog_size, double exponent,
    SamplerKind kind = SamplerKind::kAuto);

}  // namespace ccnopt::popularity
