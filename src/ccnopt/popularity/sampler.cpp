#include "ccnopt/popularity/sampler.hpp"

#include <algorithm>
#include <cmath>

#include "ccnopt/common/assert.hpp"

namespace ccnopt::popularity {
namespace {

/// log1p(x)/x, continuous at 0 (-> 1). Keeps h_integral_inverse accurate
/// for tiny arguments (s near 1, huge N).
double helper1(double x) {
  return std::abs(x) > 1e-8 ? std::log1p(x) / x : 1.0 - x * (0.5 - x / 3.0);
}

/// expm1(x)/x, continuous at 0 (-> 1). Same role for h_integral.
double helper2(double x) {
  return std::abs(x) > 1e-8 ? std::expm1(x) / x : 1.0 + x * (0.5 + x / 6.0);
}

}  // namespace

AliasSampler::AliasSampler(const std::vector<double>& weights)
    : prob_(weights) {
  build();
}

AliasSampler::AliasSampler(std::uint64_t catalog_size, double exponent) {
  CCNOPT_EXPECTS(catalog_size >= 1);
  CCNOPT_EXPECTS(exponent > 0.0);
  // Zipf weight i^-s computed as exp(-s * log i): one transcendental per
  // rank instead of pow()'s two.
  prob_.resize(catalog_size);
  prob_[0] = 1.0;  // exp(-s * log 1)
  for (std::uint64_t i = 1; i < catalog_size; ++i) {
    prob_[i] = std::exp(-exponent * std::log(static_cast<double>(i + 1)));
  }
  build();
}

void AliasSampler::build() {
  CCNOPT_EXPECTS(!prob_.empty());
  const std::size_t n = prob_.size();
  double total = 0.0;
  for (double w : prob_) {
    CCNOPT_EXPECTS(w >= 0.0);
    total += w;
  }
  CCNOPT_EXPECTS(total > 0.0);

  // Scaled probabilities (mean 1), overwriting the weights in prob_: a
  // bucket's value is final once it leaves the small stack, and only the
  // large bucket that absorbs its remainder changes after that.
  alias_.assign(n, 0);
  for (double& p : prob_) p = p * static_cast<double>(n) / total;
  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (prob_[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    alias_[s] = l;
    prob_[l] = (prob_[l] + prob_[s]) - 1.0;
    (prob_[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers are numerically 1.
  for (std::uint32_t i : large) prob_[i] = 1.0;
  for (std::uint32_t i : small) prob_[i] = 1.0;
}

std::uint64_t AliasSampler::sample(Rng& rng) {
  const std::uint64_t bucket = rng.uniform_int(0, prob_.size() - 1);
  const bool accept = rng.uniform() < prob_[bucket];
  const std::uint64_t index = accept ? bucket : alias_[bucket];
  return index + 1;  // ranks are 1-based
}

void AliasSampler::sample_block(Rng& rng, std::uint64_t* out,
                                std::size_t count) {
  // Two passes per chunk: the first draws every (bucket, uniform) pair in
  // sample()'s RNG order and prefetches the bucket's table cells, the
  // second resolves accept-or-alias once those loads have landed. A table
  // past the LLC then costs overlapped misses instead of one serial miss
  // per draw; the output stream is unchanged.
  constexpr std::size_t kChunk = 64;
  std::uint64_t buckets[kChunk];
  double uniforms[kChunk];
  const std::uint64_t last = prob_.size() - 1;
  for (std::size_t base = 0; base < count; base += kChunk) {
    const std::size_t n = std::min(kChunk, count - base);
    for (std::size_t i = 0; i < n; ++i) {
      buckets[i] = rng.uniform_int(0, last);
      uniforms[i] = rng.uniform();
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(&prob_[buckets[i]]);
      __builtin_prefetch(&alias_[buckets[i]]);
#endif
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t bucket = buckets[i];
      const std::uint64_t index =
          uniforms[i] < prob_[bucket] ? bucket : alias_[bucket];
      out[base + i] = index + 1;  // ranks are 1-based
    }
  }
}

ZipfRejectionSampler::ZipfRejectionSampler(std::uint64_t catalog_size,
                                           double exponent)
    : n_(catalog_size), s_(exponent) {
  CCNOPT_EXPECTS(catalog_size >= 1);
  CCNOPT_EXPECTS(exponent > 0.0);
  h_integral_x1_ = h_integral(1.5) - 1.0;
  h_integral_n_ = h_integral(static_cast<double>(n_) + 0.5);
  // Every k with k - x <= threshold accepts without evaluating the exact
  // acceptance bound; tuned so the shortcut is taken for the popular head
  // ranks (where most draws land).
  rejection_threshold_ =
      2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

double ZipfRejectionSampler::h_integral(double x) const {
  const double log_x = std::log(x);
  return helper2((1.0 - s_) * log_x) * log_x;
}

double ZipfRejectionSampler::h(double x) const {
  return std::exp(-s_ * std::log(x));
}

double ZipfRejectionSampler::h_integral_inverse(double x) const {
  double t = x * (1.0 - s_);
  // Numerical round-off can push t below the domain edge -1 (which maps to
  // the hat's pole); clamp as the original algorithm does.
  if (t < -1.0) t = -1.0;
  return std::exp(helper1(t) * x);
}

std::uint64_t ZipfRejectionSampler::sample(Rng& rng) {
  // Hörmann–Derflinger rejection-inversion: invert the hat primitive at a
  // uniform height between H(N + 0.5) and H(1.5) - 1, round to the nearest
  // rank, and accept when the uniform falls under the pmf's share of the
  // hat. Expected iterations are < 2 uniformly in N and s.
  for (;;) {
    const double u =
        h_integral_n_ + rng.uniform() * (h_integral_x1_ - h_integral_n_);
    const double x = h_integral_inverse(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) {
      k = 1.0;
    } else if (k > static_cast<double>(n_)) {
      k = static_cast<double>(n_);
    }
    if (k - x <= rejection_threshold_ ||
        u >= h_integral(k + 0.5) - h(k)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

void ZipfRejectionSampler::sample_block(Rng& rng, std::uint64_t* out,
                                        std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = ZipfRejectionSampler::sample(rng);
  }
}

const char* to_string(SamplerKind kind) {
  switch (kind) {
    case SamplerKind::kAuto:
      return "auto";
    case SamplerKind::kAlias:
      return "alias";
    case SamplerKind::kRejectionInversion:
      return "rejection_inversion";
  }
  return "unknown";
}

std::unique_ptr<RankSampler> make_zipf_sampler(std::uint64_t catalog_size,
                                               double exponent,
                                               SamplerKind kind) {
  CCNOPT_EXPECTS(catalog_size >= 1);
  const bool reject =
      kind == SamplerKind::kRejectionInversion ||
      (kind == SamplerKind::kAuto && catalog_size >= kRejectionAutoThreshold);
  if (reject) {
    return std::make_unique<ZipfRejectionSampler>(catalog_size, exponent);
  }
  return std::make_unique<AliasSampler>(catalog_size, exponent);
}

}  // namespace ccnopt::popularity
