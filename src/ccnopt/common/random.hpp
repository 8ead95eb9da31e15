// Deterministic RNG wrapper. All stochastic components (workload samplers,
// topology generators, randomized cache policies) take an Rng& so experiments
// are reproducible from a single seed.
//
// Rng's streams are bit-identical to the standard library's distributions
// over the standard 64-bit Mersenne Twister (libstdc++'s mappings, which
// the golden digests pin); DESIGN.md §9 gives the exactness argument per
// method.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>

#include "ccnopt/common/assert.hpp"

namespace ccnopt {

/// MT19937-64 (Matsumoto & Nishimura 2000) with the standard's parameters
/// and seeding, so its words equal the standard engine's for every seed. The
/// twist is branch-free (`(0 - (y & 1)) & kA` in place of a conditional)
/// and split into plain loops the compiler vectorizes; tempering happens
/// on read, as in the standard engine, so the state stays 312 words.
/// Satisfies UniformRandomBitGenerator.
class Mt64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt64(std::uint64_t seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateSize; ++i) {
      const std::uint64_t prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    if (next_ == kStateSize) twist();
    std::uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kStateSize = 312;

  /// Regenerates all 312 state words (out of line: once per 312 draws).
  void twist();

  std::uint64_t state_[kStateSize];
  std::size_t next_ = kStateSize;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// The double std::generate_canonical<double, 53> makes of one 64-bit
  /// word: round-to-nearest(word) * 2^-64, clamped below 1. The two 32-bit
  /// halves convert exactly as signed integers (no branchy unsigned
  /// conversion) and their sum is rounded once, which is that same
  /// correctly rounded conversion.
  static double canonical(std::uint64_t word) {
    const double high =
        static_cast<double>(static_cast<std::int64_t>(word >> 32));
    const double low =
        static_cast<double>(static_cast<std::int64_t>(word & 0xFFFFFFFFULL));
    const double u = (high * 0x1p32 + low) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;  // nextafter(1.0, 0.0)
  }

  /// Uniform double in [0, 1).
  double uniform() { return canonical(engine_()); }

  /// Uniform double in [lo, hi); requires lo < hi.
  double uniform(double lo, double hi) {
    CCNOPT_EXPECTS(lo < hi);
    return canonical(engine_()) * (hi - lo) + lo;
  }

  /// Uniform integer in [lo, hi]; requires lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    CCNOPT_EXPECTS(lo <= hi);
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Bernoulli draw with success probability p in [0, 1].
  bool bernoulli(double p) {
    CCNOPT_EXPECTS(p >= 0.0 && p <= 1.0);
    return uniform() < p;
  }

  /// Exponential draw with the given rate (> 0).
  double exponential(double rate) {
    CCNOPT_EXPECTS(rate > 0.0);
    return -std::log(1.0 - canonical(engine_())) / rate;
  }

 private:
  Mt64 engine_;
};

/// One step of the splitmix64 generator: advances `state` and returns the
/// mixed output. Weyl-sequence state with a two-round finalizer; every seed
/// gives a full-period 2^64 stream.
std::uint64_t splitmix64(std::uint64_t& state);

/// The `index`-th output of the splitmix64 stream seeded with `master` —
/// O(1) in `index`. This is the canonical way to derive independent
/// sub-stream seeds (per-router clocks, per-replication runs) from one
/// master seed: derived seeds are deterministic, well-mixed, and do not
/// collide across nearby indices the way xor-multiply folklore mixes can.
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t index);

}  // namespace ccnopt
