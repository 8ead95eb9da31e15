#include "ccnopt/common/random.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <unordered_set>

namespace ccnopt {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.uniform_int(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / trials, 0.5, 0.02);  // mean = 1/rate
}

// Rng must reproduce the standard library's distributions over
// std::mt19937_64 bit for bit (the golden digests pin those streams). The
// standard engine appears only here, as the reference.

constexpr std::uint64_t kU64Max = UINT64_MAX;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }
std::uint64_t bits(std::uint64_t x) { return x; }
std::uint64_t bits(bool x) { return x ? 1 : 0; }

/// 10^6 draws of `draw` from Rng(seed) against `reference` from
/// std::mt19937_64(seed); stops at the first difference.
template <typename Draw, typename Reference>
void expect_same_stream(std::uint64_t seed, const char* what, Draw draw,
                        Reference reference) {
  Rng rng(seed);
  std::mt19937_64 engine(seed);
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t got = bits(draw(rng));
    const std::uint64_t want = bits(reference(engine));
    if (got != want) {
      ADD_FAILURE() << what << ", seed " << seed << ", draw " << i << ": "
                    << got << " != " << want;
      return;
    }
  }
}

TEST(Mt64, StandardCheckValue) {
  // [rand.predef]: the 10000th invocation of a default-constructed
  // mt19937_64 (seed 5489) produces 9981545732273789042.
  Mt64 engine(5489);
  std::uint64_t word = 0;
  for (int i = 0; i < 10000; ++i) word = engine();
  EXPECT_EQ(word, 9981545732273789042ULL);
  // A full-range uniform_int returns the raw word, so Rng carries it too.
  Rng rng(5489);
  for (int i = 1; i < 10000; ++i) (void)rng.uniform_int(0, kU64Max);
  EXPECT_EQ(rng.uniform_int(0, kU64Max), 9981545732273789042ULL);
}

class RngMatchesStandard : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngMatchesStandard, RawWords) {
  expect_same_stream(
      GetParam(), "word", [](Rng& rng) { return rng.uniform_int(0, kU64Max); },
      [](std::mt19937_64& engine) { return engine(); });
}

TEST_P(RngMatchesStandard, Uniform) {
  expect_same_stream(
      GetParam(), "uniform()", [](Rng& rng) { return rng.uniform(); },
      [](std::mt19937_64& engine) {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine);
      });
}

TEST_P(RngMatchesStandard, UniformRange) {
  expect_same_stream(
      GetParam(), "uniform(-2, 3)",
      [](Rng& rng) { return rng.uniform(-2.0, 3.0); },
      [](std::mt19937_64& engine) {
        return std::uniform_real_distribution<double>(-2.0, 3.0)(engine);
      });
}

TEST_P(RngMatchesStandard, Exponential) {
  for (const double rate : {0.37, 1.0, 1e3}) {
    expect_same_stream(
        GetParam(), "exponential",
        [rate](Rng& rng) { return rng.exponential(rate); },
        [rate](std::mt19937_64& engine) {
          return std::exponential_distribution<double>(rate)(engine);
        });
  }
}

TEST_P(RngMatchesStandard, Bernoulli) {
  expect_same_stream(
      GetParam(), "bernoulli(0.3)",
      [](Rng& rng) { return rng.bernoulli(0.3); },
      [](std::mt19937_64& engine) {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine) < 0.3;
      });
}

TEST_P(RngMatchesStandard, UniformInt) {
  expect_same_stream(
      GetParam(), "uniform_int(0, 999999)",
      [](Rng& rng) { return rng.uniform_int(0, 999999); },
      [](std::mt19937_64& engine) {
        return std::uniform_int_distribution<std::uint64_t>(0, 999999)(
            engine);
      });
}

TEST_P(RngMatchesStandard, InterleavedMethodsShareOneStream) {
  // The alias sampler's pattern (an integer, then a double) and the
  // workload's (a rank, then an inter-arrival gap) on one stream.
  expect_same_stream(
      GetParam(), "interleaved",
      [step = 0](Rng& rng) mutable {
        switch (step++ % 3) {
          case 0:
            return bits(rng.uniform_int(0, 1000));
          case 1:
            return bits(rng.uniform());
          default:
            return bits(rng.exponential(2.0));
        }
      },
      [step = 0](std::mt19937_64& engine) mutable {
        switch (step++ % 3) {
          case 0:
            return bits(
                std::uniform_int_distribution<std::uint64_t>(0, 1000)(engine));
          case 1:
            return bits(
                std::uniform_real_distribution<double>(0.0, 1.0)(engine));
          default:
            return bits(std::exponential_distribution<double>(2.0)(engine));
        }
      });
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngMatchesStandard,
                         ::testing::Values(std::uint64_t{0}, std::uint64_t{1},
                                           std::uint64_t{5489}, kU64Max,
                                           derive_seed(7, 3)));

/// An engine that returns one fixed word, to feed generate_canonical.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return UINT64_MAX; }
  result_type operator()() const { return word; }
  result_type word;
};

TEST(RngCanonical, MatchesGenerateCanonical) {
  const std::uint64_t top = kU64Max;
  for (const std::uint64_t word :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << 53,
        std::uint64_t{1} << 63, (std::uint64_t{1} << 63) + 1, top - 1024,
        top - 1023, top}) {
    FixedWord engine{word};
    EXPECT_EQ(bits(Rng::canonical(word)),
              bits(std::generate_canonical<double, 53>(engine)))
        << "word " << word;
  }
}

TEST(RngCanonical, ClampsBelowOne) {
  // Words from 2^64 - 1024 up round to 2^64, i.e. to 1.0, and clamp to the
  // largest double below 1; the word before them rounds down to it.
  const double below_one = std::nextafter(1.0, 0.0);
  EXPECT_EQ(Rng::canonical(kU64Max - 1023), below_one);
  EXPECT_EQ(Rng::canonical(kU64Max), below_one);
  EXPECT_EQ(Rng::canonical(kU64Max - 1024), below_one);
  EXPECT_EQ(Rng::canonical(0), 0.0);
}

TEST(SplitMix64, AdvancesStateAndIsDeterministic) {
  std::uint64_t a = 42, b = 42;
  const std::uint64_t first = splitmix64(a);
  EXPECT_EQ(first, splitmix64(b));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 42u);               // state moved on
  EXPECT_NE(splitmix64(a), first);  // stream, not a fixed point
}

TEST(DeriveSeed, IsTheIndexthStreamOutput) {
  const std::uint64_t master = 12345;
  std::uint64_t state = master;
  for (std::uint64_t index = 0; index < 64; ++index) {
    EXPECT_EQ(derive_seed(master, index), splitmix64(state))
        << "index " << index;
  }
}

TEST(DeriveSeed, NoCollisionsAcrossNearbyIndices) {
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t index = 0; index < 10000; ++index) {
    seen.insert(derive_seed(7, index));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(DeriveSeed, DifferentMastersGiveDifferentStreams) {
  int equal = 0;
  for (std::uint64_t index = 0; index < 100; ++index) {
    if (derive_seed(1, index) == derive_seed(2, index)) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(DeriveSeed, SeedsDivergentRngs) {
  Rng a(derive_seed(42, 0)), b(derive_seed(42, 1));
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngDeath, InvalidRanges) {
  Rng rng(1);
  EXPECT_DEATH((void)rng.uniform(1.0, 1.0), "precondition");
  EXPECT_DEATH((void)rng.uniform_int(5, 3), "precondition");
  EXPECT_DEATH((void)rng.bernoulli(1.5), "precondition");
  EXPECT_DEATH((void)rng.exponential(0.0), "precondition");
}

}  // namespace
}  // namespace ccnopt
