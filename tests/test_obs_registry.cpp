#include "ccnopt/obs/registry.hpp"

#include <cmath>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ccnopt/common/random.hpp"
#include "ccnopt/obs/export.hpp"

namespace ccnopt::obs {
namespace {

std::string serialize(const MetricsRegistry& registry) {
  std::ostringstream out;
  write_registry_json(out, registry.snapshot(), 0);
  return out.str();
}

TEST(ObsRegistry, CountersAccumulateAndSnapshot) {
  MetricsRegistry registry;
  registry.incr("a");
  registry.incr("a", 4);
  registry.incr("b", 10);
  const RegistrySnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.at("a"), 5u);
  EXPECT_EQ(snap.counters.at("b"), 10u);
}

TEST(ObsRegistry, GaugeLastWriteWins) {
  MetricsRegistry registry;
  registry.set_gauge("g", 1.5);
  registry.set_gauge("g", 2.5);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauges.at("g"), 2.5);
}

TEST(ObsRegistry, HistogramBucketBoundariesAreLessOrEqual) {
  Histogram hist({1.0, 2.0, 5.0});
  hist.observe(0.5);  // <= 1
  hist.observe(1.0);  // <= 1 (boundary lands in its bucket)
  hist.observe(1.001);  // <= 2
  hist.observe(5.0);  // <= 5
  hist.observe(7.0);  // overflow
  ASSERT_EQ(hist.counts().size(), 4u);
  EXPECT_EQ(hist.counts()[0], 2u);
  EXPECT_EQ(hist.counts()[1], 1u);
  EXPECT_EQ(hist.counts()[2], 1u);
  EXPECT_EQ(hist.counts()[3], 1u);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.min(), 0.5);
  EXPECT_DOUBLE_EQ(hist.max(), 7.0);
}

TEST(ObsRegistry, HistogramSumIsExactFixedPoint) {
  // 0.1 is not exactly representable; fixed-point micro-unit accumulation
  // still makes any grouping of the observations sum identically.
  Histogram a({10.0});
  Histogram b({10.0});
  Histogram all({10.0});
  for (int i = 0; i < 1000; ++i) {
    ((i % 2 == 0) ? a : b).observe(0.1);
    all.observe(0.1);
  }
  Histogram merged({10.0});
  merged.merge(b);
  merged.merge(a);
  EXPECT_EQ(merged.sum(), all.sum());
  EXPECT_DOUBLE_EQ(merged.sum(), 100.0);
  EXPECT_EQ(merged.count(), 1000u);
}

/// The sum one observation of `value` must contribute: llround of its
/// micro-unit scaling, back in units.
double llround_sum(double value) {
  return static_cast<double>(std::llround(value * 1e6)) / 1e6;
}

/// `micro_units / 1e6` or a neighbour of it whose micro-unit scaling is
/// exactly `micro_units`.
double exact_preimage(double micro_units) {
  const double guess = micro_units / 1e6;
  for (const double candidate : {guess, std::nextafter(guess, INFINITY),
                                 std::nextafter(guess, -INFINITY)}) {
    if (candidate * 1e6 == micro_units) return candidate;
  }
  ADD_FAILURE() << "no double scales to exactly " << micro_units;
  return guess;
}

TEST(ObsRegistry, HistogramSumRoundsTiesAwayFromZeroLikeLlround) {
  for (const double tie : {0.5, -0.5, 1.5, -1.5, 2.5, -2.5}) {
    const double value = exact_preimage(tie);
    Histogram hist({1.0});
    hist.observe(value);
    EXPECT_EQ(hist.sum(), llround_sum(value)) << tie << " micro-units";
    EXPECT_EQ(hist.sum(), std::copysign(std::ceil(std::abs(tie)), tie) / 1e6)
        << tie << " micro-units";
  }
}

TEST(ObsRegistry, HistogramSumRoundsJustBelowHalfDown) {
  // 0.49999999999999994 (the double before 0.5) is where floor(x + 0.5)
  // rounds wrongly up. No double times 1e6 lands on it, so the nearest
  // scalings below half a micro-unit stand in; the value itself is
  // observed too.
  const double half = exact_preimage(0.5);
  double below = half;
  for (int i = 0; i < 3; ++i) {
    below = std::nextafter(below, 0.0);
    ASSERT_LT(below * 1e6, 0.5);
    Histogram hist({1.0});
    hist.observe(below);
    EXPECT_EQ(hist.sum(), 0.0);
    EXPECT_EQ(hist.sum(), llround_sum(below));
    Histogram negative({1.0});
    negative.observe(-below);
    EXPECT_EQ(negative.sum(), llround_sum(-below));
  }
  Histogram hist({1.0});
  hist.observe(0.49999999999999994);
  EXPECT_EQ(hist.sum(), llround_sum(0.49999999999999994));
}

TEST(ObsRegistry, HistogramSumMatchesLlroundOnRandomLatencies) {
  Rng rng(2025);
  Histogram hist({1e-3, 1e-2, 1e-1});
  std::int64_t expected = 0;
  for (int i = 0; i < 100000; ++i) {
    // Latencies in seconds, mean 4 ms; every 11th is negated so negative
    // scalings round too.
    const double value = rng.exponential(250.0);
    const double signed_value = (i % 11 == 0) ? -value : value;
    hist.observe(signed_value);
    expected += std::llround(signed_value * 1e6);
  }
  EXPECT_EQ(hist.sum(), static_cast<double>(expected) / 1e6);
}

TEST(ObsRegistryDeathTest, HistogramRejectsScaledMagnitudeOf2To62OrMore) {
  // |value * 1e6| must stay below 2^62 ~ 4.61e18, where the truncation to
  // int64 is exact (llround returned garbage past the int64 range).
  Histogram ok({1.0});
  ok.observe(4e12);
  EXPECT_EQ(ok.sum(), 4e12);
  Histogram hist({1.0});
  EXPECT_DEATH(hist.observe(5e12), "precondition");
  EXPECT_DEATH(hist.observe(-5e12), "precondition");
  EXPECT_DEATH(hist.observe(1e300), "precondition");
}

TEST(ObsRegistry, HistogramMergeAdoptsBoundsWhenDefault) {
  Histogram hist({1.0, 2.0});
  hist.observe(1.5);
  Histogram target;
  target.merge(hist);
  EXPECT_EQ(target.bounds(), hist.bounds());
  EXPECT_EQ(target.count(), 1u);
}

TEST(ObsRegistry, HistogramResetKeepsBounds) {
  Histogram hist({1.0});
  hist.observe(0.5);
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
  ASSERT_EQ(hist.bounds().size(), 1u);
  EXPECT_EQ(hist.counts()[0], 0u);
}

TEST(ObsRegistry, DefineHistogramIsIdempotent) {
  MetricsRegistry registry;
  registry.define_histogram("h", {1.0, 2.0});
  registry.define_histogram("h", {1.0, 2.0});  // same bounds: fine
  registry.observe("h", 1.5);
  EXPECT_EQ(registry.snapshot().histograms.at("h").count(), 1u);
}

TEST(ObsRegistryDeathTest, ObserveUndefinedHistogramAborts) {
  MetricsRegistry registry;
  EXPECT_DEATH(registry.observe("missing", 1.0), "precondition");
}

TEST(ObsRegistryDeathTest, RedefineWithDifferentBoundsAborts) {
  MetricsRegistry registry;
  registry.define_histogram("h", {1.0});
  EXPECT_DEATH(registry.define_histogram("h", {2.0}), "precondition");
}

TEST(ObsRegistry, DefinedButUnobservedHistogramAppearsZeroed) {
  MetricsRegistry registry;
  registry.define_histogram("h", {1.0, 2.0});
  const RegistrySnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.count("h"), 1u);
  EXPECT_EQ(snap.histograms.at("h").count(), 0u);
  EXPECT_EQ(snap.histograms.at("h").bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(ObsRegistry, MergeAcrossThreadsIsDeterministic) {
  // The same logical observations recorded from 1 thread and from 8
  // threads must serialize to the same bytes.
  const auto record = [](MetricsRegistry& registry, int begin, int end) {
    registry.define_histogram("latency", {1.0, 10.0, 100.0});
    for (int i = begin; i < end; ++i) {
      registry.incr("requests");
      registry.incr("bytes", static_cast<std::uint64_t>(i));
      registry.observe("latency", 0.1 * i);
    }
  };

  MetricsRegistry serial;
  record(serial, 0, 800);

  MetricsRegistry sharded;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back(
        [&sharded, t, &record] { record(sharded, t * 100, (t + 1) * 100); });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(serialize(serial), serialize(sharded));
}

TEST(ObsRegistry, ResetClearsEverything) {
  MetricsRegistry registry;
  registry.incr("c");
  registry.set_gauge("g", 1.0);
  registry.define_histogram("h", {1.0});
  registry.observe("h", 0.5);
  registry.reset();
  const RegistrySnapshot snap = registry.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
  // Definitions are gone too: the name can be redefined with new bounds.
  registry.define_histogram("h", {2.0});
  registry.observe("h", 1.0);
  EXPECT_EQ(registry.snapshot().histograms.at("h").count(), 1u);
}

TEST(ObsRegistry, GlobalInstancesAreDistinct) {
  EXPECT_NE(&metrics(), &perf());
}

TEST(ObsRegistryHandles, HandleAndStringCountersAreIndistinguishable) {
  MetricsRegistry by_string;
  by_string.incr("a");
  by_string.incr("a", 4);
  by_string.incr("b", 10);

  MetricsRegistry by_handle;
  const auto a = by_handle.counter_handle("a");
  const auto b = by_handle.counter_handle("b");
  by_handle.incr(a);
  by_handle.incr(a, 4);
  by_handle.incr(b, 10);

  EXPECT_EQ(serialize(by_string), serialize(by_handle));
}

TEST(ObsRegistryHandles, HandleCreationIsIdempotentAndLazy) {
  MetricsRegistry registry;
  const auto first = registry.counter_handle("c");
  registry.counter_handle("c");  // same name: same dense id, no new slot
  // A handle alone records nothing; the counter appears once incremented.
  EXPECT_TRUE(registry.snapshot().counters.empty());
  registry.incr(first, 2);
  registry.incr(registry.counter_handle("c"), 3);
  EXPECT_EQ(registry.snapshot().counters.at("c"), 5u);
}

TEST(ObsRegistryHandles, ZeroDeltaTouchMatchesStringBehaviour) {
  // String incr with delta 0 creates the key with value 0; the handle path
  // must replicate that so A/B metric exports stay byte-identical.
  MetricsRegistry by_string;
  by_string.incr("touched", 0);
  MetricsRegistry by_handle;
  by_handle.incr(by_handle.counter_handle("touched"), 0);
  EXPECT_EQ(by_string.snapshot().counters.at("touched"), 0u);
  EXPECT_EQ(serialize(by_string), serialize(by_handle));
}

TEST(ObsRegistryHandles, HandleHistogramMatchesStringHistogram) {
  MetricsRegistry by_string;
  by_string.define_histogram("h", {1.0, 10.0});
  by_string.observe("h", 0.5);
  by_string.observe("h", 4.0);
  by_string.observe("h", 100.0);

  MetricsRegistry by_handle;
  const auto h = by_handle.histogram_handle("h", {1.0, 10.0});
  by_handle.observe(h, 0.5);
  by_handle.observe(h, 4.0);
  by_handle.observe(h, 100.0);

  EXPECT_EQ(serialize(by_string), serialize(by_handle));
}

TEST(ObsRegistryHandles, MergeThroughHandleMatchesStringMerge) {
  Histogram local({1.0, 10.0});
  local.observe(0.3);
  local.observe(30.0);

  MetricsRegistry by_string;
  by_string.merge_histogram("h", local);
  MetricsRegistry by_handle;
  by_handle.merge_histogram(by_handle.histogram_handle("h", {1.0, 10.0}),
                            local);
  EXPECT_EQ(serialize(by_string), serialize(by_handle));
}

TEST(ObsRegistryHandles, HandlesSurviveReset) {
  MetricsRegistry registry;
  const auto c = registry.counter_handle("c");
  const auto h = registry.histogram_handle("h", {1.0});
  registry.incr(c, 7);
  registry.observe(h, 0.5);
  registry.reset();
  // Reset hides everything recorded...
  EXPECT_TRUE(registry.snapshot().counters.empty());
  EXPECT_TRUE(registry.snapshot().histograms.empty());
  // ...but the interned ids stay valid and start from zero.
  registry.incr(c, 3);
  registry.observe(h, 0.25);
  const RegistrySnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 3u);
  EXPECT_EQ(snap.histograms.at("h").count(), 1u);
}

TEST(ObsRegistryHandles, CrossThreadHandleMergeIsDeterministic) {
  // Same logical observations through handles from 1 thread and from 8
  // threads must serialize to the same bytes (shard merge exactness).
  const auto record = [](MetricsRegistry& registry, int begin, int end) {
    const auto requests = registry.counter_handle("requests");
    const auto bytes = registry.counter_handle("bytes");
    const auto latency = registry.histogram_handle("latency",
                                                   {1.0, 10.0, 100.0});
    for (int i = begin; i < end; ++i) {
      registry.incr(requests);
      registry.incr(bytes, static_cast<std::uint64_t>(i));
      registry.observe(latency, 0.1 * i);
    }
  };

  MetricsRegistry serial;
  record(serial, 0, 800);

  MetricsRegistry sharded;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back(
        [&sharded, t, &record] { record(sharded, t * 100, (t + 1) * 100); });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(serialize(serial), serialize(sharded));
}

TEST(ObsRegistryHandlesDeathTest, MismatchedHistogramBoundsAbort) {
  MetricsRegistry registry;
  registry.histogram_handle("h", {1.0});
  EXPECT_DEATH(registry.histogram_handle("h", {2.0}), "precondition");
}

}  // namespace
}  // namespace ccnopt::obs
