// detail::order_window, the windowed engine's per-window order: a stable
// bucket sort of every router's candidate arrival times into (time,
// active position) order, cut to the window's first entries.
#include "ccnopt/sim/engine_detail.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "ccnopt/common/random.hpp"

namespace ccnopt::sim::detail {
namespace {

using Times = std::vector<std::vector<double>>;

/// Runs order_window over per-router candidate vectors.
WindowOrder ordered(const Times& times, std::uint64_t window) {
  std::vector<std::span<const double>> candidates(times.begin(), times.end());
  WindowOrder out;
  order_window(candidates, window, out);
  return out;
}

/// The reference: every candidate, stable-sorted on (time, position) from
/// router-major input, cut to `window`.
WindowOrder reference(const Times& times, std::uint64_t window) {
  struct Entry {
    double time;
    std::uint32_t position;
  };
  std::vector<Entry> entries;
  for (std::size_t a = 0; a < times.size(); ++a) {
    for (const double time : times[a]) {
      entries.push_back({time, static_cast<std::uint32_t>(a)});
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& x, const Entry& y) {
                     if (x.time != y.time) return x.time < y.time;
                     return x.position < y.position;
                   });
  WindowOrder out;
  out.end.assign(times.size(), 0);
  for (std::size_t i = 0; i < window; ++i) {
    out.order.push_back(entries[i].position);
    ++out.end[entries[i].position];
  }
  return out;
}

TEST(WindowOrder, CrossRouterTiesComeOutInPositionOrder) {
  // The same double at positions 7, 3 and 0, among distinct times.
  Times times(8);
  times[7] = {0.5, 2.0};
  times[3] = {0.5, 1.0};
  times[0] = {0.25, 0.5};
  times[5] = {0.75};
  const WindowOrder all = ordered(times, 7);
  EXPECT_EQ(all.order, (std::vector<std::uint32_t>{0, 0, 3, 7, 5, 3, 7}));
  EXPECT_EQ(all.end, (std::vector<std::size_t>{2, 0, 0, 2, 0, 1, 0, 2}));
  // A cut inside the tie keeps the lower positions.
  const WindowOrder cut = ordered(times, 3);
  EXPECT_EQ(cut.order, (std::vector<std::uint32_t>{0, 0, 3}));
  EXPECT_EQ(cut.end, (std::vector<std::size_t>{2, 0, 0, 1, 0, 0, 0, 0}));
}

TEST(WindowOrder, RoutersWithoutCandidatesGetNone) {
  Times times(5);
  times[1] = {3.0, 4.0};
  times[4] = {1.0, 5.0};
  const WindowOrder out = ordered(times, 3);
  EXPECT_EQ(out.order, (std::vector<std::uint32_t>{4, 1, 1}));
  EXPECT_EQ(out.end, (std::vector<std::size_t>{0, 2, 0, 0, 1}));
}

TEST(WindowOrder, WindowOfOneTakesTheEarliest) {
  const Times times = {{2.0, 3.0}, {1.5}, {1.75, 9.0}};
  const WindowOrder out = ordered(times, 1);
  EXPECT_EQ(out.order, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(out.end, (std::vector<std::size_t>{0, 1, 0}));
}

TEST(WindowOrder, WindowOfAllTakesEveryCandidate) {
  const Times times = {{2.0, 3.0}, {1.5}, {1.75, 9.0}};
  const WindowOrder out = ordered(times, 5);
  EXPECT_EQ(out.order, (std::vector<std::uint32_t>{1, 2, 0, 0, 2}));
  EXPECT_EQ(out.end, (std::vector<std::size_t>{2, 1, 2}));
}

TEST(WindowOrder, AllCandidatesEqual) {
  // hi == lo: one bucket, and the order is router-major.
  const Times times = {{4.0, 4.0}, {}, {4.0}, {4.0, 4.0, 4.0}};
  const WindowOrder out = ordered(times, 4);
  EXPECT_EQ(out.order, (std::vector<std::uint32_t>{0, 0, 2, 3}));
  EXPECT_EQ(out.end, (std::vector<std::size_t>{2, 0, 1, 1}));
}

TEST(WindowOrder, SpanTooNarrowForAFiniteScale) {
  // n / (hi - lo) overflows for a subnormal span: one bucket instead.
  const double tiny = std::numeric_limits<double>::denorm_min();
  const Times times = {{tiny}, {0.0, tiny}};
  const WindowOrder out = ordered(times, 3);
  EXPECT_EQ(out.order, (std::vector<std::uint32_t>{1, 0, 1}));
  EXPECT_EQ(out.end, (std::vector<std::size_t>{1, 2}));
}

TEST(WindowOrder, NoCandidatesAndAnEmptyWindow) {
  const WindowOrder out = ordered(Times(3), 0);
  EXPECT_TRUE(out.order.empty());
  EXPECT_EQ(out.end, (std::vector<std::size_t>{0, 0, 0}));
}

TEST(WindowOrder, MatchesAStableSortAtAThousandRouters) {
  // Poisson streams as the engine draws them, each cut at a common
  // horizon, with some times rounded onto a coarse grid so that exact
  // cross-router ties occur.
  Rng rng(1000);
  Times times(1000);
  constexpr double kHorizon = 20.0;
  for (std::size_t a = 0; a < times.size(); ++a) {
    if (a % 97 == 0) continue;  // some routers have no candidates
    const bool on_grid = a % 5 == 0;
    for (double time = rng.uniform() * 2.0; time < kHorizon;
         time += rng.exponential(1.0)) {
      times[a].push_back(on_grid ? std::floor(time * 8.0) / 8.0 : time);
    }
  }
  std::size_t n = 0;
  for (const std::vector<double>& router : times) n += router.size();
  WindowOrder out;
  std::vector<std::span<const double>> candidates(times.begin(), times.end());
  for (const std::uint64_t window : {std::uint64_t{1}, std::uint64_t{15625},
                                     static_cast<std::uint64_t>(n)}) {
    // One WindowOrder reused across windows, as the engine reuses it.
    order_window(candidates, window, out);
    const WindowOrder expected = reference(times, window);
    EXPECT_EQ(out.order, expected.order) << "window " << window;
    EXPECT_EQ(out.end, expected.end) << "window " << window;
  }
}

}  // namespace
}  // namespace ccnopt::sim::detail
