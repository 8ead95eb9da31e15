#include "ccnopt/strategy/coordinator.hpp"

#include <gtest/gtest.h>

namespace ccnopt::sim {
namespace {

TEST(Coordinator, RoundRobinAssignment) {
  const strategy::Coordinator coordinator({10, 20, 30});
  const auto assignment = coordinator.assign(/*first_rank=*/5,
                                             /*per_router_x=*/2);
  // Ranks 5..10 distributed 5->10, 6->20, 7->30, 8->10, 9->20, 10->30.
  EXPECT_EQ(assignment.owner.at(5), 10u);
  EXPECT_EQ(assignment.owner.at(6), 20u);
  EXPECT_EQ(assignment.owner.at(7), 30u);
  EXPECT_EQ(assignment.owner.at(8), 10u);
  EXPECT_EQ(assignment.per_router[0], (std::vector<cache::ContentId>{5, 8}));
  EXPECT_EQ(assignment.per_router[2], (std::vector<cache::ContentId>{7, 10}));
}

TEST(Coordinator, EveryRouterGetsExactlyX) {
  const strategy::Coordinator coordinator({0, 1, 2, 3, 4});
  const auto assignment = coordinator.assign(101, 7);
  for (const auto& contents : assignment.per_router) {
    EXPECT_EQ(contents.size(), 7u);
  }
  EXPECT_EQ(assignment.owner.size(), 35u);
}

TEST(Coordinator, ContiguousRankRangeCovered) {
  const strategy::Coordinator coordinator({2, 7});
  const auto assignment = coordinator.assign(50, 3);
  for (cache::ContentId rank = 50; rank < 56; ++rank) {
    EXPECT_TRUE(assignment.owner.count(rank) > 0) << "rank=" << rank;
  }
  EXPECT_EQ(assignment.owner.count(49), 0u);
  EXPECT_EQ(assignment.owner.count(56), 0u);
}

TEST(Coordinator, MessageCountIsNTimesX) {
  // Eq. 3's communication term: n * x messages per epoch.
  const strategy::Coordinator coordinator({1, 2, 3, 4});
  EXPECT_EQ(coordinator.assign(1, 5).messages, 20u);
  EXPECT_EQ(coordinator.assign(1, 0).messages, 0u);
}

TEST(Coordinator, ZeroXProducesEmptyAssignment) {
  const strategy::Coordinator coordinator({1, 2});
  const auto assignment = coordinator.assign(1, 0);
  EXPECT_TRUE(assignment.owner.empty());
  EXPECT_EQ(assignment.per_router.size(), 2u);
  EXPECT_TRUE(assignment.per_router[0].empty());
}

TEST(Coordinator, DeterministicAcrossCalls) {
  const strategy::Coordinator coordinator({3, 1, 2});
  const auto a = coordinator.assign(10, 4);
  const auto b = coordinator.assign(10, 4);
  EXPECT_EQ(a.per_router, b.per_router);
}

TEST(CoordinatorDeath, Preconditions) {
  EXPECT_DEATH(strategy::Coordinator({}), "precondition");
  const strategy::Coordinator coordinator({1});
  EXPECT_DEATH((void)coordinator.assign(0, 1), "precondition");
}

}  // namespace
}  // namespace ccnopt::sim
