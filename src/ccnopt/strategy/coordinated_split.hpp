// The paper's scheme (Section III-A), lifted verbatim out of
// sim/network.cpp's provision(): every participant keeps the top c - x
// popularity ranks locally and contributes x slots to a coordinated pool
// covering the next n * x ranks, dealt round-robin by the Coordinator.
// Its whole-simulation outputs are pinned by the golden digests
// (tests/test_golden_digests.cpp).
#pragma once

#include "ccnopt/strategy/strategy.hpp"

namespace ccnopt::strategy {

class CoordinatedSplitPlacement final : public PlacementStrategy {
 public:
  const char* name() const override { return "coordinated-split"; }
  PlacementPlan provision(const PlacementContext& context) const override;
};

}  // namespace ccnopt::strategy
