// Validation of the analytical model (Eq. 2 and the Section IV-E gains)
// against the discrete-event simulator on a real topology: the simulator
// knows nothing of the formulas — it replays Zipf requests against
// partitioned stores over shortest paths — yet its measured origin load and
// mean latency must track T(x) and 1 - F(c + (n-1)x).
#pragma once

#include <vector>

#include "ccnopt/model/performance.hpp"
#include "ccnopt/topology/graph.hpp"

namespace ccnopt::runtime {
class ThreadPool;
}

namespace ccnopt::experiments {

struct SimVsModelOptions {
  std::uint64_t catalog_size = 50000;
  std::size_t capacity_c = 500;
  double zipf_s = 0.8;
  std::uint64_t measured_requests = 200000;
  std::uint64_t seed = 7;
  int x_points = 5;  // x sampled uniformly over [0, c]
  double access_latency_d0_ms = 1.0;
  double origin_extra_ms = 50.0;
};

struct SimVsModelPoint {
  std::size_t x = 0;
  double ell = 0.0;
  double model_latency_ms = 0.0;
  double sim_latency_ms = 0.0;
  double model_origin_load = 0.0;
  double sim_origin_load = 0.0;
  double model_local_fraction = 0.0;
  double sim_local_fraction = 0.0;  // model-faithful: own-coordinated
                                    // hits counted as the network tier
};

struct SimVsModelResult {
  model::SystemParams params;  // the derived analytic twin of the sim setup
  std::vector<SimVsModelPoint> points;
  double max_origin_load_abs_error = 0.0;
  double max_latency_rel_error = 0.0;
};

/// Runs the sweep on `graph` (connected, uniform capacities). The analytic
/// twin derives d1 - d0 from the topology's mean pairwise latency and d2
/// from the mean gateway distance plus the origin offset, exactly as
/// Section V-A derives Table III.
///
/// Each x point replays its requests against its own freshly provisioned
/// network with a workload seeded derive_seed(options.seed, point index),
/// so points are independent: they run on `pool` (null: on the calling
/// thread) and the result is bit-identical at any thread count.
SimVsModelResult run_sim_vs_model(const topology::Graph& graph,
                                  const SimVsModelOptions& options = {},
                                  runtime::ThreadPool* pool = nullptr);

}  // namespace ccnopt::experiments
