#include "ccnopt/experiments/sim_vs_model.hpp"

#include <algorithm>
#include <cmath>

#include "ccnopt/common/assert.hpp"
#include "ccnopt/common/random.hpp"
#include "ccnopt/runtime/thread_pool.hpp"
#include "ccnopt/sim/network.hpp"
#include "ccnopt/sim/workload.hpp"
#include "ccnopt/topology/shortest_paths.hpp"

namespace ccnopt::experiments {
namespace {

/// Analytic twin of the simulated network, derived the Table III way.
model::SystemParams derive_params(const topology::Graph& graph,
                                  const SimVsModelOptions& options) {
  const topology::AllPairs paths = topology::all_pairs(graph);
  const std::size_t n = graph.node_count();
  double sum_pairwise = 0.0;
  double sum_gateway = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) sum_pairwise += paths.latency_ms(i, j);
    sum_gateway += paths.latency_ms(i, 0);
  }
  const double mean_pairwise =
      sum_pairwise / (static_cast<double>(n) * static_cast<double>(n));
  const double mean_gateway = sum_gateway / static_cast<double>(n);

  model::SystemParams params;
  params.alpha = 1.0;
  params.s = options.zipf_s;
  params.n = static_cast<double>(n);
  params.catalog_n = static_cast<double>(options.catalog_size);
  params.capacity_c = static_cast<double>(options.capacity_c);
  params.latency.d0 = options.access_latency_d0_ms;
  params.latency.d1 = options.access_latency_d0_ms + mean_pairwise;
  params.latency.d2 =
      options.access_latency_d0_ms + mean_gateway + options.origin_extra_ms;
  params.cost = model::CostModel{};  // unused by the routing comparison
  CCNOPT_ENSURES(params.validate().is_ok());
  return params;
}

/// One x point: its own network (provisioned at x) and its own workload
/// sub-stream, so points are independent of each other and of thread count.
SimVsModelPoint evaluate_x_point(const topology::Graph& graph,
                                 const SimVsModelOptions& options,
                                 const model::PerformanceModel& analytic,
                                 const sim::NetworkConfig& net_config,
                                 std::size_t index) {
  const std::size_t x = options.capacity_c * index /
                        static_cast<std::size_t>(options.x_points - 1);
  sim::CcnNetwork network(graph, net_config);
  sim::ZipfWorkload workload(network.router_count(), options.catalog_size,
                             options.zipf_s,
                             derive_seed(options.seed, index));
  network.provision(x);

  std::uint64_t origin_hits = 0;
  std::uint64_t faithful_local_hits = 0;
  double latency_sum = 0.0;
  const std::uint64_t requests = options.measured_requests;
  for (std::uint64_t r = 0; r < requests; ++r) {
    const auto router =
        static_cast<topology::NodeId>(r % network.router_count());
    const sim::ServeResult served =
        network.serve(router, workload.next(router));
    latency_sum += served.latency_ms;
    if (served.tier == sim::ServeTier::kOrigin) ++origin_hits;
    // Eq. 2 charges a router's own coordinated contents to the network
    // tier; reclassify so the tier splits are comparable.
    if (served.tier == sim::ServeTier::kLocal && !served.own_coordinated_hit) {
      ++faithful_local_hits;
    }
  }

  SimVsModelPoint point;
  point.x = x;
  point.ell = static_cast<double>(x) / static_cast<double>(options.capacity_c);
  point.model_latency_ms = analytic.routing_performance(static_cast<double>(x));
  point.sim_latency_ms = latency_sum / static_cast<double>(requests);
  const auto split = analytic.tier_split(static_cast<double>(x));
  point.model_origin_load = split.origin;
  point.model_local_fraction = split.local;
  point.sim_origin_load =
      static_cast<double>(origin_hits) / static_cast<double>(requests);
  point.sim_local_fraction = static_cast<double>(faithful_local_hits) /
                             static_cast<double>(requests);
  return point;
}

}  // namespace

SimVsModelResult run_sim_vs_model(const topology::Graph& graph,
                                  const SimVsModelOptions& options,
                                  runtime::ThreadPool* pool) {
  CCNOPT_EXPECTS(options.x_points >= 2);
  CCNOPT_EXPECTS(graph.is_connected());
  CCNOPT_EXPECTS(options.catalog_size >
                 graph.node_count() * options.capacity_c);

  SimVsModelResult result;
  result.params = derive_params(graph, options);
  const model::PerformanceModel analytic(result.params);

  sim::NetworkConfig net_config;
  net_config.catalog_size = options.catalog_size;
  net_config.capacity_c = options.capacity_c;
  net_config.local_mode = sim::LocalStoreMode::kStaticTop;
  net_config.access_latency_d0_ms = options.access_latency_d0_ms;
  net_config.origin_gateway = 0;
  net_config.origin_extra_ms = options.origin_extra_ms;
  net_config.seed = options.seed;

  const std::size_t point_count = static_cast<std::size_t>(options.x_points);
  result.points.resize(point_count);
  runtime::ThreadPool serial(1);
  runtime::ThreadPool& workers = pool != nullptr ? *pool : serial;
  workers.run(point_count, [&](std::size_t i) {
    result.points[i] =
        evaluate_x_point(graph, options, analytic, net_config, i);
  });

  for (const SimVsModelPoint& point : result.points) {
    result.max_origin_load_abs_error =
        std::max(result.max_origin_load_abs_error,
                 std::abs(point.model_origin_load - point.sim_origin_load));
    if (point.model_latency_ms > 0.0) {
      result.max_latency_rel_error = std::max(
          result.max_latency_rel_error,
          std::abs(point.model_latency_ms - point.sim_latency_ms) /
              point.model_latency_ms);
    }
  }
  return result;
}

}  // namespace ccnopt::experiments
