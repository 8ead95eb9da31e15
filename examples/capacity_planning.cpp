// Capacity planning: how much storage should each router carry?
//
//   capacity_planning [topology] [alpha]
//
// The paper optimizes the split of a *given* capacity c; a carrier also
// has to pick c itself. This example sweeps c, re-optimizing l* at each
// point, and reports the diminishing returns of storage on origin load and
// latency — the curve a provisioning team would look at before buying
// flash for its routers.
#include <iostream>

#include "ccnopt/common/args.hpp"
#include "ccnopt/common/strings.hpp"
#include "ccnopt/common/table.hpp"
#include "ccnopt/model/gains.hpp"
#include "ccnopt/model/optimizer.hpp"
#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/params.hpp"

int main(int argc, char** argv) {
  using namespace ccnopt;
  ArgReader args(argc, argv);
  const std::string topology_name = args.text_at(0, "cernet");
  const double alpha = args.number_at(1, 0.8);
  if (!args.finish(2)) return 2;

  const auto graph = topology::dataset_by_name(topology_name);
  if (!graph) {
    std::cerr << graph.status().to_string() << "\n";
    return 1;
  }
  const topology::TopologyParameters derived =
      topology::derive_parameters(*graph);

  std::cout << "=== Capacity planning on " << graph->name()
            << " (alpha=" << alpha << ", s=0.8, N=1e6) ===\n\n";

  TextTable table({"capacity c", "l*", "distinct contents cached",
                   "catalog covered", "origin load", "G_O", "G_R"});
  for (const double c : {100.0, 300.0, 1000.0, 3000.0, 10000.0, 30000.0}) {
    model::SystemParams params = model::SystemParams::paper_defaults();
    params.n = static_cast<double>(derived.n);
    params.capacity_c = c;
    params.latency =
        model::LatencyProfile::from_gamma(1.0, derived.mean_hops, 5.0);
    params.cost.unit_cost_w = derived.unit_cost_w_ms;
    params.cost.amortization = 1.0;
    params.alpha = alpha;
    // Skip capacities where the whole catalog would fit in the network
    // (the model's origin tier must be non-empty).
    if (!params.validate().is_ok()) continue;
    params.cost.amortization = model::calibrate_amortization(params);

    const auto strategy = model::optimize(params);
    if (!strategy) continue;
    const model::PerformanceModel perf(params);
    const model::GainReport gains =
        model::compute_gains(perf, strategy->x_star);
    const double distinct = c + (params.n - 1.0) * strategy->x_star;
    table.add_row(
        {format_double(c, 0), format_double(strategy->ell_star, 3),
         format_double(distinct, 0),
         format_percent(distinct / params.catalog_n, 2),
         format_double(gains.origin_load_optimal, 4),
         format_percent(gains.origin_load_reduction),
         format_percent(gains.routing_improvement)});
  }
  table.print(std::cout);
  std::cout << "\n(each row re-optimizes the coordination split for that "
               "capacity; the last rows show storage's diminishing returns "
               "under the Zipf tail)\n";
  return 0;
}
