// Provisioning planner: the workflow a network carrier would run.
//
//   provisioning_planner [topology] [alpha] [gamma] [zipf_s]
//
// Derives the model parameters from the chosen topology, sweeps alpha
// around the requested operating point, prints the optimal per-router
// coordination plan, the coordinator's content assignment summary, and a
// stability analysis (how sensitive l* is near the chosen alpha).
#include <iostream>

#include "ccnopt/common/args.hpp"
#include "ccnopt/common/strings.hpp"
#include "ccnopt/common/table.hpp"
#include "ccnopt/model/gains.hpp"
#include "ccnopt/model/sensitivity.hpp"
#include "ccnopt/strategy/coordinator.hpp"
#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/params.hpp"

int main(int argc, char** argv) {
  using namespace ccnopt;
  ArgReader args(argc, argv);
  const std::string topology_name = args.text_at(0, "us-a");
  const double alpha = args.number_at(1, 0.7);
  const double gamma = args.number_at(2, 5.0);
  const double zipf_s = args.number_at(3, 0.8);
  if (!args.finish(4)) return 2;

  const auto graph = topology::dataset_by_name(topology_name);
  if (!graph) {
    std::cerr << graph.status().to_string() << "\nknown topologies:";
    for (const std::string& name : topology::dataset_names()) {
      std::cerr << " " << name;
    }
    std::cerr << "\n";
    return 1;
  }
  const topology::TopologyParameters derived =
      topology::derive_parameters(*graph);

  model::SystemParams params = model::SystemParams::paper_defaults();
  params.n = static_cast<double>(derived.n);
  params.s = zipf_s;
  params.latency =
      model::LatencyProfile::from_gamma(1.0, derived.mean_hops, gamma);
  params.cost.unit_cost_w = derived.unit_cost_w_ms;
  params.cost.amortization = 1.0;
  params.cost.amortization = model::calibrate_amortization(params);
  params.alpha = alpha;
  if (const Status status = params.validate(); !status.is_ok()) {
    std::cerr << "invalid parameters: " << status.to_string() << "\n";
    return 1;
  }

  std::cout << "=== Provisioning plan for " << graph->name() << " ===\n"
            << "n=" << derived.n << " routers, w=" << derived.unit_cost_w_ms
            << "ms, d1-d0=" << format_double(derived.mean_hops, 3)
            << " hops, gamma=" << gamma << ", s=" << zipf_s
            << ", alpha=" << alpha << "\n\n";

  const auto strategy = model::optimize(params);
  if (!strategy) {
    std::cerr << "optimize failed: " << strategy.status().to_string() << "\n";
    return 1;
  }
  const model::PerformanceModel perf(params);
  const model::GainReport gains =
      model::compute_gains(perf, strategy->x_star);

  const auto x_int = static_cast<std::size_t>(strategy->x_star + 0.5);
  std::cout << "optimal coordination level l* = "
            << format_double(strategy->ell_star, 4) << "\n"
            << "per-router plan: " << x_int
            << " contents coordinated, "
            << static_cast<std::size_t>(params.capacity_c) - x_int
            << " contents local top-ranked\n"
            << "predicted origin load reduction G_O = "
            << format_percent(gains.origin_load_reduction) << "\n"
            << "predicted routing improvement  G_R = "
            << format_percent(gains.routing_improvement) << "\n\n";

  // Coordinator view: what the assignment would look like.
  std::vector<topology::NodeId> participants(graph->node_count());
  for (topology::NodeId id = 0; id < graph->node_count(); ++id) {
    participants[id] = id;
  }
  const strategy::Coordinator coordinator(participants);
  const auto assignment = coordinator.assign(
      static_cast<cache::ContentId>(params.capacity_c) -
          static_cast<cache::ContentId>(x_int) + 1,
      x_int);
  std::cout << "coordinator epoch: " << assignment.owner.size()
            << " distinct contents placed, " << assignment.messages
            << " placement messages (Eq. 3 communication term)\n\n";

  // Stability analysis around the operating point (Section V-B1).
  const auto sweep = model::sweep(params, model::SweepParameter::kAlpha,
                                  model::linspace(0.02, 1.0, 99));
  if (sweep) {
    std::cout << "stability: max |d l*/d alpha| over the sweep = "
              << format_double(model::max_sensitivity(*sweep), 2) << "\n";
    if (const auto range = model::sensitive_range(*sweep, 0.1, 0.7)) {
      std::cout << "sensitive alpha range (l* 10% -> 70%): ["
                << format_double(range->low, 2) << ", "
                << format_double(range->high, 2) << "]";
      std::cout << ((alpha >= range->low && alpha <= range->high)
                        ? "  <- your alpha is INSIDE it; tune carefully\n"
                        : "  (your alpha is outside it)\n");
    }
    TextTable table({"alpha", "l*", "G_O", "G_R"});
    for (std::size_t i = 0; i < sweep->size(); i += 14) {
      const auto& point = (*sweep)[i];
      table.add_row(format_double(point.parameter, 2),
                    {point.ell_star, point.origin_load_reduction,
                     point.routing_improvement},
                    3);
    }
    std::cout << "\n";
    table.print(std::cout);
  }
  return 0;
}
