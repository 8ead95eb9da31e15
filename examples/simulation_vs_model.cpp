// Simulation vs model: close the loop end to end.
//
//   simulation_vs_model [topology]
//
// Computes the model's optimal coordination amount x*, provisions the
// discrete-event simulator with x = 0 (non-coordinated), x = x*, and x = c
// (fully coordinated), and compares the measured origin load and latency
// against the model's predictions.
#include <iostream>

#include "ccnopt/common/args.hpp"
#include "ccnopt/common/strings.hpp"
#include "ccnopt/common/table.hpp"
#include "ccnopt/model/gains.hpp"
#include "ccnopt/model/optimizer.hpp"
#include "ccnopt/sim/simulation.hpp"
#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/params.hpp"
#include "ccnopt/topology/shortest_paths.hpp"

int main(int argc, char** argv) {
  using namespace ccnopt;
  ArgReader args(argc, argv);
  const std::string topology_name = args.text_at(0, "geant");
  if (!args.finish(1)) return 2;
  const auto graph = topology::dataset_by_name(topology_name);
  if (!graph) {
    std::cerr << graph.status().to_string() << "\n";
    return 1;
  }

  // Simulator scale: laptop-sized catalog so exact sampling is cheap.
  sim::SimConfig config;
  config.network.catalog_size = 30000;
  config.network.capacity_c = 300;
  config.network.local_mode = sim::LocalStoreMode::kStaticTop;
  config.network.origin_extra_ms = 60.0;
  config.zipf_s = 0.8;
  config.measured_requests = 150000;
  config.seed = 11;

  // Analytic twin: latency tiers derived from the topology (Section V-A).
  const topology::AllPairs paths = topology::all_pairs(*graph);
  double sum_pairwise = 0.0, sum_gateway = 0.0;
  const std::size_t n = graph->node_count();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) sum_pairwise += paths.latency_ms(i, j);
    sum_gateway += paths.latency_ms(i, 0);
  }
  model::SystemParams params = model::SystemParams::paper_defaults();
  params.alpha = 1.0;
  params.n = static_cast<double>(n);
  params.catalog_n = static_cast<double>(config.network.catalog_size);
  params.capacity_c = static_cast<double>(config.network.capacity_c);
  params.latency.d0 = config.network.access_latency_d0_ms;
  params.latency.d1 = params.latency.d0 +
                      sum_pairwise / (static_cast<double>(n) * static_cast<double>(n));
  params.latency.d2 = params.latency.d0 + sum_gateway / static_cast<double>(n) +
                      config.network.origin_extra_ms;

  const auto strategy = model::optimize(params);
  if (!strategy) {
    std::cerr << "optimize failed: " << strategy.status().to_string() << "\n";
    return 1;
  }
  const model::PerformanceModel perf(params);

  std::cout << "=== " << graph->name()
            << ": model predictions vs discrete-event simulation ===\n"
            << "derived tiers d0=" << format_double(params.latency.d0, 2)
            << " d1=" << format_double(params.latency.d1, 2)
            << " d2=" << format_double(params.latency.d2, 2)
            << " (gamma=" << format_double(params.latency.gamma(), 2)
            << "), model x* = " << format_double(strategy->x_star, 1)
            << " (l* = " << format_double(strategy->ell_star, 3) << ")\n\n";

  TextTable table({"provisioning", "x", "T model ms", "T sim ms",
                   "origin model", "origin sim", "coord msgs"});
  const std::size_t x_values[] = {
      0, static_cast<std::size_t>(strategy->x_star + 0.5),
      config.network.capacity_c};
  const char* labels[] = {"non-coordinated", "model optimum x*",
                          "fully coordinated"};
  for (int i = 0; i < 3; ++i) {
    sim::SimConfig run_config = config;
    run_config.coordinated_x = x_values[i];
    sim::Simulation simulation(*graph, run_config);
    const sim::SimReport report = simulation.run();
    const double x = static_cast<double>(x_values[i]);
    table.add_row({labels[i], std::to_string(x_values[i]),
                   format_double(perf.routing_performance(x), 2),
                   format_double(report.mean_latency_ms, 2),
                   format_double(perf.tier_split(x).origin, 4),
                   format_double(report.origin_load, 4),
                   std::to_string(report.coordination_messages)});
  }
  table.print(std::cout);

  const model::GainReport gains =
      model::compute_gains(perf, strategy->x_star);
  std::cout << "\nmodel-predicted gains at x*: G_O = "
            << format_percent(gains.origin_load_reduction)
            << ", G_R = " << format_percent(gains.routing_improvement)
            << "\n";
  return 0;
}
