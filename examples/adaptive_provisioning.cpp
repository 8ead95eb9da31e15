// Adaptive provisioning: run the online controller against a live
// simulated network whose popularity drifts, epoch by epoch.
//
//   adaptive_provisioning [topology] [epochs]
//
// This is the deployment story for the model: nobody hands a carrier the
// Zipf exponent — the coordinator estimates it from the requests it serves
// and re-provisions the content stores each epoch.
#include <iostream>

#include "ccnopt/common/args.hpp"
#include "ccnopt/common/strings.hpp"
#include "ccnopt/experiments/adaptive_loop.hpp"
#include "ccnopt/topology/datasets.hpp"

int main(int argc, char** argv) {
  using namespace ccnopt;
  ArgReader args(argc, argv);
  const std::string topology_name = args.text_at(0, "abilene");
  const std::uint64_t epoch_count = args.count_at(1, 6);
  if (!args.finish(2)) return 2;
  if (epoch_count < 2 || epoch_count > 64) {
    std::cerr << "epochs must be in [2, 64]\n";
    return 1;
  }
  const int epochs = static_cast<int>(epoch_count);

  const auto graph = topology::dataset_by_name(topology_name);
  if (!graph) {
    std::cerr << graph.status().to_string() << "\n";
    return 1;
  }

  experiments::AdaptiveLoopOptions options;
  options.requests_per_epoch = 30000;
  // A popularity wave: flattens out, then sharpens past the singular point.
  options.s_per_epoch.clear();
  for (int e = 0; e < epochs; ++e) {
    const double phase = static_cast<double>(e) / (epochs - 1);
    options.s_per_epoch.push_back(0.6 + 0.8 * phase);
  }

  std::cout << "adaptive provisioning on " << graph->name() << ", " << epochs
            << " epochs, s drifting 0.6 -> 1.4\n\n";
  const auto result = experiments::run_adaptive_loop(*graph, options);
  if (!result) {
    std::cerr << "loop failed: " << result.status().to_string() << "\n";
    return 1;
  }

  for (const experiments::AdaptiveEpochReport& epoch : result->epochs) {
    std::cout << "epoch " << epoch.epoch << ": true s="
              << format_double(epoch.true_s, 2) << ", controller estimated "
              << format_double(epoch.estimated_s, 3) << " -> set l*="
              << format_double(epoch.ell_adaptive, 3)
              << " (oracle " << format_double(epoch.ell_oracle, 3)
              << "); latency " << format_double(epoch.latency_adaptive_ms, 2)
              << " ms vs static " << format_double(epoch.latency_static_ms, 2)
              << " ms\n";
  }
  std::cout << "\nover the run: adaptive "
            << format_double(result->mean_latency_adaptive_ms, 2)
            << " ms, static "
            << format_double(result->mean_latency_static_ms, 2)
            << " ms, oracle "
            << format_double(result->mean_latency_oracle_ms, 2) << " ms\n";
  return 0;
}
