// Ablation: local replacement policies in the simulator. The analytical
// model assumes frequency-ideal (static-top) local stores; this measures
// how far LRU/LFU/FIFO/Random fall from that ideal, with and without the
// coordinated partition, plus the opportunistic peer-replica lookup the
// model omits, plus every registered caching strategy head-to-head (the
// roster is enumerated from the strategy registry, so newly registered
// strategies show up here without touching this bench).
//
// The warmup split is measured, not guessed: a probe run through
// sim::run_to_steady_state detects where the LRU/coordinated baseline
// converges and every ablation cell warms up for that long (the old
// hard-coded 150000 remains only as the no-convergence fallback).
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "ccnopt/cache/che.hpp"
#include "ccnopt/common/strings.hpp"
#include "ccnopt/common/table.hpp"
#include "ccnopt/popularity/sampler.hpp"
#include "ccnopt/sim/simulation.hpp"
#include "ccnopt/sim/steady_state.hpp"
#include "ccnopt/strategy/registry.hpp"
#include "ccnopt/topology/datasets.hpp"

namespace {

// Warmup budget shared by every cell; overwritten by the detection probe
// in main() before any table runs.
std::uint64_t g_warmup_requests = 150000;

ccnopt::sim::SimConfig base_config(ccnopt::sim::LocalStoreMode mode,
                                   std::size_t coordinated_x) {
  using namespace ccnopt;
  sim::SimConfig config;
  config.network.catalog_size = 20000;
  config.network.capacity_c = 200;
  config.network.local_mode = mode;
  config.network.origin_extra_ms = 50.0;
  config.coordinated_x = coordinated_x;
  config.zipf_s = 0.8;
  config.warmup_requests = g_warmup_requests;
  config.measured_requests = 150000;
  config.seed = 99;
  return config;
}

ccnopt::sim::SimReport run(ccnopt::sim::LocalStoreMode mode,
                           std::size_t coordinated_x, bool peer_fetch) {
  using namespace ccnopt;
  sim::SimConfig config = base_config(mode, coordinated_x);
  config.network.allow_peer_local_fetch = peer_fetch;
  sim::Simulation simulation(topology::us_a(), config);
  return simulation.run();
}

ccnopt::sim::SimReport run_strategy(const std::string& strategy) {
  using namespace ccnopt;
  sim::SimConfig config =
      base_config(sim::LocalStoreMode::kLru, /*coordinated_x=*/100);
  config.network.strategy = strategy;
  sim::Simulation simulation(topology::us_a(), config);
  return simulation.run();
}

}  // namespace

int main() {
  ccnopt::bench::BenchReporter reporter("ablation_policies");
  using namespace ccnopt;
  using sim::LocalStoreMode;
  std::cout << "=== Ablation: local store policies (US-A, N=20000, c=200, "
               "s=0.8) ===\n\n";

  // Detection probe on the LRU/coordinated baseline every other table is
  // compared against; its convergence point becomes the shared warmup.
  {
    sim::SimConfig probe =
        base_config(LocalStoreMode::kLru, /*coordinated_x=*/100);
    probe.warmup_requests = 0;
    probe.measured_requests = 300000;
    const bench::WallTimer probe_timer;
    const sim::SteadyStateRun steady =
        sim::run_to_steady_state(topology::us_a(), std::move(probe));
    reporter.add_timing_ms("steady_probe_ms", probe_timer.elapsed_ms());
    if (steady.steady.converged) {
      g_warmup_requests = steady.steady_state_requests;
    }
    reporter.set_output("converged", steady.steady.converged);
    reporter.set_output("steady_state_requests", steady.steady_state_requests);
    reporter.set_output("warmup_requests", g_warmup_requests);
    std::cout << "detected warmup: " << g_warmup_requests << " requests ("
              << (steady.steady.converged ? "converged"
                                          : "no convergence, fallback 150000")
              << ")\n\n";
  }

  const LocalStoreMode modes[] = {LocalStoreMode::kStaticTop,
                                  LocalStoreMode::kLfu, LocalStoreMode::kLru,
                                  LocalStoreMode::kFifo,
                                  LocalStoreMode::kRandom};

  for (const std::size_t x : {std::size_t{0}, std::size_t{100}}) {
    std::cout << "coordinated x = " << x << " per router\n";
    TextTable table({"local policy", "local frac", "network frac",
                     "origin load", "mean latency ms", "mean hops"});
    for (const LocalStoreMode mode : modes) {
      const sim::SimReport report = run(mode, x, /*peer_fetch=*/false);
      table.add_row({to_string(mode), format_double(report.local_fraction, 4),
                     format_double(report.network_fraction, 4),
                     format_double(report.origin_load, 4),
                     format_double(report.mean_latency_ms, 2),
                     format_double(report.mean_hops, 3)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "Che's approximation vs measured LRU local hit ratio "
               "(analytic LRU without simulation):\n";
  {
    TextTable che_table({"capacity", "Che aggregate h", "measured LRU h",
                         "static-top ideal F(C)"});
    for (const std::size_t capacity : {std::size_t{100}, std::size_t{200},
                                       std::size_t{400}}) {
      const popularity::ZipfDistribution zipf(20000, 0.8);
      const auto che = cache::CheApproximation::create(zipf, capacity);
      auto lru = cache::make_policy(cache::PolicyKind::kLru, capacity, 5);
      popularity::AliasSampler sampler(20000, 0.8);
      Rng rng(31337);
      for (int i = 0; i < 200000; ++i) lru->admit(sampler.sample(rng));
      lru->reset_stats();
      for (int i = 0; i < 200000; ++i) lru->admit(sampler.sample(rng));
      che_table.add_row({std::to_string(capacity),
                         format_double(che->aggregate_hit_ratio(), 4),
                         format_double(lru->stats().hit_ratio(), 4),
                         format_double(che->ideal_hit_ratio(), 4)});
    }
    che_table.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "opportunistic peer-replica lookup (x = 0, the mechanism the "
               "model's mid tier replaces):\n";
  TextTable peer_table({"local policy", "origin load (no peer)",
                        "origin load (peer fetch)", "latency (no peer)",
                        "latency (peer fetch)"});
  for (const LocalStoreMode mode : {LocalStoreMode::kLru,
                                    LocalStoreMode::kLfu}) {
    const sim::SimReport plain = run(mode, 0, false);
    const sim::SimReport peer = run(mode, 0, true);
    peer_table.add_row({to_string(mode), format_double(plain.origin_load, 4),
                        format_double(peer.origin_load, 4),
                        format_double(plain.mean_latency_ms, 2),
                        format_double(peer.mean_latency_ms, 2)});
  }
  peer_table.print(std::cout);
  std::cout << "(non-coordinated stores replicate the same top contents, so "
               "peer lookup barely helps — the paper's Section II point)\n\n";

  std::cout << "caching strategies head-to-head (registry-enumerated, LRU "
               "local stores, x=100 where coordinated):\n";
  TextTable strategy_table({"strategy", "local frac", "network frac",
                            "origin load", "mean latency ms", "coord msgs"});
  for (const std::string& name : strategy::strategy_names()) {
    const sim::SimReport report = run_strategy(name);
    strategy_table.add_row(
        {name, format_double(report.local_fraction, 4),
         format_double(report.network_fraction, 4),
         format_double(report.origin_load, 4),
         format_double(report.mean_latency_ms, 2),
         std::to_string(report.coordination_messages)});
  }
  strategy_table.print(std::cout);
  std::cout << "(en-route strategies pay zero coordination messages but "
               "give up the split's guaranteed coverage)\n";
  return reporter.finish();
}
