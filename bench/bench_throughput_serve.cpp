// Throughput bench: the raw CcnNetwork::serve() hot path — dense owner
// table, precomputed origin routes, flat LRU local partitions — on a real
// topology, with the request stream pre-generated so only the data plane
// is on the clock.
//
// The local-hit fraction is also tracked per epoch (requests/64) and run
// through the sliding-window steady-state detector, so the record carries
// the measured convergence point of the LRU partitions instead of assuming
// the whole loop is steady.
//
// Usage: bench_throughput_serve [requests] [catalog] [capacity]
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "ccnopt/common/args.hpp"
#include "ccnopt/common/random.hpp"
#include "ccnopt/obs/timeline.hpp"
#include "ccnopt/popularity/sampler.hpp"
#include "ccnopt/sim/network.hpp"
#include "ccnopt/topology/datasets.hpp"

int main(int argc, char** argv) {
  using namespace ccnopt;
  ArgReader args(argc, argv);
  const std::size_t requests = args.count_at(0, 500000);
  const std::uint64_t catalog = args.count_at(1, 20000);
  const std::size_t capacity = args.count_at(2, 200);
  if (!args.finish(3)) return 2;
  bench::BenchReporter reporter("throughput_serve");
  std::cout << "=== serve() throughput (US-A, requests=" << requests
            << ", catalog=" << catalog << ", c=" << capacity
            << ", x=c/2, LRU local) ===\n\n";

  sim::NetworkConfig config;
  config.catalog_size = catalog;
  config.capacity_c = capacity;
  config.local_mode = sim::LocalStoreMode::kLru;
  config.seed = 7;
  sim::CcnNetwork network(topology::us_a(), config);
  network.provision(capacity / 2);

  // Pre-generate (router, content) pairs so sampling stays off the clock.
  popularity::AliasSampler sampler(catalog, 0.8);
  Rng rng(411);
  std::vector<cache::ContentId> contents(requests);
  std::vector<topology::NodeId> routers(requests);
  const auto router_count =
      static_cast<topology::NodeId>(network.router_count());
  for (std::size_t i = 0; i < requests; ++i) {
    contents[i] = sampler.sample(rng);
    routers[i] = static_cast<topology::NodeId>(i % router_count);
  }

  // Per-epoch local-hit counts, folded into the timed loop as one integer
  // increment per request (epoch bookkeeping happens 64 times total).
  const std::size_t epoch_requests = std::max<std::size_t>(requests / 64, 1);
  std::vector<double> epoch_hit_ratio;
  epoch_hit_ratio.reserve(requests / epoch_requests + 1);

  const bench::WallTimer timer;
  std::uint64_t local_hits = 0;
  std::uint64_t epoch_hits = 0;
  std::size_t epoch_seen = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    const sim::ServeResult result = network.serve(routers[i], contents[i]);
    const std::uint64_t hit = result.tier == sim::ServeTier::kLocal ? 1 : 0;
    local_hits += hit;
    epoch_hits += hit;
    if (++epoch_seen == epoch_requests) {
      epoch_hit_ratio.push_back(static_cast<double>(epoch_hits) /
                                static_cast<double>(epoch_seen));
      epoch_hits = 0;
      epoch_seen = 0;
    }
  }
  const double seconds = timer.elapsed_seconds();
  const double rps =
      static_cast<double>(requests) / (seconds > 0.0 ? seconds : 1e-9);

  const obs::SteadyStateResult steady =
      obs::detect_steady_state(epoch_hit_ratio);
  const std::size_t steady_requests = steady.epoch * epoch_requests;

  std::cout << "serve: " << rps / 1e6 << " Mreq/s, local-hit fraction "
            << static_cast<double>(local_hits) /
                   static_cast<double>(requests)
            << "\n"
            << "local-hit ratio " << (steady.converged ? "steady" : "NOT steady")
            << " after " << steady_requests << " requests (epoch "
            << steady.epoch << " of " << epoch_hit_ratio.size() << ")\n";
  reporter.add_timing_ms("serve_loop_ms", seconds * 1000.0);
  reporter.set_output("requests_per_sec", rps);
  reporter.set_output("threads", 1);
  reporter.set_output("catalog_size", catalog);
  reporter.set_output("requests", requests);
  reporter.set_output("local_hits", local_hits);
  reporter.set_output("converged", steady.converged);
  reporter.set_output("steady_state_epoch", steady.epoch);
  reporter.set_output("steady_state_requests", steady_requests);
  return reporter.finish();
}
