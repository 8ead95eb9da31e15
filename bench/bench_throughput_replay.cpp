// Throughput bench: whole-simulator replay — discrete-event loop, PIT,
// workload sampling, metrics — reported as steady-state requests/sec,
// serial and fanned out over the pool with ReplicationRunner (which keeps
// results bit-identical for any thread count; this bench only times it).
//
// Usage: bench_throughput_replay [--threads N] [--requests R]
//                                [--replications K] [--catalog N]
//                                [--capacity C] [--coordinated X]
//                                [--shards S] [--label SUFFIX]
//
// Besides the replication fan-out, the bench times ONE big run through the
// windowed request engine at --shards (default 8) against the same run at
// shards=1, reporting requests_per_sec_sharded and sharded_speedup — both
// runs are bit-identical by construction (see DESIGN.md §14), so this is a
// pure like-for-like timing. Per-phase throughput (warmup vs measured) of
// the single-thread run is reported from Simulation::last_phase_seconds().
//
// --catalog scales the content catalog (default 20000); at web-scale
// catalogs the auto-selected rejection sampler and sparse cache indexes
// keep memory ~O(capacity), which the recorded peak_rss_bytes output
// demonstrates (compare a --catalog 100000 --label small run against
// --catalog 10000000 --label large). --label suffixes the bench record
// name so the two runs produce distinct BENCH_*.json files.
#include <algorithm>
#include <iostream>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "ccnopt/common/args.hpp"
#include "ccnopt/runtime/replication_runner.hpp"
#include "ccnopt/runtime/shard_scheduler.hpp"
#include "ccnopt/runtime/thread_pool.hpp"
#include "ccnopt/sim/simulation.hpp"
#include "ccnopt/sim/steady_state.hpp"
#include "ccnopt/topology/datasets.hpp"

namespace {

double replications_rps(ccnopt::runtime::ThreadPool& pool,
                        const ccnopt::sim::SimConfig& config,
                        std::size_t replications, double* out_ms) {
  using namespace ccnopt;
  const bench::WallTimer timer;
  const runtime::ReplicationRunner runner(pool);
  const runtime::ReplicationSummary summary =
      runner.run(topology::us_a(), config, replications);
  const double seconds = timer.elapsed_seconds();
  if (out_ms != nullptr) *out_ms = seconds * 1000.0;
  const double total_requests =
      static_cast<double>(config.warmup_requests + config.measured_requests) *
      static_cast<double>(summary.replications());
  return total_requests / (seconds > 0.0 ? seconds : 1e-9);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ccnopt;
  ArgReader args(argc, argv);
  std::size_t threads = args.count(
      "threads", std::min<std::size_t>(
                     8, std::max<std::size_t>(
                            2, std::thread::hardware_concurrency())));
  const std::uint64_t requests = args.count("requests", 60000);
  const std::size_t replications = args.count("replications", 8);
  const std::uint64_t catalog = args.count("catalog", 20000);
  const std::size_t capacity = args.count("capacity", 200);
  const std::size_t coordinated = args.count("coordinated", 100);
  std::size_t shards = args.count("shards", 8);
  const std::string label = args.text("label", "");
  if (!args.finish()) return 2;
  if (threads == 0) threads = 1;
  if (shards == 0) shards = 1;
  bench::BenchReporter reporter(
      label.empty() ? std::string("throughput_replay")
                    : "throughput_replay_" + label);

  sim::SimConfig config;
  config.network.catalog_size = catalog;
  config.network.capacity_c = capacity;
  config.network.local_mode = sim::LocalStoreMode::kLru;
  config.coordinated_x = coordinated;
  config.zipf_s = 0.8;
  config.seed = 20240806;

  std::cout << "=== Simulator replay throughput (US-A, N=" << catalog
            << ", c=" << capacity << ", " << replications
            << " replications x " << requests << " requests) ===\n\n";

  // Probe run: detect when the LRU partitions actually converge on this
  // config and use that as the warmup split for the timed replications —
  // replacing the old hard-coded requests/3 guess.
  {
    sim::SimConfig probe = config;
    probe.warmup_requests = 0;
    probe.measured_requests = requests;
    const bench::WallTimer probe_timer;
    const sim::SteadyStateRun steady =
        sim::run_to_steady_state(topology::us_a(), std::move(probe));
    reporter.add_timing_ms("steady_probe_ms", probe_timer.elapsed_ms());
    // Fall back to the historical requests/3 split only if detection says
    // the run never settles (tiny request budgets).
    config.warmup_requests = steady.steady.converged
                                 ? steady.steady_state_requests
                                 : requests / 3;
    config.measured_requests = requests - config.warmup_requests;
    reporter.set_output("converged", steady.steady.converged);
    reporter.set_output("steady_state_requests", steady.steady_state_requests);
    reporter.set_output("warmup_requests", config.warmup_requests);
    std::cout << "detected warmup: " << config.warmup_requests << " requests ("
              << (steady.steady.converged ? "converged"
                                          : "no convergence, requests/3")
              << ")\n\n";
  }

  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  double serial_rps = 0.0;
  {
    runtime::ThreadPool pool(1);
    serial_rps = replications_rps(pool, config, replications, &serial_ms);
  }
  double parallel_rps = 0.0;
  {
    runtime::ThreadPool pool(threads);
    parallel_rps = replications_rps(pool, config, replications, &parallel_ms);
  }

  // Same workload with the per-router/per-link flight recorder on: the gap
  // between requests_per_sec and requests_per_sec_topo is the tentpole's
  // enabled-path cost, while the baseline gate on requests_per_sec keeps
  // the disabled path (one null-pointer branch) honest.
  double topo_ms = 0.0;
  double topo_rps = 0.0;
  {
    sim::SimConfig topo_config = config;
    topo_config.record_topo = true;
    runtime::ThreadPool pool(threads);
    topo_rps = replications_rps(pool, topo_config, replications, &topo_ms);
  }

  // Windowed engine on ONE big run: the same request budget as a single
  // replication, shards=1 on the calling thread vs shards=S on a real
  // pool.
  // Both produce bit-identical outputs, so the ratio is pure engine cost.
  double single_ms = 0.0;
  double single_rps = 0.0;
  double sharded_ms = 0.0;
  double sharded_rps = 0.0;
  double warmup_phase_rps = 0.0;
  double measured_phase_rps = 0.0;
  {
    const double total_requests =
        static_cast<double>(config.warmup_requests + config.measured_requests);
    {
      sim::Simulation single(topology::us_a(), config);
      const bench::WallTimer timer;
      single.run();
      single_ms = timer.elapsed_ms();
      single_rps = total_requests / (single_ms > 0.0 ? single_ms / 1000.0
                                                     : 1e-9);
      const sim::Simulation::PhaseSeconds phases = single.last_phase_seconds();
      warmup_phase_rps = static_cast<double>(config.warmup_requests) /
                         (phases.warmup > 0.0 ? phases.warmup : 1e-9);
      measured_phase_rps = static_cast<double>(config.measured_requests) /
                           (phases.measured > 0.0 ? phases.measured : 1e-9);
    }
    {
      sim::SimConfig sharded_config = config;
      sharded_config.shards = shards;
      runtime::ThreadPool pool(std::min(threads, shards));
      runtime::ShardScheduler scheduler(pool);
      sim::Simulation sharded(topology::us_a(), sharded_config);
      sharded.set_shard_executor(&scheduler);
      const bench::WallTimer timer;
      sharded.run();
      sharded_ms = timer.elapsed_ms();
      sharded_rps = total_requests / (sharded_ms > 0.0 ? sharded_ms / 1000.0
                                                       : 1e-9);
    }
  }

  std::cout << "serial   (1 thread):  " << serial_rps / 1e6 << " Mreq/s\n"
            << "parallel (" << threads << " threads): " << parallel_rps / 1e6
            << " Mreq/s (speedup " << parallel_rps / serial_rps << "x)\n"
            << "topo on  (" << threads << " threads): " << topo_rps / 1e6
            << " Mreq/s (" << topo_rps / parallel_rps
            << "x of topo-off)\n"
            << "one run  (1 thread):  " << single_rps / 1e6
            << " Mreq/s (warmup phase " << warmup_phase_rps / 1e6
            << ", measured phase " << measured_phase_rps / 1e6 << ")\n"
            << "one run  (" << shards << " shards):  " << sharded_rps / 1e6
            << " Mreq/s (speedup " << sharded_rps / single_rps << "x)\n";

  reporter.add_timing_ms("serial_ms", serial_ms);
  reporter.add_timing_ms("parallel_ms", parallel_ms);
  reporter.add_timing_ms("topo_ms", topo_ms);
  reporter.add_timing_ms("single_run_ms", single_ms);
  reporter.add_timing_ms("sharded_run_ms", sharded_ms);
  reporter.set_output("requests_per_sec", parallel_rps);
  reporter.set_output("requests_per_sec_serial", serial_rps);
  reporter.set_output("requests_per_sec_topo", topo_rps);
  reporter.set_output("requests_per_sec_warmup_phase", warmup_phase_rps);
  reporter.set_output("requests_per_sec_measured_phase", measured_phase_rps);
  reporter.set_output("requests_per_sec_sharded", sharded_rps);
  reporter.set_output("sharded_speedup", sharded_rps / single_rps);
  reporter.set_output("shards", shards);
  reporter.set_output("threads", threads);
  reporter.set_output("catalog_size", config.network.catalog_size);
  reporter.set_output("replications", replications);
  reporter.set_output("requests_per_replication", requests);
  return reporter.finish();
}
