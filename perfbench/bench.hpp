// Shared vocabulary of the ccnopt benchmark: workload definitions, the
// output-check ledger behind `failed`/`attempted`, the metric sink that
// becomes the result line, and small timing/statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ccnopt/sim/simulation.hpp"
#include "ccnopt/topology/graph.hpp"

namespace perfbench {

using namespace ccnopt;

/// One benchmark workload: a fixed-size batch of simulated requests on a
/// fixed topology. `config` carries everything but the seed, which comes
/// from --seed; the warmup/measured split is part of the workload.
struct Workload {
  /// 0 = the US-A dataset; otherwise a Waxman graph with this many nodes,
  /// drawn from the fixed `graph_seed` so every run sees the same graph.
  std::size_t waxman_nodes = 0;
  std::uint64_t graph_seed = 0;
  sim::SimConfig config;

  std::uint64_t total_requests() const {
    return config.warmup_requests + config.measured_requests;
  }
  /// The topology, built from scratch (part of set-up time).
  topology::Graph build_graph() const;
};

/// Looks up a workload by name; `tiny` shrinks catalog, graph and request
/// budget so the self-test runs each workload in well under a second.
/// Returns false for an unknown name.
bool find_workload(const std::string& name, bool tiny, Workload* out);
std::vector<std::string> workload_names();

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::size_t threads = 1;
  std::size_t shards = 1;
  std::string span_out;  // traced runs only; empty = no span file
};

/// Output checks: every check is one attempt; a failed one is also logged
/// to stderr so a non-zero `failed` is never silent.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Named metrics with units, in emission order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

inline void emit(Metrics& metrics, std::string name, double value,
                 std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Linear-interpolated quantile q in [0, 1] of `values` (copied, sorted).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Cores this process may run on (sched_getaffinity), at least 1.
std::size_t nproc();

/// Returns the allocator's free memory to the system, so that every set-up
/// allocates fresh pages as the first one in a process does, whatever ran
/// before it (and so peak RSS does not carry freed memory between phases).
void release_free_memory();

/// Set-up as timed by setup_s: topology build, Simulation construction and
/// the first provision.
struct Setup {
  topology::Graph graph;
  std::unique_ptr<sim::Simulation> sim;
  double seconds = 0.0;
};
Setup set_up(const Workload& workload, const sim::SimConfig& config);

/// The report checks every run gets: tier fractions sum to 1 and the
/// report covers exactly the measured budget.
void check_report(Checks& checks, const sim::SimReport& report,
                  std::uint64_t measured, const std::string& what);
/// Field-for-field (bitwise for doubles) equality of two reports.
void check_identical(Checks& checks, const sim::SimReport& a,
                     const sim::SimReport& b, const std::string& what);
/// Topo telemetry against the report and the network's own counters (runs
/// with record_topo only).
void check_topo(Checks& checks, const sim::Simulation& sim,
                const sim::SimReport& report);
/// Theorem 2 at alpha = 1: closed form within kTheorem2Gap of the exact
/// first-order optimum on bench_theorem2_closedform's grid.
void check_theorem2(Checks& checks);

/// Untraced run: every end-to-end metric.
Metrics run_end_to_end(const Workload& workload, const Options& options,
                       Checks& checks);
/// Traced run: every per-layer metric, plus the span file.
Metrics run_layers(const Workload& workload, const Options& options,
                   Checks& checks);

}  // namespace perfbench
