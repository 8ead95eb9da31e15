// google-benchmark microbenchmarks of the library's hot kernels: harmonic
// evaluation, Zipf sampling, cache policy operations, shortest paths, the
// optimizer, and the simulator's serve path.
#include <benchmark/benchmark.h>

#include "ccnopt/cache/policy.hpp"
#include "ccnopt/model/optimizer.hpp"
#include "ccnopt/numerics/harmonic.hpp"
#include "ccnopt/popularity/sampler.hpp"
#include "ccnopt/sim/network.hpp"
#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/generators.hpp"
#include "ccnopt/topology/route_table.hpp"
#include "ccnopt/topology/shortest_paths.hpp"

namespace {

using namespace ccnopt;

void BM_HarmonicExact(benchmark::State& state) {
  const auto k = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(numerics::harmonic_exact(k, 0.8));
  }
}
BENCHMARK(BM_HarmonicExact)->Arg(1000)->Arg(100000);

void BM_HarmonicEulerMaclaurin(benchmark::State& state) {
  const auto k = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(numerics::harmonic_euler_maclaurin(k, 0.8));
  }
}
BENCHMARK(BM_HarmonicEulerMaclaurin)->Arg(100000)->Arg(1000000000);

void BM_ZipfAliasSample(benchmark::State& state) {
  popularity::AliasSampler sampler(
      static_cast<std::uint64_t>(state.range(0)), 0.8);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_ZipfAliasSample)->Arg(10000)->Arg(1000000);

void BM_ZipfInverseCdfSample(benchmark::State& state) {
  popularity::InverseCdfSampler sampler(popularity::ZipfDistribution(
      static_cast<std::uint64_t>(state.range(0)), 0.8));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_ZipfInverseCdfSample)->Arg(10000)->Arg(1000000);

void BM_CachePolicyAdmit(benchmark::State& state) {
  const auto kind = static_cast<cache::PolicyKind>(state.range(0));
  auto policy = cache::make_policy(kind, 1024, 7);
  popularity::AliasSampler sampler(16384, 0.8);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->admit(sampler.sample(rng)));
  }
  state.SetLabel(to_string(kind));
}
BENCHMARK(BM_CachePolicyAdmit)->DenseRange(0, 3);

void BM_DijkstraCernet(benchmark::State& state) {
  const topology::Graph graph = topology::cernet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::dijkstra(graph, 0));
  }
}
BENCHMARK(BM_DijkstraCernet);

void BM_AllPairsCernet(benchmark::State& state) {
  const topology::Graph graph = topology::cernet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::all_pairs(graph));
  }
}
BENCHMARK(BM_AllPairsCernet);

void BM_RouteTableWaxman1000(benchmark::State& state) {
  Rng rng(1000);
  const topology::Graph graph = topology::make_waxman(1000, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::RouteTable(graph));
  }
}
BENCHMARK(BM_RouteTableWaxman1000)->Unit(benchmark::kMillisecond);

void BM_OptimizeExactFirstOrder(benchmark::State& state) {
  const model::SystemParams params =
      model::with_alpha(model::SystemParams::paper_defaults(), 0.6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::solve_exact_first_order(params));
  }
}
BENCHMARK(BM_OptimizeExactFirstOrder);

void BM_OptimizeDirect(benchmark::State& state) {
  const model::SystemParams params =
      model::with_alpha(model::SystemParams::paper_defaults(), 0.6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::solve_direct(params));
  }
}
BENCHMARK(BM_OptimizeDirect);

void BM_NetworkServe(benchmark::State& state) {
  sim::NetworkConfig config;
  config.catalog_size = 20000;
  config.capacity_c = 200;
  config.local_mode = sim::LocalStoreMode::kStaticTop;
  sim::CcnNetwork network(topology::us_a(), config);
  network.provision(static_cast<std::size_t>(state.range(0)));
  popularity::AliasSampler sampler(20000, 0.8);
  Rng rng(3);
  topology::NodeId router = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(network.serve(router, sampler.sample(rng)));
    router = (router + 1) % static_cast<topology::NodeId>(network.router_count());
  }
}
BENCHMARK(BM_NetworkServe)->Arg(0)->Arg(100);

}  // namespace
