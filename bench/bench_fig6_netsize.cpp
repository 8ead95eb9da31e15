// Regenerates Figure 6: optimal strategy l* vs the network size n.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace ccnopt;
  const auto base = model::SystemParams::paper_defaults();
  bench::print_params_banner(base, "Figure 6: l* vs n",
                             "n in [10,500], alpha in {0.2..1.0}");
  bench::BenchReporter reporter("fig6_netsize");
  const auto data = experiments::sweep_vs_routers(base);
  return bench::run_figure_bench(reporter, data,
                                 experiments::Metric::kEllStar, argc, argv);
}
