// Regenerates Figure 3: the Abilene topology. Prints the adjacency with
// link latencies and emits Graphviz DOT (pass a path to write it; render
// with `neato -Tpng`).
#include <fstream>
#include <iostream>

#include "bench_util.hpp"
#include "ccnopt/common/args.hpp"
#include "ccnopt/common/strings.hpp"
#include "ccnopt/common/table.hpp"
#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/io.hpp"

int main(int argc, char** argv) {
  using namespace ccnopt;
  ArgReader args(argc, argv);
  const std::string dot_path = args.text_at(0, "");
  if (!args.finish(1)) return 2;
  bench::BenchReporter reporter("fig3_abilene");
  const topology::Graph g = topology::abilene();
  std::cout << "=== Figure 3: the Abilene network (" << g.node_count()
            << " nodes, " << g.directed_edge_count()
            << " directed edges) ===\n\n";
  TextTable table({"link", "latency ms"});
  for (const topology::Graph::Link& link : g.links()) {
    table.add_row({g.node(link.u).name + " -- " + g.node(link.v).name,
                   format_double(link.latency_ms, 2)});
  }
  table.print(std::cout);
  if (!dot_path.empty()) {
    std::ofstream out(dot_path);
    if (!out) {
      std::cerr << "cannot open " << dot_path << "\n";
      return reporter.finish(1);
    }
    topology::write_dot(g, out);
    std::cout << "\nDOT written to " << dot_path
              << " (render: neato -Tpng)\n";
  }
  return reporter.finish();
}
