#include "ccnopt/experiments/tables.hpp"

#include "ccnopt/topology/datasets.hpp"

namespace ccnopt::experiments {

std::vector<topology::TopologyParameters> table3_rows() {
  std::vector<topology::TopologyParameters> rows;
  for (const topology::Graph& g : topology::all_datasets()) {
    rows.push_back(topology::derive_parameters(g));
  }
  return rows;
}

std::vector<PaperTable3Row> paper_table3() {
  return {
      {"Abilene", 11, 22.3, 14.3, 2.4182},
      {"CERNET", 36, 33.3, 16.2, 2.8238},
      {"GEANT", 23, 27.8, 16.0, 2.6008},
      {"US-A", 20, 26.7, 15.7, 2.2842},
  };
}

}  // namespace ccnopt::experiments
