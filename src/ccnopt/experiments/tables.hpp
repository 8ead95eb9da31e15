// Tables II and III: the four evaluation topologies' structural statistics
// and derived model parameters.
#pragma once

#include <vector>

#include "ccnopt/topology/params.hpp"

namespace ccnopt::experiments {

/// One row per dataset in Table II order (Abilene, CERNET, GEANT, US-A).
std::vector<topology::TopologyParameters> table3_rows();

/// The paper's published Table III values, for paper-vs-measured reporting.
struct PaperTable3Row {
  const char* name;
  double n;
  double w_ms;
  double d1_minus_d0_ms;
  double d1_minus_d0_hops;
};
std::vector<PaperTable3Row> paper_table3();

}  // namespace ccnopt::experiments
