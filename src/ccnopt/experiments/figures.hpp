// The parameter sweeps behind the paper's Figures 4-13 (Table IV rows).
//
// Each sweep returns every metric at once (l*, G_O, G_R), so one sweep
// feeds three figures: the alpha sweep produces Figures 4, 8 and 12; the
// Zipf sweep Figures 5, 9 and 13; the network-size sweep Figures 6 and 10;
// the unit-cost sweep Figures 7 and 11.
#pragma once

#include <string>
#include <vector>

#include "ccnopt/model/sensitivity.hpp"

namespace ccnopt::experiments {

struct Series {
  std::string label;  // e.g. "gamma=4" or "alpha=0.6"
  std::vector<model::SweepPoint> points;
};

struct FigureData {
  std::string id;       // "fig4+8+12"
  std::string title;
  std::string x_label;  // the swept parameter
  std::vector<Series> series;
};

/// Which metric of the sweep a figure plots.
enum class Metric { kEllStar, kOriginGain, kRoutingGain };

const char* to_string(Metric metric);
double metric_value(const model::SweepPoint& point, Metric metric);

/// Table IV grids.
std::vector<double> alpha_grid(int points = 50);       // (0, 1]
std::vector<double> zipf_grid(int points_per_side = 25);  // [0.1,1) U (1,1.9]
std::vector<double> router_grid();                     // 10 .. 500
std::vector<double> unit_cost_grid(int points = 46);   // 10 .. 100
std::vector<double> gamma_series_values();             // {2,4,6,8,10}
std::vector<double> alpha_series_values();             // {0.2,...,1.0}

/// Each series is one serial model::sweep: a whole figure's grid solves in
/// about a millisecond, too little work for threads to pay for.

/// Figures 4/8/12: sweep alpha, one series per gamma in {2,4,6,8,10};
/// s = 0.8, n = 20 (Table IV row 1).
FigureData sweep_vs_alpha(const model::SystemParams& base);

/// Figures 5/9/13: sweep s over [0.1,1) U (1,1.9], one series per alpha in
/// {0.2,...,1.0}; gamma = 5, n = 20 (Table IV row 2).
FigureData sweep_vs_zipf(const model::SystemParams& base);

/// Figures 6/10: sweep n over [10, 500], one series per alpha (row 4).
FigureData sweep_vs_routers(const model::SystemParams& base);

/// Figures 7/11: sweep w over [10, 100] ms, one series per alpha (row 3).
FigureData sweep_vs_unit_cost(const model::SystemParams& base);

}  // namespace ccnopt::experiments
