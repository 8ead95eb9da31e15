#include "ccnopt/experiments/figures.hpp"

#include "ccnopt/common/assert.hpp"
#include "ccnopt/common/strings.hpp"

namespace ccnopt::experiments {
namespace {

std::string series_label(const char* name, double value, int precision) {
  return std::string(name) + "=" + ccnopt::format_double(value, precision);
}

}  // namespace

const char* to_string(Metric metric) {
  switch (metric) {
    case Metric::kEllStar:
      return "ell_star";
    case Metric::kOriginGain:
      return "G_O";
    case Metric::kRoutingGain:
      return "G_R";
  }
  return "unknown";
}

double metric_value(const model::SweepPoint& point, Metric metric) {
  switch (metric) {
    case Metric::kEllStar:
      return point.ell_star;
    case Metric::kOriginGain:
      return point.origin_load_reduction;
    case Metric::kRoutingGain:
      return point.routing_improvement;
  }
  CCNOPT_ASSERT(false);
  return 0.0;
}

std::vector<double> alpha_grid(int points) {
  // Open at 0: Lemma 2 needs alpha > 0, and alpha = 0 is trivially l* = 0.
  return model::linspace(0.02, 1.0, points);
}

std::vector<double> zipf_grid(int points_per_side) {
  std::vector<double> grid = model::linspace(0.1, 0.98, points_per_side);
  const std::vector<double> upper =
      model::linspace(1.02, 1.9, points_per_side);
  grid.insert(grid.end(), upper.begin(), upper.end());
  return grid;
}

std::vector<double> router_grid() {
  std::vector<double> grid;
  for (double n = 10.0; n <= 500.0; n += 10.0) grid.push_back(n);
  return grid;
}

std::vector<double> unit_cost_grid(int points) {
  return model::linspace(10.0, 100.0, points);
}

std::vector<double> gamma_series_values() { return {2.0, 4.0, 6.0, 8.0, 10.0}; }

std::vector<double> alpha_series_values() {
  return {0.2, 0.4, 0.6, 0.8, 1.0};
}

FigureData sweep_vs_alpha(const model::SystemParams& base) {
  FigureData data{"fig4+8+12",
                  "optimal strategy and gains vs trade-off weight alpha",
                  "alpha",
                  {}};
  for (const double gamma : gamma_series_values()) {
    const auto points = model::sweep(model::with_gamma(base, gamma),
                                     model::SweepParameter::kAlpha,
                                     alpha_grid());
    CCNOPT_ASSERT(points.has_value());
    data.series.push_back(Series{series_label("gamma", gamma, 0), *points});
  }
  return data;
}

FigureData sweep_vs_zipf(const model::SystemParams& base) {
  FigureData data{"fig5+9+13",
                  "optimal strategy and gains vs Zipf exponent s",
                  "s",
                  {}};
  for (const double alpha : alpha_series_values()) {
    const auto points = model::sweep(model::with_alpha(base, alpha),
                                     model::SweepParameter::kZipf,
                                     zipf_grid());
    CCNOPT_ASSERT(points.has_value());
    data.series.push_back(Series{series_label("alpha", alpha, 1), *points});
  }
  return data;
}

FigureData sweep_vs_routers(const model::SystemParams& base) {
  FigureData data{"fig6+10",
                  "optimal strategy and gains vs network size n",
                  "n",
                  {}};
  for (const double alpha : alpha_series_values()) {
    const auto points = model::sweep(model::with_alpha(base, alpha),
                                     model::SweepParameter::kRouters,
                                     router_grid());
    CCNOPT_ASSERT(points.has_value());
    data.series.push_back(Series{series_label("alpha", alpha, 1), *points});
  }
  return data;
}

FigureData sweep_vs_unit_cost(const model::SystemParams& base) {
  FigureData data{"fig7+11",
                  "optimal strategy and gains vs unit coordination cost w",
                  "w_ms",
                  {}};
  for (const double alpha : alpha_series_values()) {
    const auto points = model::sweep(model::with_alpha(base, alpha),
                                     model::SweepParameter::kUnitCost,
                                     unit_cost_grid());
    CCNOPT_ASSERT(points.has_value());
    data.series.push_back(Series{series_label("alpha", alpha, 1), *points});
  }
  return data;
}

}  // namespace ccnopt::experiments
