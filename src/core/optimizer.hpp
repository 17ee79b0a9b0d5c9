#pragma once

#include <functional>

#include "src/core/analyzer.hpp"
#include "src/core/params.hpp"
#include "src/fault/error.hpp"

namespace nvp::core {

/// Result of a one-dimensional reliability maximization.
struct Optimum {
  double x = 0.0;
  double expected_reliability = 0.0;
  std::size_t evaluations = 0;
};

/// Finds the rejuvenation interval 1/gamma in [lo, hi] that maximizes
/// E[R_sys] (the knee of the paper's Fig. 3) with maximize_reliability's
/// grid + golden-section search. Engine::optimize_rejuvenation_interval
/// holds the library's default grid and tolerance.
Optimum optimize_rejuvenation_interval(const ReliabilityAnalyzer& analyzer,
                                       const SystemParameters& base,
                                       double lo, double hi,
                                       std::size_t grid_points,
                                       double tolerance,
                                       const fault::Policy& policy = {});

/// Maximizes E[R_sys] over one parameter in [lo, hi]: a `grid_points` grid,
/// evaluated as one analyze_points batch, locates the best bracket (robust
/// even if the curve is only piecewise unimodal), then golden-section
/// search refines it to `tolerance`, one single-point batch per step.
/// Unless `policy.strict`, a failed evaluation scores -inf (the optimum is
/// found among the points that did solve); if every grid point fails,
/// throws fault::Error.
Optimum maximize_reliability(const ReliabilityAnalyzer& analyzer,
                             const SystemParameters& base,
                             const std::function<void(SystemParameters&,
                                                      double)>& setter,
                             double lo, double hi, std::size_t grid_points,
                             double tolerance,
                             const fault::Policy& policy = {});

}  // namespace nvp::core
