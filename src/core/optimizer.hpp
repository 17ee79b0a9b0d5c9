#pragma once

#include <functional>
#include <optional>

#include "src/core/analyzer.hpp"
#include "src/core/params.hpp"
#include "src/fault/error.hpp"

namespace nvp::core {

/// Result of a one-dimensional reliability maximization.
struct Optimum {
  double x = 0.0;
  double expected_reliability = 0.0;
  /// Every analysis the search asked for: grid or warm-bracket points plus
  /// the Brent steps.
  std::size_t evaluations = 0;
  /// The evaluations that degraded into an error envelope (scored -inf),
  /// and the first of their errors.
  std::size_t failed = 0;
  fault::ErrorInfo error;
};

/// Finds the rejuvenation interval 1/gamma in [lo, hi] that maximizes
/// E[R_sys] (the knee of the paper's Fig. 3) with maximize_reliability's
/// bracket + Brent search; `start` selects its warm bracket.
/// Engine::optimize_rejuvenation_interval holds the library's default grid
/// and tolerance.
Optimum optimize_rejuvenation_interval(
    const ReliabilityAnalyzer& analyzer, const SystemParameters& base,
    double lo, double hi, std::size_t grid_points, double tolerance,
    const fault::Policy& policy = {},
    std::optional<double> start = std::nullopt);

/// Maximizes E[R_sys] over one parameter in [lo, hi] in two phases.
///
/// Bracket. Cold (no `start`): a `grid_points` grid, evaluated as one
/// analyze_points batch, brackets the global maximum between the best grid
/// point's two neighbours (robust even if the curve is only piecewise
/// unimodal). Warm (`start`, e.g. a monitor's last-good optimum; needs
/// lo > 0): the points lo·1.5^i below hi, plus hi, form a fixed lattice. The
/// lattice point nearest `start` in log distance and its two neighbours are
/// one 3-point batch; while an end point of the trio wins, the trio steps
/// one lattice point outward (a one-point batch). A win at lo or hi
/// brackets [lo, next] or [prev, hi]. The warm phase falls back to the cold
/// grid when any of its points fails or the trio's middle point is the
/// lowest (the trio is not unimodal). Because the lattice is fixed, nearby
/// starts ask the same questions and the rewards cache answers repeats.
///
/// Refinement: Brent's method on the bracket, started from its best point
/// and the two points beside it, whose values the bracket phase already
/// knows. A step goes to the vertex of the parabola through the three best
/// points when that parabola opens downward, its vertex lies inside the
/// bracket, and the step is under half the step before last; otherwise it
/// is a golden-section step into the larger side. A failed (-inf) value
/// always forces the golden step. Every step is a one-point batch in a
/// fixed order, so the result does not depend on the job count.
///
/// Stop rule: the bracket [a, b] always holds the maximizer of the
/// bracketed curve and x is the best point evaluated; the search stops once
/// max(x - a, b - x) <= tolerance / 2, so the returned x is within
/// tolerance / 2 of that maximizer when the curve is unimodal on the
/// bracket. Steps closer than tolerance / 4 to x are pushed out to it.
///
/// Unless `policy.strict`, a failed evaluation scores -inf (the optimum is
/// found among the points that did solve); if every grid point fails,
/// throws fault::Error.
Optimum maximize_reliability(const ReliabilityAnalyzer& analyzer,
                             const SystemParameters& base,
                             const std::function<void(SystemParameters&,
                                                      double)>& setter,
                             double lo, double hi, std::size_t grid_points,
                             double tolerance,
                             const fault::Policy& policy = {},
                             std::optional<double> start = std::nullopt);

}  // namespace nvp::core
