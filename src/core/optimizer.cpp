#include "src/core/optimizer.hpp"

#include <cmath>
#include <limits>

#include "src/core/sweep.hpp"
#include "src/obs/trace.hpp"
#include "src/util/contracts.hpp"

namespace nvp::core {

Optimum maximize_reliability(
    const ReliabilityAnalyzer& analyzer, const SystemParameters& base,
    const std::function<void(SystemParameters&, double)>& setter, double lo,
    double hi, std::size_t grid_points, double tolerance,
    const fault::Policy& policy) {
  NVP_EXPECTS(hi > lo);
  NVP_EXPECTS(grid_points >= 3);
  NVP_EXPECTS(tolerance > 0.0);
  const obs::ScopedSpan span("core.optimize");
  constexpr double kFailed = -std::numeric_limits<double>::infinity();
  // A failed evaluation scores -inf, so the search never selects it.
  const auto score = [](const PointResult& point) {
    return point.ok ? point.expected_reliability : kFailed;
  };

  // Coarse grid to bracket the global maximum, as one batch.
  const double step =
      (hi - lo) / static_cast<double>(grid_points - 1);
  std::vector<SystemParameters> grid(grid_points, base);
  for (std::size_t i = 0; i < grid_points; ++i)
    setter(grid[i], lo + step * static_cast<double>(i));
  const std::vector<PointResult> grid_f =
      analyze_points(analyzer, grid, policy);
  std::size_t evals = grid_points;
  double best_x = lo, best_f = score(grid_f[0]);
  for (std::size_t i = 1; i < grid_points; ++i) {
    if (score(grid_f[i]) > best_f) {
      best_f = score(grid_f[i]);
      best_x = lo + step * static_cast<double>(i);
    }
  }
  if (best_f == kFailed) {
    fault::Context context;
    context.site = "core.optimize";
    throw fault::Error(fault::Category::kNoConvergence,
                       "maximize_reliability: every grid evaluation failed",
                       std::move(context));
  }
  double a = std::max(lo, best_x - step);
  double b = std::min(hi, best_x + step);

  // Golden-section refinement inside the bracket. Its steps are
  // sequential: one single-point batch each.
  auto f = [&](double x) {
    SystemParameters params = base;
    setter(params, x);
    ++evals;
    return score(analyze_points(analyzer, {params}, policy)[0]);
  };
  constexpr double kInvPhi = 0.6180339887498949;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  while (b - a > tolerance) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    }
  }
  const double xm = (a + b) / 2.0;
  const double fm = f(xm);
  Optimum out;
  out.x = fm >= best_f ? xm : best_x;
  out.expected_reliability = std::max(fm, best_f);
  out.evaluations = evals;
  return out;
}

Optimum optimize_rejuvenation_interval(const ReliabilityAnalyzer& analyzer,
                                       const SystemParameters& base,
                                       double lo, double hi,
                                       std::size_t grid_points,
                                       double tolerance,
                                       const fault::Policy& policy) {
  NVP_EXPECTS_MSG(base.rejuvenation,
                  "optimizing the interval needs a rejuvenating model");
  return maximize_reliability(
      analyzer, base,
      [](SystemParameters& p, double v) { p.rejuvenation_interval = v; },
      lo, hi, grid_points, tolerance, policy);
}

}  // namespace nvp::core
