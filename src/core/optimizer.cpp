#include "src/core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/core/sweep.hpp"
#include "src/obs/trace.hpp"
#include "src/util/contracts.hpp"

namespace nvp::core {

namespace {

constexpr double kFailed = -std::numeric_limits<double>::infinity();

/// Ratio of the warm bracket's lattice lo·r^i, a measured constant. On
/// `nvpcli monitor --paper 6v --jobs 4` (78 re-solves; Release, 4 cores,
/// best of 5) ratio 1.5 took 168 ms and 189 solves, ratio 2 175 ms and 203
/// solves, the grid with no start 254 ms, and a trio centred on the raw
/// last-good interval 315 ms: that trio is new on every re-solve, so the
/// rewards cache stops answering. Over 14 sessions (step, ramp and sinusoid
/// drifts; seeds 1, 3-5, 7 and 2024; best of 3) ratio 1.5 took 1.74 s in
/// total, ratio 2 1.92 s (slower on 13 of 14) and ratio 1.3 1.71 s, but
/// 1.3 was the slowest on the 20000 s step session (57 ms against 46): the
/// coarser lattice walks fewer points after a large drift.
constexpr double kWarmLatticeRatio = 1.5;

/// One evaluated point; f is -inf where the analysis failed.
struct Probe {
  double x = 0.0;
  double f = kFailed;
};

/// An interval [a, b] holding the maximizer, its best evaluated point x,
/// and the points beside x: w the better, v the worse (w = v when x is an
/// end point and has one neighbour).
struct Bracket {
  double a = 0.0;
  double b = 0.0;
  Probe x, w, v;
};

/// The bracket between the neighbours of `points[k]` (sorted by x).
Bracket around(const std::vector<Probe>& points, std::size_t k) {
  const Probe& left = points[k == 0 ? 0 : k - 1];
  const Probe& right = points[std::min(k + 1, points.size() - 1)];
  Bracket bracket{left.x, right.x, points[k], left, right};
  if (k == 0) bracket.w = bracket.v = right;
  if (k + 1 == points.size()) bracket.w = bracket.v = left;
  if (bracket.v.f > bracket.w.f) std::swap(bracket.w, bracket.v);
  return bracket;
}

/// Evaluates points through analyze_points, one batch per call, counting
/// every evaluation.
class Objective {
 public:
  Objective(const ReliabilityAnalyzer& analyzer, const SystemParameters& base,
            const std::function<void(SystemParameters&, double)>& setter,
            const fault::Policy& policy)
      : analyzer_(analyzer), base_(base), setter_(setter), policy_(policy) {}

  std::vector<Probe> batch(const std::vector<double>& xs) {
    std::vector<SystemParameters> points(xs.size(), base_);
    for (std::size_t i = 0; i < xs.size(); ++i) setter_(points[i], xs[i]);
    const std::vector<PointResult> results =
        analyze_points(analyzer_, points, policy_);
    evaluations_ += xs.size();
    std::vector<Probe> out(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      out[i] = {xs[i], results[i].ok ? results[i].expected_reliability
                                     : kFailed};
      if (!results[i].ok && failed_++ == 0) error_ = results[i].error;
    }
    return out;
  }
  Probe at(double x) { return batch({x})[0]; }
  std::size_t evaluations() const { return evaluations_; }
  std::size_t failed() const { return failed_; }
  const fault::ErrorInfo& error() const { return error_; }

 private:
  const ReliabilityAnalyzer& analyzer_;
  const SystemParameters& base_;
  const std::function<void(SystemParameters&, double)>& setter_;
  const fault::Policy& policy_;
  std::size_t evaluations_ = 0;
  std::size_t failed_ = 0;
  fault::ErrorInfo error_;
};

/// The cold bracket: a `grid_points` grid over [lo, hi] as one batch.
Bracket grid_bracket(Objective& objective, double lo, double hi,
                     std::size_t grid_points) {
  const double step = (hi - lo) / static_cast<double>(grid_points - 1);
  std::vector<double> xs(grid_points);
  for (std::size_t i = 0; i < grid_points; ++i)
    xs[i] = lo + step * static_cast<double>(i);
  xs.back() = hi;
  const std::vector<Probe> grid = objective.batch(xs);
  std::size_t best = 0;
  for (std::size_t i = 1; i < grid.size(); ++i)
    if (grid[i].f > grid[best].f) best = i;
  if (grid[best].f == kFailed) {
    fault::Context context;
    context.site = "core.optimize";
    throw fault::Error(fault::Category::kNoConvergence,
                       "maximize_reliability: every grid evaluation failed",
                       std::move(context));
  }
  return around(grid, best);
}

/// The warm bracket on the lattice lo·r^i ∪ {hi} around `start`; nullopt
/// when the search must fall back to the grid (a point failed, the trio is
/// not unimodal, or the lattice has fewer than three points).
std::optional<Bracket> warm_bracket(Objective& objective, double lo,
                                    double hi, double start) {
  std::vector<double> lattice;
  for (double p = lo; p < hi; p *= kWarmLatticeRatio) lattice.push_back(p);
  lattice.push_back(hi);
  if (lattice.size() < 3) return std::nullopt;
  std::size_t nearest = 0;
  for (std::size_t i = 1; i < lattice.size(); ++i)
    if (std::abs(std::log(lattice[i] / start)) <
        std::abs(std::log(lattice[nearest] / start)))
      nearest = i;
  // first = lattice index of the trio's left point.
  std::size_t first =
      std::clamp<std::size_t>(nearest, 1, lattice.size() - 2) - 1;
  std::vector<Probe> trio = objective.batch(
      {lattice[first], lattice[first + 1], lattice[first + 2]});
  for (;;) {
    for (const Probe& p : trio)
      if (p.f == kFailed) return std::nullopt;
    const Probe &left = trio[0], &mid = trio[1], &right = trio[2];
    if (mid.f < left.f && mid.f < right.f) return std::nullopt;
    if (mid.f >= left.f && mid.f >= right.f) return around(trio, 1);
    const bool rightward = right.f > mid.f;
    const bool at_end =
        rightward ? first + 3 == lattice.size() : first == 0;
    if (at_end) return rightward ? around(trio, 2) : around(trio, 0);
    if (rightward) {
      ++first;
      trio = {mid, right, objective.at(lattice[first + 2])};
    } else {
      --first;
      trio = {objective.at(lattice[first]), left, mid};
    }
  }
}

/// Brent's method on `bracket` (maximizing); see maximize_reliability for
/// the step and stop rules.
Probe brent(Objective& objective, Bracket bracket, double tolerance) {
  constexpr double kGolden = 0.3819660112501051;  // (3 - sqrt 5) / 2
  const double min_step = tolerance / 4.0;
  double a = bracket.a, b = bracket.b;
  Probe x = bracket.x, w = bracket.w, v = bracket.v;
  // d is the last step, e the one before; the bracket width stands in for
  // both before the first step, so that step may already be parabolic.
  double d = b - a, e = b - a;
  while (std::max(x.x - a, b - x.x) > 2.0 * min_step) {
    const double mid = 0.5 * (a + b);
    bool parabolic = false;
    if (std::isfinite(x.f) && std::isfinite(w.f) && std::isfinite(v.f)) {
      // The parabola through x, w, v has its vertex at x - p/q, and
      // q = 2c(x - v)(x - w)(w - v) for its leading coefficient c; after
      // the sign flip below the step to the vertex is p/q with q >= 0.
      const double r = (x.x - w.x) * (x.f - v.f);
      const double s = (x.x - v.x) * (x.f - w.f);
      double p = (x.x - v.x) * s - (x.x - w.x) * r;
      double q = 2.0 * (s - r);
      const bool opens_down =
          q * (x.x - v.x) * (x.x - w.x) * (w.x - v.x) < 0.0;
      if (q > 0.0) p = -p;
      q = std::abs(q);
      if (opens_down && std::abs(p) < std::abs(0.5 * q * e) &&
          p > q * (a - x.x) && p < q * (b - x.x)) {
        parabolic = true;
        e = d;
        d = p / q;
        // A vertex next to an end of the bracket: a minimal step toward
        // the middle instead.
        const double u = x.x + d;
        if (u - a < 2.0 * min_step || b - u < 2.0 * min_step)
          d = mid >= x.x ? min_step : -min_step;
      }
    }
    if (!parabolic) {
      e = x.x >= mid ? a - x.x : b - x.x;
      d = kGolden * e;
    }
    const Probe u = objective.at(
        x.x + (std::abs(d) >= min_step ? d : std::copysign(min_step, d)));
    if (u.f >= x.f) {
      if (u.x >= x.x) a = x.x; else b = x.x;
      v = w;
      w = x;
      x = u;
    } else {
      if (u.x < x.x) a = u.x; else b = u.x;
      if (u.f >= w.f || w.x == x.x) {
        v = w;
        w = u;
      } else if (u.f >= v.f || v.x == x.x || v.x == w.x) {
        v = u;
      }
    }
  }
  return x;
}

}  // namespace

Optimum maximize_reliability(
    const ReliabilityAnalyzer& analyzer, const SystemParameters& base,
    const std::function<void(SystemParameters&, double)>& setter, double lo,
    double hi, std::size_t grid_points, double tolerance,
    const fault::Policy& policy, std::optional<double> start) {
  NVP_EXPECTS(hi > lo);
  NVP_EXPECTS(grid_points >= 3);
  NVP_EXPECTS(tolerance > 0.0);
  NVP_EXPECTS_MSG(!start || (lo > 0.0 && *start > 0.0),
                  "a warm start needs a positive range and start");
  const obs::ScopedSpan span("core.optimize");
  Objective objective(analyzer, base, setter, policy);
  std::optional<Bracket> bracket;
  if (start) bracket = warm_bracket(objective, lo, hi, *start);
  if (!bracket) bracket = grid_bracket(objective, lo, hi, grid_points);
  const Probe best = brent(objective, *bracket, tolerance);
  Optimum out;
  out.x = best.x;
  out.expected_reliability = best.f;
  out.evaluations = objective.evaluations();
  out.failed = objective.failed();
  out.error = objective.error();
  return out;
}

Optimum optimize_rejuvenation_interval(const ReliabilityAnalyzer& analyzer,
                                       const SystemParameters& base,
                                       double lo, double hi,
                                       std::size_t grid_points,
                                       double tolerance,
                                       const fault::Policy& policy,
                                       std::optional<double> start) {
  NVP_EXPECTS_MSG(base.rejuvenation,
                  "optimizing the interval needs a rejuvenating model");
  return maximize_reliability(
      analyzer, base,
      [](SystemParameters& p, double v) { p.rejuvenation_interval = v; },
      lo, hi, grid_points, tolerance, policy, start);
}

}  // namespace nvp::core
