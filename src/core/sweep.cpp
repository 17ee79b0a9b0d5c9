#include "src/core/sweep.hpp"

#include <cmath>
#include <limits>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/util/contracts.hpp"

namespace nvp::core {

namespace {

obs::Counter& degraded_points() {
  static obs::Counter& counter =
      obs::Registry::global().counter("fault.degraded_points");
  return counter;
}

}  // namespace

std::vector<double> linspace(double lo, double hi, std::size_t count) {
  NVP_EXPECTS(count >= 2);
  NVP_EXPECTS(hi >= lo);
  std::vector<double> out(count);
  for (std::size_t i = 0; i < count; ++i)
    out[i] = lo + (hi - lo) * static_cast<double>(i) /
                      static_cast<double>(count - 1);
  return out;
}

std::vector<SweepPoint> sweep_parameter(const ReliabilityAnalyzer& analyzer,
                                        const SystemParameters& base,
                                        const ParameterSetter& setter,
                                        const std::vector<double>& values,
                                        const fault::Policy& policy) {
  NVP_EXPECTS(setter != nullptr);
  const obs::ScopedSpan span("core.sweep");
  if (values.empty()) return {};
  auto eval = [&](double v) {
    SweepPoint point;
    point.x = v;
    try {
      SystemParameters params = base;
      setter(params, v);
      point.expected_reliability = analyzer.analyze(params).expected_reliability;
    } catch (const std::exception&) {
      if (policy.strict) throw;
      point.ok = false;
      point.error = fault::ErrorInfo::from_current_exception();
      degraded_points().add();
    }
    return point;
  };
  // Evaluate the first point serially: it populates the staged
  // structure/rates caches the remaining points share (a sweep varies one
  // parameter, so every point reuses at least the structure stage), instead
  // of every worker racing to build the same artifacts. The fan-out assigns
  // by index, so the output is identical to the serial loop for any job
  // count.
  std::vector<SweepPoint> out(values.size());
  std::vector<char> done(values.size(), 0);
  const auto run = [&](std::size_t i) {
    out[i] = eval(values[i]);
    done[i] = 1;
  };
  run(0);
  try {
    runtime::parallel_for(values.size() - 1,
                          [&](std::size_t i) { run(i + 1); });
  } catch (const std::exception&) {
    // Failures outside eval's guard (e.g. injected task-dispatch faults in
    // the pool itself) leave whole points unevaluated; degrade those into
    // envelopes rather than dropping the completed ones.
    if (policy.strict) throw;
    const fault::ErrorInfo info = fault::ErrorInfo::from_current_exception();
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (done[i]) continue;
      out[i].x = values[i];
      out[i].ok = false;
      out[i].error = info;
      degraded_points().add();
    }
  }
  return out;
}

std::vector<Crossover> find_crossovers(const ReliabilityAnalyzer& analyzer,
                                       const SystemParameters& config_a,
                                       const SystemParameters& config_b,
                                       const ParameterSetter& setter,
                                       const std::vector<double>& values,
                                       double tolerance,
                                       const fault::Policy& policy) {
  NVP_EXPECTS(values.size() >= 2);
  NVP_EXPECTS(tolerance > 0.0);
  const obs::ScopedSpan span("core.crossovers");
  constexpr double kFailed = std::numeric_limits<double>::quiet_NaN();
  auto diff = [&](double x) {
    SystemParameters a = config_a, b = config_b;
    setter(a, x);
    setter(b, x);
    return analyzer.analyze(a).expected_reliability -
           analyzer.analyze(b).expected_reliability;
  };
  // Degradation: a failed evaluation yields NaN, which masks the adjacent
  // intervals (and abandons an in-flight bisection) instead of aborting.
  auto safe_diff = [&](double x) {
    if (policy.strict) return diff(x);
    try {
      return diff(x);
    } catch (const std::exception&) {
      degraded_points().add();
      return kFailed;
    }
  };
  // Scan phase: every grid point is independent, so evaluate the curve
  // difference in parallel after one serial point warms the staged
  // structure/rates caches both configurations share; the bisection
  // refinements below re-evaluate through the analyzer's memoization cache.
  std::vector<double> grid_diff(values.size(), kFailed);
  grid_diff[0] = safe_diff(values[0]);
  try {
    runtime::parallel_for(values.size() - 1, [&](std::size_t i) {
      grid_diff[i + 1] = safe_diff(values[i + 1]);
    });
  } catch (const std::exception&) {
    if (policy.strict) throw;
    // Pool-level failure: unevaluated entries keep their NaN marker.
    degraded_points().add();
  }
  std::vector<Crossover> out;
  double prev_x = values[0];
  double prev_d = grid_diff[0];
  for (std::size_t i = 1; i < values.size(); ++i) {
    const double x = values[i];
    const double d = grid_diff[i];
    if (std::isfinite(prev_d) && std::isfinite(d) &&
        (prev_d < 0.0) != (d < 0.0) && prev_d != 0.0) {
      double lo = prev_x, hi = x, dlo = prev_d;
      bool abandoned = false;
      while (hi - lo > tolerance) {
        const double mid = (lo + hi) / 2.0;
        const double dm = safe_diff(mid);
        if (!std::isfinite(dm)) {
          abandoned = true;
          break;
        }
        if ((dm < 0.0) == (dlo < 0.0)) {
          lo = mid;
          dlo = dm;
        } else {
          hi = mid;
        }
      }
      if (!abandoned) {
        const double xc = (lo + hi) / 2.0;
        SystemParameters a = config_a;
        setter(a, xc);
        try {
          out.push_back({xc, analyzer.analyze(a).expected_reliability});
        } catch (const std::exception&) {
          if (policy.strict) throw;
          degraded_points().add();
        }
      }
    }
    prev_x = x;
    prev_d = d;
  }
  return out;
}

ParameterSetter setter_for(std::string_view name) {
  const ParameterField* field = find_parameter_field(name);
  if (field == nullptr || field->system == nullptr) return nullptr;
  return [member = field->system](SystemParameters& p, double v) {
    p.*member = v;
  };
}

ParameterSetter set_mean_time_to_compromise() {
  return [](SystemParameters& p, double v) { p.mean_time_to_compromise = v; };
}

ParameterSetter set_alpha() {
  return [](SystemParameters& p, double v) { p.alpha = v; };
}

ParameterSetter set_p() {
  return [](SystemParameters& p, double v) { p.p = v; };
}

ParameterSetter set_p_prime() {
  return [](SystemParameters& p, double v) { p.p_prime = v; };
}

ParameterSetter set_rejuvenation_interval() {
  return [](SystemParameters& p, double v) { p.rejuvenation_interval = v; };
}

}  // namespace nvp::core
