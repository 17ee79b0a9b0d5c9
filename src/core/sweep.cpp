#include "src/core/sweep.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/util/contracts.hpp"

namespace nvp::core {

namespace {

/// `base` with each of `values` applied through `setter`.
std::vector<SystemParameters> points_at(const SystemParameters& base,
                                        const ParameterSetter& setter,
                                        const std::vector<double>& values) {
  std::vector<SystemParameters> points(values.size(), base);
  for (std::size_t i = 0; i < values.size(); ++i) setter(points[i], values[i]);
  return points;
}

}  // namespace

std::vector<PointResult> analyze_points(
    const ReliabilityAnalyzer& analyzer,
    const std::vector<SystemParameters>& points, const fault::Policy& policy) {
  static obs::Counter& degraded =
      obs::Registry::global().counter("fault.degraded_points");
  std::vector<PointResult> out(points.size());
  std::vector<char> done(points.size(), 0);
  const auto degrade = [&](std::size_t i, fault::ErrorInfo info) {
    out[i].ok = false;
    out[i].tangible_states = info.states;
    out[i].error = std::move(info);
    degraded.add();
  };
  const auto run = [&](std::size_t i) {
    try {
      const AnalysisResult analysis = analyzer.analyze(points[i]);
      out[i].expected_reliability = analysis.expected_reliability;
      out[i].tangible_states = analysis.tangible_states;
    } catch (const std::exception&) {
      if (policy.strict) throw;
      degrade(i, fault::ErrorInfo::from_current_exception());
    }
    done[i] = 1;
  };
  if (points.empty()) return out;
  // Point 0 on the caller: it builds the staged structure/rates artifacts
  // the other points share (a batch usually varies one parameter), instead
  // of every worker racing to build them.
  run(0);
  if (points.size() == 1) return out;
  try {
    runtime::parallel_for(points.size() - 1,
                          [&](std::size_t i) { run(i + 1); });
  } catch (const std::exception&) {
    // Only the pool itself throws past run's guard (e.g. an injected
    // task-dispatch fault): degrade the points it never started.
    if (policy.strict) throw;
    const fault::ErrorInfo info = fault::ErrorInfo::from_current_exception();
    for (std::size_t i = 1; i < points.size(); ++i)
      if (!done[i]) degrade(i, info);
  }
  return out;
}

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
  std::vector<PointResult> results =
      analyze_points(analyzer, points_at(base, setter, values), policy);
  std::vector<SweepPoint> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    out[i] = {values[i], results[i].expected_reliability, results[i].ok,
              std::move(results[i].error)};
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
  const auto curve = [&](const SystemParameters& config,
                         const std::vector<double>& xs) {
    return analyze_points(analyzer, points_at(config, setter, xs), policy);
  };
  // f(a) - f(b) at each of `xs`, NaN where either side failed: NaN masks
  // the adjacent grid intervals and abandons an in-flight bisection.
  const auto differences = [&](const std::vector<double>& xs) {
    const std::vector<PointResult> a = curve(config_a, xs);
    const std::vector<PointResult> b = curve(config_b, xs);
    std::vector<double> d(xs.size(), std::numeric_limits<double>::quiet_NaN());
    for (std::size_t i = 0; i < xs.size(); ++i)
      if (a[i].ok && b[i].ok)
        d[i] = a[i].expected_reliability - b[i].expected_reliability;
    return d;
  };
  const std::vector<double> grid_diff = differences(values);
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
        const double dm = differences({mid})[0];
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
        const PointResult at = curve(config_a, {xc})[0];
        if (at.ok) out.push_back({xc, at.expected_reliability});
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

std::string sweepable_names() {
  std::string names;
  for (const ParameterField& field : parameter_fields())
    if (field.system != nullptr)
      names += std::string(names.empty() ? "" : "|") + field.name;
  return names;
}

ParameterSetter set_mean_time_to_compromise() { return setter_for("mttc"); }
ParameterSetter set_alpha() { return setter_for("alpha"); }
ParameterSetter set_p() { return setter_for("p"); }
ParameterSetter set_p_prime() { return setter_for("p-prime"); }
ParameterSetter set_rejuvenation_interval() { return setter_for("interval"); }

}  // namespace nvp::core
