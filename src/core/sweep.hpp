#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/analyzer.hpp"
#include "src/core/params.hpp"
#include "src/fault/error.hpp"

namespace nvp::core {

/// One point of a sensitivity sweep. A point whose solve failed under
/// graceful degradation carries `ok = false` plus the error envelope
/// instead of aborting the whole sweep; `expected_reliability` is then
/// meaningless (left at 0).
struct SweepPoint {
  double x = 0.0;
  double expected_reliability = 0.0;
  bool ok = true;
  fault::ErrorInfo error;
};

/// Mutator applying the sweep variable to a parameter set.
using ParameterSetter =
    std::function<void(SystemParameters&, double value)>;

/// Evenly spaced values in [lo, hi] (inclusive), `count` >= 2.
std::vector<double> linspace(double lo, double hi, std::size_t count);

/// Runs the analyzer over `values` applied to `base` through `setter`.
/// A point whose solve throws becomes an error envelope (SweepPoint::ok =
/// false) unless `policy.strict`, which restores fail-fast.
std::vector<SweepPoint> sweep_parameter(const ReliabilityAnalyzer& analyzer,
                                        const SystemParameters& base,
                                        const ParameterSetter& setter,
                                        const std::vector<double>& values,
                                        const fault::Policy& policy = {});

/// Crossover between two reliability curves: a value x where
/// curve_a(x) - curve_b(x) changes sign. Refined by bisection on the
/// analyzer to `tolerance` (in x).
struct Crossover {
  double x = 0.0;
  double reliability = 0.0;
};

/// Finds all sign changes of f(a) - f(b) across `values` and refines each by
/// bisection. `setter` is applied to both parameter sets. Unless
/// `policy.strict`, a failed grid evaluation masks its two adjacent
/// intervals and a failure during bisection abandons that crossover —
/// degraded, never aborted.
std::vector<Crossover> find_crossovers(const ReliabilityAnalyzer& analyzer,
                                       const SystemParameters& config_a,
                                       const SystemParameters& config_b,
                                       const ParameterSetter& setter,
                                       const std::vector<double>& values,
                                       double tolerance = 1.0,
                                       const fault::Policy& policy = {});

/// Setter of the system-wide parameter-table row `name` (the sweep
/// `--param` value); null when no row has that name or the row is
/// per-group only.
ParameterSetter setter_for(std::string_view name);

/// Named setters for the Table II parameters, for the benches and CLI.
ParameterSetter set_mean_time_to_compromise();
ParameterSetter set_alpha();
ParameterSetter set_p();
ParameterSetter set_p_prime();
ParameterSetter set_rejuvenation_interval();

}  // namespace nvp::core
