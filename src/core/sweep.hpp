#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/analyzer.hpp"
#include "src/core/params.hpp"
#include "src/fault/error.hpp"

namespace nvp::core {

/// One analyzed point of a batch: the two numbers every multi-point
/// analysis reads. A point whose analysis failed carries `ok = false` plus
/// the error envelope; `expected_reliability` is then 0 and
/// `tangible_states` the failed model's size when the error recorded it.
/// Deliberately no state distribution: a batch can hold 100 000 points.
struct PointResult {
  double expected_reliability = 0.0;
  std::size_t tangible_states = 0;
  bool ok = true;
  fault::ErrorInfo error;
};

/// The batch evaluator that sweeps, crossovers, the optimizer, sensitivity
/// and the architecture space all run on. Point 0 runs on the calling
/// thread and warms the staged caches the rest share; the rest fan out by
/// index on the runtime pool, so the result does not depend on the job
/// count. A one-point batch never touches the pool.
///
/// Degradation: a point whose analysis throws becomes an error envelope
/// unless `policy.strict`, which rethrows; when the pool itself fails, every
/// point it left unevaluated gets the pool's error. Each degraded point adds
/// 1 to the `fault.degraded_points` counter.
std::vector<PointResult> analyze_points(
    const ReliabilityAnalyzer& analyzer,
    const std::vector<SystemParameters>& points, const fault::Policy& policy);

/// One point of a parameter sweep; see PointResult for the envelope.
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

/// Analyzes `base` with each of `values` applied through `setter`, as one
/// analyze_points batch (same degradation and strict semantics).
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
/// bisection. `setter` is applied to both parameter sets. The grid is one
/// batch per configuration; each bisection step and the final point are
/// one-point batches. Unless `policy.strict`, a point where either side
/// failed masks its two adjacent intervals, and a failure during bisection
/// abandons that crossover — degraded, never aborted.
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

/// The names setter_for accepts, '|'-separated, for error messages.
std::string sweepable_names();

/// Named setters for the Table II parameters, for the benches and CLI.
ParameterSetter set_mean_time_to_compromise();
ParameterSetter set_alpha();
ParameterSetter set_p();
ParameterSetter set_p_prime();
ParameterSetter set_rejuvenation_interval();

}  // namespace nvp::core
