#include "src/core/engine.hpp"

#include <cstdio>

#include "src/core/model_factory.hpp"
#include "src/core/staged.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/store/store.hpp"
#include "src/util/string_util.hpp"

namespace nvp::core {

namespace {

obs::Counter& degraded_runs() {
  static obs::Counter& counter =
      obs::Registry::global().counter("fault.degraded_runs");
  return counter;
}

obs::Counter& deadline_misses() {
  static obs::Counter& counter =
      obs::Registry::global().counter("engine.deadline_missed");
  return counter;
}

}  // namespace

void Engine::open_store(const Options& options) {
  if (options.store_dir.empty()) return;
  store::Options store_options;
  if (options.store_cap_mb > 0)
    store_options.capacity_bytes = options.store_cap_mb << 20;
  std::string error;
  if (!store::open_global(options.store_dir, store_options, &error))
    std::fprintf(stderr, "engine: persistent store disabled: %s\n",
                 error.c_str());
}

AnalysisResult Engine::analyze_raw(const SystemParameters& params) const {
  return analyzer_.analyze(params);
}

RunResult Engine::analyze(const SystemParameters& params) const {
  const obs::ScopedSpan span("engine.analyze");
  RunResult result;
  try {
    result.analysis = analyzer_.analyze(params);
  } catch (const std::exception&) {
    if (engine_options_.strict) throw;
    degraded_runs().add();
    result.ok = false;
    result.error = fault::ErrorInfo::from_current_exception();
  }
  return result;
}

fault::ErrorInfo Engine::deadline_error(const std::string& site,
                                        double overrun_s) {
  fault::ErrorInfo info;
  info.category = fault::Category::kDeadlineExceeded;
  info.site = site;
  info.message =
      overrun_s < 0.0
          ? "deadline expired before the solve started"
          : util::format("solve finished %.3f s past the deadline", overrun_s);
  return info;
}

RunResult Engine::analyze_within(
    const SystemParameters& params,
    std::chrono::steady_clock::time_point deadline) const {
  const auto now = std::chrono::steady_clock::now();
  if (now >= deadline) {
    deadline_misses().add();
    RunResult result;
    result.ok = false;
    result.error = deadline_error("engine.deadline", -1.0);
    return result;
  }
  RunResult result = analyze(params);
  const auto done = std::chrono::steady_clock::now();
  if (done > deadline && result.ok) {
    deadline_misses().add();
    const double overrun_s =
        std::chrono::duration<double>(done - deadline).count();
    result.ok = false;
    result.analysis = AnalysisResult();
    result.error = deadline_error("engine.deadline", overrun_s);
  }
  return result;
}

RunResult Engine::simulate(const SystemParameters& params,
                           const SimulateOptions& options) const {
  const obs::ScopedSpan span("engine.simulate");
  RunResult result;
  try {
    result.estimate = simulate_impl(params, options);
  } catch (const std::exception&) {
    if (engine_options_.strict) throw;
    degraded_runs().add();
    result.ok = false;
    result.error = fault::ErrorInfo::from_current_exception();
  }
  return result;
}

sim::ReplicationEstimate Engine::simulate_impl(
    const SystemParameters& raw, const SimulateOptions& options) const {
  raw.validate();
  const SystemParameters params = raw.canonicalized();
  const BuiltModel model = PerceptionModelFactory::build(params);
  const sim::DspnSimulator simulator(model.net);
  sim::SimulationOptions sim_options;
  sim_options.horizon = options.horizon;
  sim_options.warmup_time = options.warmup_time >= 0.0
                                ? options.warmup_time
                                : options.horizon / 100.0;
  sim_options.seed = options.seed;
  return simulator.estimate(marking_reward(params, analyzer_.options()),
                            sim_options, options.replications,
                            options.confidence_level);
}

std::vector<SweepPoint> Engine::sweep(
    const SystemParameters& base, const ParameterSetter& setter,
    const std::vector<double>& values) const {
  const obs::ScopedSpan span("engine.sweep");
  return sweep_parameter(analyzer_, base, setter, values, policy());
}

std::vector<Crossover> Engine::crossovers(
    const SystemParameters& config_a, const SystemParameters& config_b,
    const ParameterSetter& setter, const std::vector<double>& values,
    double tolerance) const {
  const obs::ScopedSpan span("engine.crossovers");
  return find_crossovers(analyzer_, config_a, config_b, setter, values,
                         tolerance, policy());
}

Optimum Engine::optimize_rejuvenation_interval(
    const SystemParameters& base, double lo, double hi,
    std::size_t grid_points, double tolerance,
    std::optional<double> start) const {
  const obs::ScopedSpan span("engine.optimize");
  return core::optimize_rejuvenation_interval(analyzer_, base, lo, hi,
                                              grid_points, tolerance,
                                              policy(), start);
}

std::vector<SensitivityEntry> Engine::sensitivity(
    const SystemParameters& base, double relative_step) const {
  const obs::ScopedSpan span("engine.sensitivity");
  return sensitivity_report(analyzer_, base, relative_step);
}

std::vector<ArchitectureResult> Engine::architectures(
    const SystemParameters& base,
    const ArchitectureSpaceExplorer::Options& options) const {
  const obs::ScopedSpan span("engine.architectures");
  return ArchitectureSpaceExplorer(options).explore(base, policy());
}

}  // namespace nvp::core
