#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/analyzer.hpp"
#include "src/core/architecture_space.hpp"
#include "src/core/optimizer.hpp"
#include "src/core/params.hpp"
#include "src/core/sensitivity.hpp"
#include "src/core/sweep.hpp"
#include "src/sim/dspn_simulator.hpp"

namespace nvp::core {

/// Common envelope returned by Engine::analyze / analyze_within /
/// simulate: the payload of the entry point that ran (`analysis` or
/// `estimate`) and whether it succeeded.
///
/// Graceful degradation: when a solve fails and the engine is not strict,
/// the entry point still returns an envelope — `ok = false`, `error` filled,
/// payload left default — so services answer with the error instead of
/// unwinding.
struct RunResult {
  AnalysisResult analysis;            ///< analyze()'s payload
  sim::ReplicationEstimate estimate;  ///< simulate()'s payload
  bool ok = true;
  fault::ErrorInfo error;  ///< set when `ok` is false
};

/// The library's single public entry point: one object that owns the
/// analyzer configuration and fronts every workload — point analysis,
/// Monte-Carlo simulation, sweeps, optimization, sensitivity, and
/// architecture-space exploration. Drivers (CLI, benches, tests) construct
/// one Engine instead of wiring ReliabilityAnalyzer / DspnSimulator /
/// free-function drivers together by hand; results are bit-identical to the
/// direct calls because the Engine delegates to exactly those code paths.
class Engine {
 public:
  /// Replication-simulation knobs (the simulate() entry point).
  struct SimulateOptions {
    double horizon = 1.0e6;
    double warmup_time = -1.0;  ///< < 0 means horizon / 100
    std::uint64_t seed = 1;
    std::size_t replications = 8;
    double confidence_level = 0.95;
  };

  /// Engine-level behavior knobs, orthogonal to the analyzer math.
  struct Options {
    /// Fail fast: rethrow solver errors instead of degrading them into
    /// error envelopes (RunResult::ok / SweepPoint::ok / ...).
    bool strict = false;
    /// Open the process-wide persistent solve store (src/store/) on this
    /// directory so solves warm-start across processes. Empty leaves the
    /// global store untouched (it may already be open via NVP_STORE or an
    /// earlier engine). Opening is idempotent on the same directory; a
    /// conflicting directory is reported to stderr and ignored — the store
    /// is an accelerator, never a correctness dependency.
    std::string store_dir;
    /// Store capacity in MiB when `store_dir` opens it; 0 = store default.
    std::uint64_t store_cap_mb = 0;
  };

  Engine() = default;
  explicit Engine(ReliabilityAnalyzer::Options options) : analyzer_(options) {}
  Engine(ReliabilityAnalyzer::Options options, Options engine_options)
      : engine_options_(engine_options), analyzer_(options) {
    open_store(engine_options_);
  }

  /// Analytic E[R_sys] of one configuration, with envelope.
  RunResult analyze(const SystemParameters& params) const;

  /// Deadline-scoped analyze for services: the run must be complete by
  /// `deadline` or it degrades into a deadline-exceeded envelope (the
  /// fault::Error kDeadlineExceeded category), never an exception. An
  /// already-expired deadline short-circuits before touching the solver; a
  /// run that finishes past the deadline is reported as exceeded even
  /// though the solve completed — its result still warms the process-wide
  /// staged caches, so a retry is nearly free. The deadline deliberately
  /// does NOT perturb the solver's FallbackOptions: the per-attempt solver
  /// deadline is part of the staged cache key (a different numeric path
  /// must never alias), so threading a per-request wall-clock bound into it
  /// would give every request a distinct cache identity and defeat both the
  /// staged cache and request coalescing.
  RunResult analyze_within(
      const SystemParameters& params,
      std::chrono::steady_clock::time_point deadline) const;

  /// The envelope analyze_within() degrades to; exposed so services can
  /// report boundary deadline misses (queue wait alone exceeded the budget)
  /// with the same shape. `overrun_s` < 0 means "expired before start".
  static fault::ErrorInfo deadline_error(const std::string& site,
                                         double overrun_s);

  /// Monte-Carlo replication estimate of E[R_sys], with envelope. It
  /// attaches the analyzer's gated state reward (marking_reward: its
  /// convention and attachment, and the voter gate), so simulate() and
  /// analyze() estimate the same quantity.
  RunResult simulate(const SystemParameters& params,
                     const SimulateOptions& options) const;
  RunResult simulate(const SystemParameters& params) const {
    return simulate(params, SimulateOptions());
  }

  /// Payload-only analysis: byte-for-byte the direct analyzer call, never
  /// an envelope.
  AnalysisResult analyze_raw(const SystemParameters& params) const;

  /// Batch entry points: the free functions with this engine's analyzer
  /// and Options::strict (sensitivity always fails fast), each running its
  /// points through analyze_points. `optimize_rejuvenation_interval`'s
  /// 24-point grid and 0.5 s tolerance are the library's one default; a
  /// `start` (the monitor's last-good optimum) selects the warm bracket.
  std::vector<SweepPoint> sweep(const SystemParameters& base,
                                const ParameterSetter& setter,
                                const std::vector<double>& values) const;
  std::vector<Crossover> crossovers(const SystemParameters& config_a,
                                    const SystemParameters& config_b,
                                    const ParameterSetter& setter,
                                    const std::vector<double>& values,
                                    double tolerance = 1.0) const;
  Optimum optimize_rejuvenation_interval(
      const SystemParameters& base, double lo, double hi,
      std::size_t grid_points = 24, double tolerance = 0.5,
      std::optional<double> start = std::nullopt) const;
  std::vector<SensitivityEntry> sensitivity(const SystemParameters& base,
                                            double relative_step = 0.1) const;
  std::vector<ArchitectureResult> architectures(
      const SystemParameters& base,
      const ArchitectureSpaceExplorer::Options& options = {}) const;

  const ReliabilityAnalyzer& analyzer() const { return analyzer_; }
  const ReliabilityAnalyzer::Options& options() const {
    return analyzer_.options();
  }
  const Options& engine_options() const { return engine_options_; }

 private:
  /// Opens the global persistent store per `options` (no-op when
  /// store_dir is empty or the store is already open on that directory).
  static void open_store(const Options& options);

  fault::Policy policy() const { return {engine_options_.strict}; }
  sim::ReplicationEstimate simulate_impl(const SystemParameters& params,
                                         const SimulateOptions& options) const;

  Options engine_options_{};
  ReliabilityAnalyzer analyzer_{};
};

}  // namespace nvp::core
