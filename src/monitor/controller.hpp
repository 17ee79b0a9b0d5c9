#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/params.hpp"
#include "src/monitor/estimator.hpp"
#include "src/monitor/policy.hpp"

namespace nvp::monitor {

/// One row of the monitor's control log: the estimates at the update, the
/// re-solved optimum, and what the policy did about it. `degraded` rows are
/// the controller's error envelope — the re-solve failed, the controller
/// kept the last-good target, and `error` holds the failure summary (value
/// columns render empty, mirroring the sweep envelope convention).
struct ControlRecord {
  double time = 0.0;
  Estimate lambda;   ///< λc estimate at this update
  Estimate p_prime;  ///< p′ estimate at this update
  double mttc_hat = 0.0;     ///< 1 / posterior-mean λc fed to the model
  double p_prime_hat = 0.0;  ///< clamped posterior-mean p′ fed to the model
  double target_interval = 0.0;   ///< model-optimal interval (last-good if degraded)
  double applied_interval = 0.0;  ///< interval the clock runs at after this update
  double expected_reliability = 0.0;  ///< E[R_sys] at the optimum (0 if degraded)
  bool retuned = false;
  bool degraded = false;
  std::string error;  ///< failure summary when degraded

  /// True when this update's re-solve ran and succeeded, so
  /// `expected_reliability` is a solve value. False for a degraded record
  /// and for one written before there was evidence enough to solve
  /// (`mttc_hat` is set only when the controller solves). Every output
  /// shows E[R_sys] exactly when this holds.
  bool solved() const { return !degraded && mttc_hat > 0.0; }
};

/// Closed-loop rejuvenation controller: consumes the verdict stream through
/// a VerdictStreamEstimator, periodically re-solves the DSPN at the
/// estimated (λc, p′) point through the engine's staged rates-only path,
/// and steers the rejuvenation clock via the configured policy.
///
/// Estimates are quantized to a fixed relative grid before they reach the
/// model. That keeps the control loop deterministic in the face of
/// floating-point noise AND makes consecutive updates with statistically
/// indistinguishable estimates hit the stage caches (and the
/// persistent store) instead of re-solving: the structure stage is shared
/// by every update (same architecture — one reachability exploration per
/// process), and repeated quantized points cost nothing at all.
///
/// Each re-solve starts from the last-good target: the optimizer searches
/// a warm 3-point bracket on a fixed geometric lattice around it and falls
/// back to the full `grid_points` grid only when a warm point fails or the
/// bracket is not unimodal (core::maximize_reliability). The
/// `monitor.evaluations` counter sums the analyses every re-solve asked.
///
/// Failure envelope: if the re-solve loses any evaluation (e.g. under fault
/// injection; core::Optimum::failed), the controller falls back to the
/// last-good target and records a degraded ControlRecord instead of
/// aborting; the clock keeps running at the last applied interval.
class MonitorController {
 public:
  struct Config {
    /// Structural + nominal parameters; mttc and p_prime are overwritten
    /// by the online estimates at each update.
    core::SystemParameters params;
    double update_every = 2500.0;  ///< sim-seconds between estimate updates
    double min_events = 2.0;  ///< compromise evidence needed before acting
    double interval_lo = 60.0;   ///< optimizer search range
    double interval_hi = 3000.0;
    std::size_t grid_points = 10;  ///< fallback grid of a re-solve (>= 3)
    /// Optimizer tolerance (seconds): the target lies within tolerance/2
    /// of the bracketed maximizer.
    double tolerance = 10.0;
    /// Relative quantization step for estimates entering the model (0
    /// disables). 0.05 ≈ 5% grid: well under the credible-interval width
    /// at the evidence volumes that pass `min_events`.
    double quantization = 0.05;
    VerdictStreamEstimator::Config estimator{};
  };

  MonitorController(const core::Engine& engine, const Config& config,
                    std::unique_ptr<RejuvenationPolicy> policy);

  /// Invoked on a retune with the new interval; wire this to
  /// NVersionPerceptionSystem::set_rejuvenation_interval.
  void set_retune_callback(std::function<void(double)> callback) {
    retune_ = std::move(callback);
  }

  /// Feeds one frame of verdict traffic; runs an estimate update + re-solve
  /// when the update period has elapsed.
  void observe_frame(double time, double dt,
                     const std::vector<perception::ModuleAnswer>& answers,
                     int true_label);

  double applied_interval() const { return applied_interval_; }
  const std::vector<ControlRecord>& records() const { return records_; }
  const VerdictStreamEstimator& estimator() const { return estimator_; }

  std::uint64_t updates() const { return updates_; }
  std::uint64_t resolves() const { return resolves_; }
  std::uint64_t retunes() const { return retunes_; }
  std::uint64_t degraded_updates() const { return degraded_; }

 private:
  void update(double time);

  /// Rounds `value` onto the controller's relative grid (log-spaced steps
  /// of `quantization`), so near-identical estimates share a cache key.
  double quantize(double value) const;

  const core::Engine& engine_;
  Config config_;
  std::unique_ptr<RejuvenationPolicy> policy_;
  VerdictStreamEstimator estimator_;
  std::function<void(double)> retune_;
  std::vector<ControlRecord> records_;
  double applied_interval_ = 0.0;
  double last_good_target_ = 0.0;
  double next_update_ = 0.0;
  std::uint64_t updates_ = 0;
  std::uint64_t resolves_ = 0;
  std::uint64_t retunes_ = 0;
  std::uint64_t degraded_ = 0;
};

}  // namespace nvp::monitor
