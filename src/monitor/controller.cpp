#include "src/monitor/controller.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "src/fault/error.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/contracts.hpp"

namespace nvp::monitor {

namespace {
obs::Counter& updates_total() {
  static obs::Counter& c = obs::Registry::global().counter("monitor.updates");
  return c;
}
obs::Counter& resolves_total() {
  static obs::Counter& c =
      obs::Registry::global().counter("monitor.resolves");
  return c;
}
obs::Counter& evaluations_total() {
  static obs::Counter& c =
      obs::Registry::global().counter("monitor.evaluations");
  return c;
}
obs::Counter& retunes_total() {
  static obs::Counter& c = obs::Registry::global().counter("monitor.retunes");
  return c;
}
obs::Counter& degraded_total() {
  static obs::Counter& c =
      obs::Registry::global().counter("monitor.degraded");
  return c;
}
obs::Histogram& resolve_seconds() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("monitor.resolve_s");
  return h;
}
}  // namespace

namespace {
/// The estimator's exposure model must match the transition semantics of
/// the model being re-solved, or λ̂c lands on the wrong scale entirely
/// (a single-server system observed per-module reads ~n× too slow).
VerdictStreamEstimator::Config estimator_config(
    const MonitorController::Config& config) {
  VerdictStreamEstimator::Config adjusted = config.estimator;
  adjusted.semantics = config.params.semantics;
  return adjusted;
}
}  // namespace

MonitorController::MonitorController(
    const core::Engine& engine, const Config& config,
    std::unique_ptr<RejuvenationPolicy> policy)
    : engine_(engine),
      config_(config),
      policy_(std::move(policy)),
      estimator_(config.params.n_versions, estimator_config(config)),
      applied_interval_(config.params.rejuvenation_interval),
      last_good_target_(config.params.rejuvenation_interval),
      next_update_(config.update_every) {
  NVP_EXPECTS(policy_ != nullptr);
  NVP_EXPECTS(config.update_every > 0.0);
  NVP_EXPECTS(config.interval_lo > 0.0);
  NVP_EXPECTS(config.interval_hi > config.interval_lo);
  NVP_EXPECTS(config.grid_points >= 3);  // core::maximize_reliability's floor
  NVP_EXPECTS(config.quantization >= 0.0);
}

void MonitorController::observe_frame(
    double time, double dt,
    const std::vector<perception::ModuleAnswer>& answers, int true_label) {
  estimator_.observe_frame(time, dt, answers, true_label);
  if (time >= next_update_) {
    update(time);
    // One update per period even if frames stalled past several periods.
    next_update_ +=
        std::ceil((time - next_update_) / config_.update_every + 1e-12) *
        config_.update_every;
    if (next_update_ <= time) next_update_ += config_.update_every;
  }
}

double MonitorController::quantize(double value) const {
  if (config_.quantization <= 0.0 || value <= 0.0) return value;
  const double step = std::log1p(config_.quantization);
  return std::exp(std::round(std::log(value) / step) * step);
}

void MonitorController::update(double time) {
  ++updates_;
  updates_total().add();
  ControlRecord record;
  record.time = time;
  record.lambda = estimator_.lambda();
  record.p_prime = estimator_.p_prime();
  record.applied_interval = applied_interval_;
  record.target_interval = last_good_target_;

  // Insufficient evidence: report the estimates but leave the clock alone
  // (the nominal configuration is still the best belief).
  if (record.lambda.events < config_.min_events) {
    records_.push_back(record);
    return;
  }

  // Point estimates entering the model: posterior means (regularized by
  // the conjugate prior), quantized onto the cache-friendly grid.
  const double lambda_hat =
      std::max(record.lambda.mean, 1e-9);  // guard the 1/λ inversion
  record.mttc_hat = quantize(1.0 / lambda_hat);
  record.p_prime_hat =
      std::clamp(quantize(record.p_prime.mean), 0.01, 0.99);

  core::SystemParameters estimated = config_.params;
  estimated.mean_time_to_compromise = record.mttc_hat;
  estimated.p_prime = record.p_prime_hat;

  // A re-solve that lost any evaluation (or all of them: the optimizer
  // throws) degrades to the last-good target instead of steering the clock
  // by an optimum of the points that happened to solve.
  std::optional<fault::ErrorInfo> failure;
  try {
    obs::ScopedSpan span("monitor.resolve");
    const auto t0 = std::chrono::steady_clock::now();
    // Warm: search the lattice bracket around the last-good optimum.
    const core::Optimum opt = engine_.optimize_rejuvenation_interval(
        estimated, config_.interval_lo, config_.interval_hi,
        config_.grid_points, config_.tolerance, last_good_target_);
    resolve_seconds().observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    evaluations_total().add(opt.evaluations);
    if (opt.failed > 0) {
      failure = opt.error;
    } else {
      ++resolves_;
      resolves_total().add();
      record.target_interval = opt.x;
      record.expected_reliability = opt.expected_reliability;
      last_good_target_ = opt.x;
    }
  } catch (const std::exception& e) {
    failure = fault::ErrorInfo::from(e);
  }
  if (failure) {
    ++degraded_;
    degraded_total().add();
    record.degraded = true;
    record.error = failure->summary();
    record.target_interval = last_good_target_;
  }

  const PolicyDecision decision =
      policy_->decide(applied_interval_, record.target_interval);
  if (decision.retune && decision.interval != applied_interval_) {
    applied_interval_ = decision.interval;
    ++retunes_;
    retunes_total().add();
    record.retuned = true;
    if (retune_) retune_(applied_interval_);
  }
  record.applied_interval = applied_interval_;
  records_.push_back(record);
}

}  // namespace nvp::monitor
