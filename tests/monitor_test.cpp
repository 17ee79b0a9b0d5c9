// Tier-1 coverage of src/monitor/: online estimators on synthetic streams
// with known ground truth, the hysteresis policy oracle, staged re-solve
// bit-identity, determinism across job counts, and the end-to-end drift
// session where adaptive control must not lose to the best static interval.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/staged.hpp"
#include "src/monitor/controller.hpp"
#include "src/monitor/estimator.hpp"
#include "src/monitor/policy.hpp"
#include "src/monitor/session.hpp"
#include "src/obs/metrics.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/util/contracts.hpp"

namespace nvp {
namespace {

TEST(RateEstimator, MleMatchesKnownRateAndIntervalCovers) {
  monitor::RateEstimator::Config config;
  config.window = 20000.0;
  config.bucket = 500.0;
  monitor::RateEstimator est(config);
  // Known λ = 0.004 events per unit exposure, fed exactly.
  const double lambda = 0.004;
  for (double t = 0.0; t < 20000.0; t += 500.0)
    est.observe(t, lambda * 500.0, 500.0);
  const monitor::Estimate e = est.estimate();
  EXPECT_NEAR(e.mle, lambda, 1e-12);
  EXPECT_NEAR(e.mean, lambda, 0.2 * lambda);  // prior shrinks it slightly
  EXPECT_LT(e.lo95, lambda);
  EXPECT_GT(e.hi95, lambda);
  EXPECT_GT(e.exposure, 0.0);
}

TEST(RateEstimator, WindowTracksDrift) {
  monitor::RateEstimator::Config config;
  config.window = 5000.0;
  config.bucket = 500.0;
  monitor::RateEstimator est(config);
  for (double t = 0.0; t < 20000.0; t += 500.0)
    est.observe(t, 0.001 * 500.0, 500.0);
  // Rate jumps 8×; after one full window only the new regime remains.
  for (double t = 20000.0; t < 40000.0; t += 500.0)
    est.observe(t, 0.008 * 500.0, 500.0);
  const monitor::Estimate e = est.estimate();
  EXPECT_NEAR(e.mle, 0.008, 1e-12);
  EXPECT_LE(e.exposure, 5000.0 + 1e-9);
}

TEST(ProbabilityEstimator, MleMatchesKnownProbabilityAndIntervalCovers) {
  monitor::ProbabilityEstimator::Config config;
  monitor::ProbabilityEstimator est(config);
  for (double t = 0.0; t < 20000.0; t += 500.0)
    est.observe(t, 25.0, 50.0);  // p = 0.5 exactly
  const monitor::Estimate e = est.estimate();
  EXPECT_NEAR(e.mle, 0.5, 1e-12);
  EXPECT_NEAR(e.mean, 0.5, 0.05);
  EXPECT_LT(e.lo95, 0.5);
  EXPECT_GT(e.hi95, 0.5);
  EXPECT_GE(e.lo95, 0.0);
  EXPECT_LE(e.hi95, 1.0);
}

/// Synthetic verdict stream: module `victim` turns compromised at frame
/// `onset` and errs on every other frame (rate 0.5 = the paper's p′).
std::vector<perception::ModuleAnswer> synthetic_frame(int n, int victim,
                                                      int frame, int onset,
                                                      int true_label) {
  std::vector<perception::ModuleAnswer> answers(
      static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m) {
    answers[static_cast<std::size_t>(m)].responded = true;
    answers[static_cast<std::size_t>(m)].label = true_label;
  }
  if (frame >= onset && frame % 2 == 0)
    answers[static_cast<std::size_t>(victim)].label = true_label + 1;
  return answers;
}

TEST(VerdictStreamEstimator, DetectsCompromiseAndEstimatesPPrime) {
  monitor::VerdictStreamEstimator::Config config;
  monitor::VerdictStreamEstimator est(6, config);
  const int onset = 1000;
  for (int frame = 0; frame < 3000; ++frame)
    est.observe_frame(static_cast<double>(frame), 1.0,
                      synthetic_frame(6, 2, frame, onset, 7), 7);
  EXPECT_EQ(est.detections(), 1u);
  EXPECT_EQ(est.flagged(), 1);
  const monitor::Estimate lambda = est.lambda();
  EXPECT_EQ(lambda.events, 1.0);
  EXPECT_GT(lambda.mle, 0.0);
  const monitor::Estimate p = est.p_prime();
  EXPECT_NEAR(p.mle, 0.5, 0.05);
  EXPECT_LT(p.lo95, 0.5);
  EXPECT_GT(p.hi95, 0.45);
}

TEST(VerdictStreamEstimator, SilenceResetsTheDetector) {
  monitor::VerdictStreamEstimator::Config config;
  monitor::VerdictStreamEstimator est(6, config);
  for (int frame = 0; frame < 200; ++frame)
    est.observe_frame(static_cast<double>(frame), 1.0,
                      synthetic_frame(6, 4, frame, 0, 3), 3);
  ASSERT_EQ(est.flagged(), 1);
  // The flagged module goes silent (rejuvenation): the flag clears and no
  // second compromise event is recorded for the same incident.
  auto answers = synthetic_frame(6, 4, 200, 0, 3);
  answers[4].responded = false;
  est.observe_frame(200.0, 1.0, answers, 3);
  EXPECT_EQ(est.flagged(), 0);
  EXPECT_EQ(est.detections(), 1u);
}

TEST(HysteresisPolicy, OracleDecisions) {
  monitor::HysteresisPolicy::Config config;
  config.band = 0.15;
  config.min_interval = 50.0;
  config.max_interval = 5000.0;
  monitor::HysteresisPolicy policy(config);

  // Inside the dead band: no retune.
  monitor::PolicyDecision d = policy.decide(600.0, 650.0);
  EXPECT_FALSE(d.retune);
  EXPECT_EQ(d.interval, 600.0);

  // Outside the band: retune to the optimum.
  d = policy.decide(600.0, 900.0);
  EXPECT_TRUE(d.retune);
  EXPECT_EQ(d.interval, 900.0);

  // Clamped at both ends.
  d = policy.decide(600.0, 10.0);
  EXPECT_TRUE(d.retune);
  EXPECT_EQ(d.interval, 50.0);
  d = policy.decide(600.0, 9000.0);
  EXPECT_TRUE(d.retune);
  EXPECT_EQ(d.interval, 5000.0);

  // Exactly on the band edge counts as inside (≤).
  d = policy.decide(100.0, 115.0);
  EXPECT_FALSE(d.retune);
}

TEST(StaticPolicy, NeverRetunes) {
  monitor::StaticPolicy policy;
  const monitor::PolicyDecision d = policy.decide(600.0, 60.0);
  EXPECT_FALSE(d.retune);
  EXPECT_EQ(d.interval, 600.0);
}

TEST(Policy, FactoryRejectsUnknownNames) {
  EXPECT_THROW(monitor::make_policy("pid", {}), fault::Error);
  EXPECT_EQ(monitor::make_policy("static", {})->name(), "static");
  EXPECT_EQ(monitor::make_policy("hysteresis", {})->name(), "hysteresis");
}

TEST(MonitorController, RejectsAGridTheOptimizerCannotSearch) {
  // core::maximize_reliability needs 3 grid points; a smaller fallback grid
  // would turn every re-solve into a precondition failure.
  const core::Engine engine;
  monitor::MonitorController::Config config;
  config.params = core::SystemParameters::paper_six_version();
  config.grid_points = 2;
  EXPECT_THROW(monitor::MonitorController(
                   engine, config, monitor::make_policy("static", {})),
               util::ContractViolation);
  config.grid_points = 3;
  EXPECT_NO_THROW(monitor::MonitorController(
      engine, config, monitor::make_policy("static", {})));
}

monitor::SessionConfig short_session(std::uint64_t seed) {
  monitor::SessionConfig config;
  config.params = core::SystemParameters::paper_six_version();
  config.schedule.kind = monitor::DriftSchedule::Kind::kStep;
  config.schedule.multiplier = 10.0;
  config.schedule.period = 15000.0;
  config.schedule.segment = 1000.0;
  config.duration = 50000.0;
  config.seed = seed;
  config.controller.update_every = 2500.0;
  config.controller.grid_points = 8;
  config.controller.tolerance = 20.0;
  config.controller.interval_lo = 60.0;
  config.controller.interval_hi = 2400.0;
  return config;
}

TEST(MonitorSession, RecordsBeforeEnoughEvidenceCarryNoSolve) {
  // The CLI defaults over a short horizon: at the first update (t = 2500)
  // the estimator has seen fewer than min_events compromises, so the
  // controller reports its estimates without solving. Every output shows
  // E[R_sys] exactly for the records solved() accepts.
  const core::Engine engine;
  monitor::SessionConfig config;
  config.params = core::SystemParameters::paper_six_version();
  config.duration = 12000.0;
  const monitor::SessionResult result = run_monitor_session(engine, config);
  ASSERT_GE(result.records.size(), 2u);
  const monitor::ControlRecord& first = result.records.front();
  EXPECT_LT(first.lambda.events, config.controller.min_events);
  EXPECT_FALSE(first.degraded);
  EXPECT_FALSE(first.solved());
  EXPECT_EQ(first.expected_reliability, 0.0);
  std::size_t solved = 0;
  for (const monitor::ControlRecord& r : result.records)
    if (r.solved()) {
      ++solved;
      EXPECT_GT(r.expected_reliability, 0.0);
    }
  EXPECT_EQ(solved, result.resolves);
  EXPECT_GT(solved, 0u);

  // A failed re-solve has estimates but no solve value either.
  monitor::ControlRecord degraded = result.records.back();
  ASSERT_TRUE(degraded.solved());
  degraded.degraded = true;
  EXPECT_FALSE(degraded.solved());
}

TEST(MonitorSession, DriftWindowsRealizeTheSchedule) {
  monitor::DriftSchedule schedule;
  schedule.kind = monitor::DriftSchedule::Kind::kStep;
  schedule.multiplier = 8.0;
  schedule.period = 10000.0;
  schedule.segment = 1000.0;
  const auto windows = monitor::make_drift_windows(schedule, 30000.0);
  // One merged window covering [10000, 30000] at ×8.
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_DOUBLE_EQ(windows[0].start, 10000.0);
  EXPECT_DOUBLE_EQ(windows[0].end, 30000.0);
  EXPECT_DOUBLE_EQ(windows[0].rate_multiplier, 8.0);

  schedule.kind = monitor::DriftSchedule::Kind::kSinusoid;
  schedule.period = 20000.0;
  const auto sine = monitor::make_drift_windows(schedule, 40000.0);
  EXPECT_GT(sine.size(), 4u);  // piecewise segments tracking the sine
  for (const auto& w : sine) {
    EXPECT_GE(w.rate_multiplier, 1.0);
    EXPECT_LE(w.rate_multiplier, 8.0 + 1e-9);
  }
  // The ramp rises monotonically between period and 2·period.
  EXPECT_NEAR(schedule.multiplier_at(0.0), 1.0, 1e-12);
  schedule.kind = monitor::DriftSchedule::Kind::kRamp;
  EXPECT_NEAR(schedule.multiplier_at(30000.0), 4.5, 1e-9);
  EXPECT_NEAR(schedule.multiplier_at(40000.0), 8.0, 1e-12);
}

TEST(MonitorSession, ControllerReactsToDriftAndStaysStructureCached) {
  const core::Engine engine;
  const std::uint64_t builds_before =
      obs::Registry::global().counter("petri.reachability.builds").value();
  const monitor::SessionConfig config = short_session(11);
  const monitor::SessionResult result = run_monitor_session(engine, config);

  EXPECT_GT(result.updates, 10u);
  EXPECT_GT(result.resolves, 0u);
  EXPECT_GT(result.detections, 0u);
  EXPECT_EQ(result.degraded_updates, 0u);
  // Under a ×10 λc step the controller must tighten the clock.
  EXPECT_GT(result.retunes, 0u);
  EXPECT_LT(result.final_interval, config.params.rejuvenation_interval);
  ASSERT_FALSE(result.records.empty());

  // The killer-app property of the staged pipeline: every re-solve across
  // every update reuses the one structure exploration (rates-only path).
  const std::uint64_t builds_after =
      obs::Registry::global().counter("petri.reachability.builds").value();
  EXPECT_LE(builds_after - builds_before, 1u);
}

TEST(MonitorSession, DeterministicAcrossJobCounts) {
  const core::Engine engine;
  runtime::set_default_jobs(1);
  const monitor::SessionResult serial =
      run_monitor_session(engine, short_session(7));
  runtime::set_default_jobs(4);
  const monitor::SessionResult parallel =
      run_monitor_session(engine, short_session(7));
  runtime::set_default_jobs(0);

  EXPECT_EQ(serial.reliability, parallel.reliability);
  EXPECT_EQ(serial.retunes, parallel.retunes);
  EXPECT_EQ(serial.final_interval, parallel.final_interval);
  ASSERT_EQ(serial.records.size(), parallel.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_EQ(serial.records[i].target_interval,
              parallel.records[i].target_interval);
    EXPECT_EQ(serial.records[i].applied_interval,
              parallel.records[i].applied_interval);
    EXPECT_EQ(serial.records[i].expected_reliability,
              parallel.records[i].expected_reliability);
    EXPECT_EQ(serial.records[i].lambda.mean, parallel.records[i].lambda.mean);
  }
}

TEST(MonitorSession, ReSolveIsBitIdenticalToColdSolve) {
  const core::Engine engine;
  const monitor::SessionConfig config = short_session(3);
  const monitor::SessionResult result = run_monitor_session(engine, config);

  // Find a record that re-solved (evidence gate passed, not degraded).
  const auto it = std::find_if(
      result.records.begin(), result.records.end(),
      [](const monitor::ControlRecord& r) {
        return !r.degraded && r.expected_reliability > 0.0;
      });
  ASSERT_NE(it, result.records.end());

  // Cold-solve the same estimated point from scratch: dropping every
  // staged cache must reproduce the warm rates-only value bit for bit.
  core::SystemParameters estimated = config.params;
  estimated.mean_time_to_compromise = it->mttc_hat;
  estimated.p_prime = it->p_prime_hat;
  estimated.rejuvenation_interval = it->target_interval;
  const double warm = engine.analyze_raw(estimated).expected_reliability;
  EXPECT_EQ(warm, it->expected_reliability);
  core::clear_stage_caches();
  const double cold = engine.analyze_raw(estimated).expected_reliability;
  EXPECT_EQ(cold, warm);
}

TEST(MonitorSession, AdaptiveDoesNotLoseToBestStaticUnderDrift) {
  const core::Engine engine;
  const monitor::SessionConfig config = short_session(2024);

  double best_static = 0.0;
  for (const double interval : {300.0, 600.0, 1200.0}) {
    const perception::CampaignResult campaign =
        run_static_campaign(config, interval);
    best_static = std::max(best_static, campaign.paper_reliability());
  }

  const monitor::SessionResult adaptive =
      run_monitor_session(engine, config);
  EXPECT_GE(adaptive.reliability, best_static);
}

TEST(MonitorSession, ReSolvesAverageAtMostTenEvaluations) {
  // `nvpcli monitor --paper 6v --schedule step --horizon 20000 --period
  // 10000 --seed 2024`: every re-solve starts its warm bracket from the
  // last-good target, the configured interval before the first optimum
  // (the full grid alone is 10 points).
  monitor::SessionConfig config;
  config.params = core::SystemParameters::paper_six_version();
  config.schedule.kind = monitor::DriftSchedule::Kind::kStep;
  config.schedule.period = 10000.0;
  config.duration = 20000.0;
  config.seed = 2024;
  config.hysteresis.min_interval = config.controller.interval_lo;
  config.hysteresis.max_interval = config.controller.interval_hi;
  const obs::Counter& evaluations =
      obs::Registry::global().counter("monitor.evaluations");
  const std::uint64_t before = evaluations.value();
  const monitor::SessionResult result =
      run_monitor_session(core::Engine{}, config);
  ASSERT_GT(result.resolves, 0u);
  EXPECT_EQ(result.degraded_updates, 0u);
  EXPECT_LE(evaluations.value() - before, 10 * result.resolves);
}

TEST(MonitorSession, StaticPolicyNeverTouchesTheClock) {
  const core::Engine engine;
  monitor::SessionConfig config = short_session(5);
  config.policy = "static";
  const monitor::SessionResult result = run_monitor_session(engine, config);
  EXPECT_EQ(result.retunes, 0u);
  EXPECT_EQ(result.final_interval, config.params.rejuvenation_interval);
  EXPECT_GT(result.resolves, 0u);  // it still estimates and re-solves
}

}  // namespace
}  // namespace nvp
