#pragma once

#include <vector>

#include "src/core/analyzer.hpp"
#include "src/core/params.hpp"

namespace nvp::core {

/// One sample of a reliability-over-time curve.
struct TransientPoint {
  double time = 0.0;
  double expected_reliability = 0.0;
};

/// Transient (time-dependent) reliability analysis — the paper evaluates
/// only steady state; this extension answers "how does the expected output
/// reliability evolve over a mission that starts with all modules
/// healthy?":
///
///  * E[R(t)] curves by uniformization for models without a deterministic
///    clock (the four-version system), attaching the same gated state
///    reward as the steady-state analyzer (state_rewards), so a curve
///    converges to ReliabilityAnalyzer::analyze's answer;
///  * mean time until the system first leaves the decidable region (the
///    responding module weight misses the voter's quota — fewer than
///    `voting_threshold()` operational modules with unit weights — the
///    moment perception availability is first lost) and the probability
///    of reaching it within a mission deadline.
///
/// Models with the rejuvenation clock are Markov-regenerative rather than
/// Markovian, so their transients are estimated by simulation
/// (sim::DspnSimulator + TransientProfile) instead.
class TransientReliabilityAnalyzer {
 public:
  struct Options {
    RewardConvention convention = RewardConvention::kPaperVerbatim;
    RewardAttachment attachment = RewardAttachment::kOperationalStatesOnly;
  };

  TransientReliabilityAnalyzer() = default;
  explicit TransientReliabilityAnalyzer(Options options)
      : options_(options) {}

  /// E[R(t)] at the given time points, starting from the all-healthy
  /// marking. Requires a non-rejuvenating (pure-CTMC) configuration.
  std::vector<TransientPoint> reliability_curve(
      const SystemParameters& params,
      const std::vector<double>& times) const;

  /// Mean time until the responding weight first misses the voter's quota
  /// (loss of decidability, GroupReliabilityModel::decidable), from the
  /// all-healthy start. Requires a non-rejuvenating configuration.
  double mean_time_to_unavailability(const SystemParameters& params) const;

  /// P(decidability lost within `deadline` | all-healthy start).
  double unavailability_probability_by(const SystemParameters& params,
                                       double deadline) const;

  /// Mission-average reliability (1/T) * integral_0^T E[R(t)] dt — the
  /// fraction of a mission of length T over which the output is expected
  /// reliable, from the all-healthy start. Requires a non-rejuvenating
  /// configuration.
  double average_reliability_over(const SystemParameters& params,
                                  double horizon) const;

 private:
  Options options_{};
};

}  // namespace nvp::core
