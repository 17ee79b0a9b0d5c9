#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/core/model_factory.hpp"
#include "src/core/params.hpp"
#include "src/core/reliability.hpp"
#include "src/markov/dspn_solver.hpp"

namespace nvp::core {

/// Probability mass of one aggregated module-state class (i, j, k).
struct StateProbability {
  int healthy = 0;
  int compromised = 0;
  int down = 0;  // non-operational + rejuvenating
  double probability = 0.0;
  double reliability = 0.0;  // R_{i,j,k} attached to the class
};

/// Full result of one reliability analysis.
struct AnalysisResult {
  /// The paper's E[R_sys] (Eq. 1).
  double expected_reliability = 0.0;
  /// Stationary distribution aggregated over (i, j, k) classes, sorted by
  /// descending probability.
  std::vector<StateProbability> state_distribution;
  /// Number of tangible markings in the underlying DSPN.
  std::size_t tangible_states = 0;
  /// True when the model needed the MRGP solver (deterministic clock).
  bool used_dspn_solver = false;
  /// The solver backend that actually produced the stationary vector
  /// (never kAuto; reflects whole-solve dense degradation when it fired).
  markov::SolverBackend backend_used = markov::SolverBackend::kDense;
  /// Stored nonzeros of the solver's main matrices (dense backends report
  /// their full n^2 allocations); see DspnSteadyStateResult.
  std::size_t matrix_nonzeros = 0;
};

/// Which states carry a nonzero reliability reward.
///
///  * kOperationalStatesOnly — only fully-operational states (k = 0) carry
///    their R_{i,j,0}; any state with a failed or rejuvenating module
///    counts as 0. This is what reproduces the paper's published numbers:
///    with the appendix's k >= 1 rewards attached, E[R_6v] is monotone in
///    the rejuvenation frequency (silent modules make the BFT voter
///    *harder* to mislead), which contradicts the interior maximum of the
///    paper's Fig. 3 — so the paper's TimeNET reward embedding must have
///    zeroed degraded states. See EXPERIMENTS.md ("reward attachment").
///  * kAppendixMatrices — attach R_{i,j,k} exactly as defined by the
///    appendix matrices (zero only where the voter can never decide). This
///    matches the Monte-Carlo perception system, whose inconclusive-but-
///    safe frames in degraded states count as reliable.
enum class RewardAttachment { kOperationalStatesOnly, kAppendixMatrices };

/// The attachment spelled `name` — "operational" / "appendix", the one
/// spelling nvpcli and nvpd accept; nullopt for any other spelling.
std::optional<RewardAttachment> parse_attachment(std::string_view name);
/// "operational|appendix", for rejection messages.
std::string attachment_names();

/// End-to-end analytic pipeline: build the DSPN for the parameters,
/// compute its stationary distribution (CTMC or MRGP solver as needed),
/// attach the reliability rewards, and report E[R_sys] with the aggregated
/// state distribution. This is the programmatic equivalent of the paper's
/// TimeNET workflow.
class ReliabilityAnalyzer {
 public:
  struct Options {
    RewardConvention convention = RewardConvention::kPaperVerbatim;
    RewardAttachment attachment = RewardAttachment::kOperationalStatesOnly;
    markov::DspnSteadyStateSolver::Options solver{};
    /// Use the process-wide per-stage caches of the staged pipeline
    /// (structure / rates / reward table / rewards — see staged.hpp). The
    /// result is a pure function of params + Options, so sweeps, bisection
    /// refinement, and optimizer re-evaluation hit instead of re-solving.
    /// false runs the fully cold path, bypassing all cache levels
    /// (benchmark baselines, equivalence tests). The two-argument
    /// analyze(params, rewards) overload reuses the structure and rates
    /// stages but never caches its final result: a caller-supplied reward
    /// model has no canonical identity to key on.
    bool use_cache = true;
  };

  ReliabilityAnalyzer() = default;
  explicit ReliabilityAnalyzer(Options options) : options_(options) {}

  /// Analyzes with the convention's class rewards (paper_verbatim_model
  /// where it applies, GroupReliabilityModel otherwise) behind the one
  /// gated state reward, state_rewards(); rewards_stage_key() is its cache
  /// and store identity.
  AnalysisResult analyze(const SystemParameters& params) const;

  /// Analyzes with a caller-supplied reward model (must match N).
  AnalysisResult analyze(const SystemParameters& params,
                         const ReliabilityModel& rewards) const;

  const Options& options() const { return options_; }

 private:
  Options options_{};
};

}  // namespace nvp::core
