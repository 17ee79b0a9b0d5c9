#pragma once

#include <memory>
#include <vector>

#include "src/core/params.hpp"
#include "src/core/voting.hpp"

namespace nvp::core {

/// Output reliability R_{i,j,k} of an N-version perception system in the
/// state with i healthy, j compromised, and k down/rejuvenating ML modules
/// (i + j + k = N). Implementations are pure functions of the state; the
/// analyzer attaches them as rewards to the DSPN's stationary distribution
/// (the paper's Eq. 1).
class ReliabilityModel {
 public:
  virtual ~ReliabilityModel() = default;

  /// Number of module versions N.
  virtual int versions() const = 0;

  /// R_{i,j,k}; 0 when the voter cannot reach its threshold (k too large).
  virtual double state_reliability(int i, int j, int k) const = 0;

  /// Checks i, j, k >= 0 and i + j + k = N; throws on violation. Helper for
  /// implementations.
  void check_state(int i, int j, int k) const;
};

/// Appendix A of the paper, verbatim: the four-version system (f = 1, no
/// rejuvenation, threshold 2f+1 = 3). Includes the paper's simplified
/// expressions for R_{2,2,0} and R_{0,4,0} (see DESIGN.md §5); use
/// GeneralizedReliability for the rigorous derivation.
class PaperFourVersionReliability : public ReliabilityModel {
 public:
  PaperFourVersionReliability(double p, double p_prime, double alpha);

  int versions() const override { return 4; }
  double state_reliability(int i, int j, int k) const override;

 private:
  double p_, pp_, a_;
};

/// Appendix B of the paper, verbatim: the six-version system with
/// rejuvenation (f = 1, r = 1, threshold 2f+r+1 = 4). Includes the paper's
/// simplified/typo'd expressions for R_{4,2,0}, R_{2,4,0} and R_{2,3,1}
/// (see DESIGN.md §5).
class PaperSixVersionReliability : public ReliabilityModel {
 public:
  PaperSixVersionReliability(double p, double p_prime, double alpha);

  int versions() const override { return 6; }
  double state_reliability(int i, int j, int k) const override;

 private:
  double p_, pp_, a_;
};

/// Rigorous reliability functions for any N-version system under the
/// paper's error model:
///  * healthy modules fail together through a common cause: the probability
///    that one specific subset of h >= 1 healthy modules (out of i) errs is
///    p * alpha^(h-1) * (1-alpha)^(i-h) (Ege et al.'s dependent-failure
///    model, which the paper's Appendix follows where it is exact);
///  * compromised modules err independently with probability p';
///  * a perception error occurs when at least `threshold` modules err
///    (assumptions A.2/A.3); states with k > n - threshold have reliability
///    0 because the voter can never decide.
///
/// With RewardConvention::kStrict the reward is instead the probability that
/// the voter produces a *correct* output (at least `threshold` correct
/// answers), which does not credit inconclusive-but-safe rounds.
class GeneralizedReliability : public ReliabilityModel {
 public:
  GeneralizedReliability(int n, VotingScheme voting, double p,
                         double p_prime, double alpha,
                         bool strict = false);

  int versions() const override { return n_; }
  double state_reliability(int i, int j, int k) const override;

  /// P(exactly h of i healthy modules err) under the common-cause model.
  /// Exposed for tests and for the Monte-Carlo module simulator, which must
  /// sample from the same distribution.
  double healthy_error_pmf(int i, int h) const;

  /// P(exactly c of j compromised modules err) (binomial with p').
  double compromised_error_pmf(int j, int c) const;

 private:
  int n_;
  VotingScheme voting_;
  double p_, pp_, a_;
  bool strict_;
};

/// The paper's verbatim Appendix A/B functions when `convention` is
/// kPaperVerbatim and `params` is the scalar configuration they were
/// published for (the four-version system without rejuvenation, the
/// six-version system with it); null otherwise.
std::unique_ptr<ReliabilityModel> paper_verbatim_model(
    const SystemParameters& params, RewardConvention convention);

/// Builds the scalar reward model matching the parameters and convention:
/// paper_verbatim_model where it applies, the generalized model otherwise
/// (or when explicitly requested).
std::unique_ptr<ReliabilityModel> make_reliability_model(
    const SystemParameters& params,
    RewardConvention convention = RewardConvention::kPaperVerbatim);

/// Per-group module-state counts of one tangible class of a heterogeneous
/// architecture. `healthy` includes imperfect-repair degraded modules:
/// they vote exactly like healthy ones (inaccuracy p of their group); only
/// their compromise rate differs, which is a rates-stage concern.
struct GroupState {
  int healthy = 0;
  int compromised = 0;
  int down = 0;
};

/// Reward model over per-group counts generalizing GeneralizedReliability
/// to heterogeneous architectures with weighted voting:
///  * within each group, healthy modules err through the group's common
///    cause: P(one specific subset of h of i errs) =
///    p_g alpha^(h-1) (1-alpha)^(i-h) (alpha stays global, coupling
///    modules of one diversity pool; distinct groups err independently);
///  * compromised modules err independently with the group's p';
///  * verdicts are by weighted mass against the weighted quota Q (see
///    SystemParameters::weighted_quota): reward 0 when the responding
///    weight cannot reach Q, else 1 - P(wrong weight >= Q) (paper
///    convention) or P(correct weight >= Q) (strict).
/// For a single group this reproduces GeneralizedReliability bit for bit
/// (asserted by tests), so it is the class reward of every configuration
/// the paper's verbatim functions do not cover.
class GroupReliabilityModel {
 public:
  GroupReliabilityModel(const SystemParameters& params, bool strict);

  int versions() const { return n_; }
  std::size_t group_count() const { return groups_.size(); }
  double quota() const { return quota_; }

  /// Reward of the state with the given per-group counts (one entry per
  /// group; each group's counts must sum to its size).
  double state_reliability(const std::vector<GroupState>& state) const;

  /// Flattened-variant accessor used by the staged pipeline: `flat` holds
  /// (healthy, compromised, down) triples group by group.
  double state_reliability_flat(const std::vector<int>& flat) const;

  /// True when the responding (healthy or compromised) weight of the state
  /// `flat` reaches the quota, so the voter can reach a verdict; the reward
  /// is 0 otherwise. With unit weights: k <= n - voting_threshold().
  bool decidable_flat(const std::vector<int>& flat) const;

  /// P(exactly h of i healthy modules of group g err); exposed for tests
  /// and the Monte-Carlo samplers.
  double healthy_error_pmf(std::size_t g, int i, int h) const;
  /// P(exactly c of j compromised modules of group g err).
  double compromised_error_pmf(std::size_t g, int j, int c) const;

 private:
  bool decidable(const std::vector<GroupState>& state) const;
  std::vector<GroupState> unflatten(const std::vector<int>& flat) const;

  struct Group {
    int count = 0;
    double p = 0.0;
    double p_prime = 0.0;
    double weight = 1.0;
  };
  std::vector<Group> groups_;
  int n_ = 0;
  double alpha_ = 0.0;
  double quota_ = 0.0;
  bool strict_ = false;
};

/// Builds the group reward model for a (canonicalized) heterogeneous
/// configuration. kPaperVerbatim falls back to the generalized derivation —
/// no verbatim appendix exists for heterogeneous architectures.
std::unique_ptr<GroupReliabilityModel> make_group_reliability_model(
    const SystemParameters& params,
    RewardConvention convention = RewardConvention::kGeneralized);

/// n-choose-k as a double (exact for the small arguments used here).
double binomial_coefficient(int n, int k);

}  // namespace nvp::core
