#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace nvp::core {

/// Firing semantics of the exponential life-cycle transitions (Tc, Tf, Tr).
/// The paper's numbers are produced by TimeNET's default single-server
/// semantics (one compromise/failure/repair event in flight at a time, as in
/// the threat model's "attackers can compromise the accuracy of one ML
/// module per time"). Infinite-server scales each rate by the number of
/// tokens enabling the transition and is provided for ablation.
enum class FiringSemantics { kSingleServer, kInfiniteServer };

/// Which reward (reliability) functions to attach to the states.
///  * kPaperVerbatim — the exact Appendix A/B expressions, including the
///    simplifications/typos discussed in DESIGN.md §5; this reproduces the
///    paper's numbers.
///  * kGeneralized   — the rigorous common-cause derivation for any (N,f,r).
///  * kStrict        — like kGeneralized, but the reward is the probability
///    that the voter actually produces a *correct* output (inconclusive
///    outputs are not credited as reliable).
enum class RewardConvention { kPaperVerbatim, kGeneralized, kStrict };

/// "verbatim" / "generalized" / "strict": the one spelling of each
/// convention that nvpcli, nvpd and the benches accept and print.
const char* to_string(RewardConvention convention);
/// The convention spelled `name`; nullopt for any other spelling.
std::optional<RewardConvention> parse_convention(std::string_view name);
/// "verbatim|generalized|strict", for rejection messages.
std::string convention_names();

/// One group of interchangeable ML module versions inside a heterogeneous
/// architecture. The paper's models are the special case of a single group;
/// a non-empty SystemParameters::groups vector generalizes every layer to
/// per-group rates/inaccuracies (Gao, Wen & Machida's weighted-voting
/// follow-up), per-group voting weights, and imperfect repair (Flammini et
/// al., arXiv:1304.6656).
struct ModuleGroup {
  int count = 0;  ///< modules in this group (sum over groups = n_versions)

  double mean_time_to_compromise = 1523.0;  ///< 1/lambda_c of this group
  double mean_time_to_failure = 3000.0;     ///< 1/lambda of this group
  double mean_time_to_repair = 3.0;         ///< 1/mu of this group

  double p = 0.08;       ///< healthy inaccuracy of this group's modules
  double p_prime = 0.5;  ///< compromised inaccuracy of this group's modules

  /// Voting weight of each module in this group. Uniform weights reproduce
  /// the counting voter; heavier groups (e.g. a formally verified or
  /// hardware-diverse version) move the voter toward trusting them. The
  /// decision quota generalizes 2f+r+1 to weighted mass — see
  /// SystemParameters::weighted_quota().
  double weight = 1.0;

  /// Imperfect repair (Flammini-style): with this probability q a completed
  /// repair returns the module *degraded* instead of good-as-new. A
  /// degraded module votes like a healthy one (inaccuracy p) but is
  /// compromised at the elevated rate lambda_c / (1 - q) — the single knob
  /// doubles as the per-group rate multiplier. Must be in [0, 1); 0 keeps
  /// the classic good-as-new repair and emits no degraded place at all.
  double repair_degradation = 0.0;
};

/// Input parameters of the DSPN models (the paper's Table II) plus the
/// architectural knobs (N, f, r, rejuvenation on/off, firing semantics).
/// Times are in seconds, rates are implied as their reciprocals.
struct SystemParameters {
  int n_versions = 6;  ///< N: number of ML module versions
  int max_faulty = 1;  ///< f: tolerated compromised modules
  int max_rejuvenating = 1;  ///< r: simultaneous rejuvenations/recoveries

  double alpha = 0.5;    ///< error-probability dependency between modules
  double p = 0.08;       ///< inaccuracy of a healthy ML module
  double p_prime = 0.5;  ///< inaccuracy of a compromised ML module

  double mean_time_to_compromise = 1523.0;  ///< 1/lambda_c (transition Tc)
  double mean_time_to_failure = 3000.0;     ///< 1/lambda (transition Tf)
  double mean_time_to_repair = 3.0;         ///< 1/mu (transition Tr)
  double rejuvenation_duration = 3.0;  ///< base of 1/mu_r = #Pmr * this (Trj)
  double rejuvenation_interval = 600.0;  ///< 1/gamma (deterministic Trc)

  bool rejuvenation = true;  ///< build the Fig. 2(b,c) model vs Fig. 2(a)
  FiringSemantics semantics = FiringSemantics::kSingleServer;

  // ---- extensions beyond the paper (all disabled by default) -----------

  /// Reactive recovery: when > 0, a detection mechanism spots compromised
  /// modules at this rate (transition Td: C -> H), modelling
  /// anomaly-detection-triggered recovery as an alternative or complement
  /// to the proactive time-based rejuvenation. 0 disables the mechanism.
  double detection_rate = 0.0;

  /// Voter failure model: assumption A.4 ignores voter failures "for the
  /// sake of simplicity"; enabling this adds an up/down life-cycle for the
  /// voter (exponential MTBF/MTTR) during whose down phase the system
  /// produces no reliable output (reward 0).
  bool voter_can_fail = false;
  double voter_mtbf = 1.0e6;  ///< mean time between voter failures
  double voter_mttr = 10.0;   ///< mean time to repair the voter

  /// Heterogeneous module groups. Empty (the default) means exactly the
  /// paper's homogeneous semantics driven by the scalar fields above. When
  /// non-empty, the group counts must sum to n_versions and the scalar
  /// rate/inaccuracy fields are ignored in favour of the per-group values
  /// (alpha stays global: the common cause couples modules *within* a
  /// group; groups err independently of each other).
  ///
  /// Canonical form: a single group with uniform weight and perfect repair
  /// is semantically identical to the scalar form, and canonicalized()
  /// folds it back so such configs hash to the same cache/store keys and
  /// run the exact legacy code paths (bit-identical results by
  /// construction). Multi-group configs never fold — two groups of 3 are
  /// *not* one pool of 6 (per-group single-server life-cycles differ).
  std::vector<ModuleGroup> groups;

  /// True when, after canonicalization, the configuration is genuinely
  /// heterogeneous (multi-group, non-uniform weight, or imperfect repair).
  bool heterogeneous() const;

  /// Folds a groups vector that is semantically the scalar form (single
  /// group, uniform weight, perfect repair) back into the scalar fields,
  /// so homogeneous configs have one canonical identity regardless of how
  /// they were spelled. Idempotent; returns *this otherwise unchanged.
  SystemParameters canonicalized() const;

  /// The groups vector with the scalar form expanded to one group — the
  /// uniform view every group-generalized consumer iterates over.
  std::vector<ModuleGroup> effective_groups() const;

  /// A group of `count` modules whose fields inherit this configuration's
  /// system-wide values; per-group-only fields keep their ModuleGroup{}
  /// defaults. The base that `--groups` specs and nvpd `groups` entries
  /// override field by field.
  ModuleGroup inherited_group(int count) const;

  /// Per-module voting weights in module order (group by group). All 1.0
  /// for the scalar form.
  std::vector<double> module_weights() const;

  /// Weighted decision quota Q generalizing the counting threshold: with
  /// W_f = sum of the f largest module weights, W_r = sum of the r largest
  /// (0 without rejuvenation) and w_min the smallest weight,
  /// Q = 2 W_f + W_r + w_min. For unit weights this is exactly
  /// voting_threshold(). A verdict (correct or erroneous) requires agreeing
  /// weight >= Q; the adversary/rejuvenator is assumed to take the heaviest
  /// modules, which is what makes the rule safe.
  double weighted_quota() const;

  /// Weighted-quota feasibility: total weight W >= 3 W_f + 2 W_r + w_min,
  /// i.e. the voter stays decidable with the f heaviest modules lying and
  /// (with rejuvenation) the r heaviest silent. Reduces to n >= 3f + 1 /
  /// n >= 3f + 2r + 1 for uniform weights; validate() enforces it.
  bool weighted_feasible() const;

  /// Voter correctness threshold: 2f+1 without rejuvenation, 2f+r+1 with
  /// (assumptions A.2/A.3).
  int voting_threshold() const;

  /// Largest k (down/rejuvenating modules) for which the voter can still
  /// gather `voting_threshold()` outputs: n - voting_threshold().
  int max_tolerable_down() const;

  /// Throws util::ContractViolation when a parameter is out of range
  /// (probabilities outside [0,1], non-positive times, n < 3f+1 or
  /// n < 3f+2r+1 with rejuvenation, ...). With groups, the counting rule
  /// generalizes to weighted mass: total weight W >= 3 W_f + 2 W_r + w_min
  /// (which reduces to the unit rules for uniform weights).
  void validate() const;

  /// One-line human-readable description.
  std::string describe() const;

  /// The paper's four-version configuration (N = 4, f = 1, no
  /// rejuvenation).
  static SystemParameters paper_four_version();

  /// The paper's six-version configuration (N = 6, f = 1, r = 1, with the
  /// time-based rejuvenation mechanism).
  static SystemParameters paper_six_version();
};

/// The staged-pipeline stage whose cache key a settable parameter feeds.
/// Structural parameters (N, f, r, rejuvenation, ...) are not settable by
/// name and are hashed by hand in structure_stage_key.
enum class ParameterStage { kRates, kRewards };

/// One user-settable double. `name` is at once the nvpcli flag, the nvpd
/// `params` key and the sweep `--param` value. `system` is null for a
/// per-group-only row, `group` for a system-wide-only row.
struct ParameterField {
  const char* name;
  ParameterStage stage;
  double SystemParameters::*system;
  double ModuleGroup::*group;
};

/// Every settable double, once: parsers, sweep setters, group inheritance
/// and the rates / reward-table / rewards stage keys all loop over it.
/// Rows with a group member come in `--groups` positional order (after the
/// count): mttc, mttf, mttr, p, p-prime, weight, repair-degradation.
std::span<const ParameterField> parameter_fields();

/// The row called `name`, or null.
const ParameterField* find_parameter_field(std::string_view name);

}  // namespace nvp::core
