#pragma once

#include <string>
#include <vector>

#include "src/core/analyzer.hpp"
#include "src/core/params.hpp"
#include "src/fault/error.hpp"

namespace nvp::core {

/// One evaluated architecture point. A candidate whose solve failed under
/// graceful degradation carries `ok = false` plus the error envelope (its
/// reliability fields are meaningless and sort to the bottom;
/// `tangible_states` still reports the failed model's size when the error
/// recorded it).
struct ArchitectureResult {
  int n = 0;
  int f = 0;
  int r = 0;
  bool rejuvenation = false;
  /// Module groups of a heterogeneous candidate; empty for homogeneous
  /// ones.
  std::vector<ModuleGroup> groups;
  double expected_reliability = 0.0;
  std::size_t tangible_states = 0;
  /// Reliability gain per added module version over the cheapest feasible
  /// architecture in the same family (cost proxy: module count).
  double reliability_per_module = 0.0;
  bool ok = true;
  fault::ErrorInfo error;

  std::string label() const;
};

/// Explorer for the architecture space the paper opens but does not sweep:
/// all feasible (N, f, r, rejuvenation) combinations in a range, evaluated
/// under the generalized reliability model (the verbatim functions exist
/// only for the paper's two points). Feasibility: n >= 3f + 1 without and
/// n >= 3f + 2r + 1 with rejuvenation.
class ArchitectureSpaceExplorer {
 public:
  struct Options {
    int max_versions = 10;
    int max_faulty = 2;
    int max_rejuvenating = 2;
    RewardAttachment attachment = RewardAttachment::kOperationalStatesOnly;
    /// Solver config of every candidate solve: the caller's backend,
    /// fallback chain and attempt deadline. kAuto lets small architectures
    /// use dense LU while the large-N tail of the sweep (the reason this
    /// explorer exists) switches to a sparse backend.
    markov::SolverConfig solver;
    /// Also enumerate heterogeneous two-group candidates: for every
    /// feasible (N, f, r) point, every split of the N modules into a
    /// baseline group and a hardened group of m = 1..N-1 modules. The
    /// hardened group compromises hardened_mtc_factor times slower, votes
    /// with hardened_weight, and (optionally) repairs imperfectly with
    /// hardened_repair_degradation. Splits whose weighted quota is
    /// infeasible (total weight < 3 W_f + 2 W_r + w_min) are skipped.
    bool heterogeneous = false;
    double hardened_mtc_factor = 4.0;
    double hardened_weight = 2.0;
    double hardened_repair_degradation = 0.0;
  };

  ArchitectureSpaceExplorer() = default;
  explicit ArchitectureSpaceExplorer(Options options) : options_(options) {}

  /// Evaluates every feasible architecture with the given Table II
  /// parameters (n/f/r/rejuvenation fields of `base` are ignored) as one
  /// analyze_points batch, sorted by descending expected reliability. A
  /// candidate whose solve fails degrades into an error envelope that keeps
  /// the failed model's state count, unless `policy.strict`, which
  /// rethrows.
  std::vector<ArchitectureResult> explore(
      const SystemParameters& base, const fault::Policy& policy = {}) const;

  /// The architecture with the highest expected reliability per module
  /// count <= `budget` (the deployment question: how to spend a fixed
  /// hardware budget). Returns nullopt-like empty result when none is
  /// feasible within budget (budget < 4).
  std::vector<ArchitectureResult> best_within_budget(
      const SystemParameters& base, int budget) const;

 private:
  Options options_{};
};

}  // namespace nvp::core
