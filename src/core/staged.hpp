#pragma once

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "src/core/analyzer.hpp"
#include "src/core/params.hpp"
#include "src/core/reliability.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/petri/reachability.hpp"
#include "src/runtime/lru_cache.hpp"

namespace nvp::core {

/// The analysis pipeline split into three independently cached stages:
///
///   structure — net construction, reachability exploration, assembly plan,
///               (i, j, k) state classification. Depends only on the
///               *structural* parameter subset (N, f, r, rejuvenation flag,
///               firing semantics, voter extension, detection on/off).
///   rates     — a fresh net's rates poured into the cached structure
///               (TangibleReachabilityGraph::repoured) and solved to the
///               stationary distribution. Depends on the structure key plus
///               every timing parameter and the solver options.
///   rewards   — R_{i,j,k} evaluated over the cached distribution. Depends
///               on the rates key plus the reward parameters, convention
///               and attachment. A separate per-class reward *table* cache
///               is keyed by structure + reward parameters only, so
///               rate-only sweeps skip the reward-model evaluation too.
///
/// Which settable parameter feeds the rates or the reward keys is read from
/// the parameter table (params.hpp). The rewards stage is the outermost
/// cache and store tier: ReliabilityAnalyzer::analyze(params) is
/// staged_analyze.
///
/// Every stage result is bit-identical to the cold monolithic path: the
/// cold path itself runs through the same explore/pour/plan/pour code, and
/// all floating-point accumulation orders are preserved (see DESIGN.md
/// §10).

/// Stage-1 artifact: everything derivable from the structural parameters.
/// Immutable and shared (the graph's symbolic skeleton is itself shared
/// with every repoured copy).
struct StructureArtifact {
  /// Explored graph, poured with the rates of the parameters that built it
  /// (usable directly; the rates stage re-pours with the current point's
  /// parameters).
  petri::TangibleReachabilityGraph graph;
  /// Deterministic-group partition and CSR slot patterns.
  markov::AssemblyPlan plan;

  /// Module-state class of one tangible state. For a heterogeneous
  /// (module-group) model, `groups` holds the flattened per-group
  /// (healthy, compromised, down) triples and the three scalars are their
  /// sums; for homogeneous models `groups` stays empty.
  struct StateClass {
    int healthy = 0;
    int compromised = 0;
    int down = 0;
    bool voter_up = true;
    std::vector<int> groups;
  };
  std::vector<StateClass> state_class;  ///< one per tangible state
  /// Distinct (i, j, k) classes in ascending tuple order — the iteration
  /// order of the fused analyzer's std::map aggregation, so the emitted
  /// distribution is bit-identical. For heterogeneous models the classes
  /// are distinct per-group count vectors (ascending lexicographic order;
  /// see `group_classes`) and this vector carries their aggregate sums,
  /// which may then repeat.
  std::vector<std::tuple<int, int, int>> classes;
  /// Flattened per-group count vector of each class; empty for homogeneous
  /// structures. Parallel to `classes`.
  std::vector<std::vector<int>> group_classes;
  std::vector<std::size_t> class_of_state;  ///< index into `classes`
};

/// Stage-2 artifact: the solved stationary distribution plus the solver
/// telemetry AnalysisResult reports.
struct RatesArtifact {
  linalg::Vector probabilities;
  bool pure_ctmc = false;
  markov::SolverBackend backend_used = markov::SolverBackend::kDense;
  std::size_t matrix_nonzeros = 0;
};

/// Cache keys. Each stage key embeds the previous stage's key, so a change
/// in any upstream parameter invalidates exactly the downstream stages.
std::uint64_t structure_stage_key(const SystemParameters& params);
std::uint64_t rates_stage_key(
    const SystemParameters& params,
    const markov::DspnSteadyStateSolver::Options& solver);
std::uint64_t reward_table_stage_key(const SystemParameters& params,
                                     RewardConvention convention);
std::uint64_t rewards_stage_key(const SystemParameters& params,
                                const ReliabilityAnalyzer::Options& options);

/// Stage evaluators. `use_cache = false` bypasses the stage caches entirely
/// (the fully cold path the benchmarks and equivalence tests compare
/// against); it never reads or writes them.
std::shared_ptr<const StructureArtifact> staged_structure(
    const SystemParameters& params, bool use_cache);
std::shared_ptr<const RatesArtifact> staged_rates(
    const SystemParameters& params, const StructureArtifact& structure,
    const markov::DspnSteadyStateSolver::Options& solver, bool use_cache);
std::shared_ptr<const std::vector<double>> staged_reward_table(
    const SystemParameters& params, RewardConvention convention,
    const StructureArtifact& structure, bool use_cache);

/// Full staged analysis with the convention-derived reward model; what
/// ReliabilityAnalyzer::analyze(params) runs. Only an analysis that neither
/// the rewards cache nor its store tier answers counts in
/// core.analyzer.solves.
AnalysisResult staged_analyze(const SystemParameters& params,
                              const ReliabilityAnalyzer::Options& options);

/// Staged analysis with a caller-supplied reward model: reuses the
/// structure and rates stages, but the rewards stage is evaluated directly
/// (a caller model has no canonical identity to key a cache on).
AnalysisResult staged_analyze(const SystemParameters& params,
                              const ReliabilityAnalyzer::Options& options,
                              const ReliabilityModel& rewards);

/// Point-in-time counters of every cache level of the staged pipeline.
struct StageCacheStats {
  runtime::CacheStats structure;
  runtime::CacheStats rates;
  runtime::CacheStats reward_table;
  runtime::CacheStats rewards;
  runtime::CacheStats whole_result;  ///< tier removed; always zero
};
StageCacheStats stage_cache_stats();

/// Drops every stage cache and resets its counters (benchmark phase
/// separation; tests).
void clear_stage_caches();

}  // namespace nvp::core
