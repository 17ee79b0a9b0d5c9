#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/analyzer.hpp"
#include "src/core/params.hpp"
#include "src/core/reliability.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/markov/rewards.hpp"
#include "src/petri/reachability.hpp"
#include "src/runtime/lru_cache.hpp"

namespace nvp::core {

/// The analysis pipeline split into three independently cached stages:
///
///   structure — net construction, reachability exploration, assembly plan,
///               per-group module-state classification. Depends only on the
///               *structural* parameter subset (N, f, r, rejuvenation flag,
///               firing semantics, voter extension, detection on/off).
///   rates     — a fresh net's rates poured into the cached structure
///               (TangibleReachabilityGraph::repoured) and solved to the
///               stationary distribution. Depends on the structure key plus
///               every timing parameter and the solver options.
///   rewards   — the gated class rewards (state_rewards) attached to the
///               cached distribution. Depends on the rates key plus the
///               reward parameters, convention and attachment. A separate per-class reward *table* cache
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

  /// What the reward gates read of one tangible state: its down-or-
  /// rejuvenating module count, summed over the groups, and whether its
  /// voter is up.
  struct StateClass {
    int down = 0;
    bool voter_up = true;
  };
  std::vector<StateClass> state_class;  ///< one per tangible state
  /// Distinct module-state classes, each the flattened per-group (healthy,
  /// compromised, down) triples of GroupReliabilityModel, in ascending
  /// lexicographic order. For one group that is the ascending (i, j, k)
  /// order of the fused analyzer's std::map aggregation, so the emitted
  /// distribution is bit-identical.
  std::vector<std::vector<int>> classes;
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

/// The one state reward, per tangible state of `structure`: the attachment
/// gate (kOperationalStatesOnly zeroes a state with a down module), then
/// the voter gate (0 while the voter is down), then the state's class entry
/// of `table` (staged_reward_table, or a caller model's table).
/// staged_analyze, Engine::simulate (through marking_reward) and
/// TransientReliabilityAnalyzer all attach it, so they estimate one
/// quantity.
std::vector<double> state_rewards(const StructureArtifact& structure,
                                  const std::vector<double>& table,
                                  RewardAttachment attachment);

/// state_rewards under `options`' convention and attachment as a function
/// of a tangible marking of PerceptionModelFactory::build(params)'s net —
/// the reward a simulation of that net attaches. The class rewards are
/// evaluated once, here; each call is one marking lookup.
markov::MarkingReward marking_reward(
    const SystemParameters& params,
    const ReliabilityAnalyzer::Options& options);

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
