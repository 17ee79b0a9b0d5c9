#include "src/core/staged.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <tuple>

#include "src/core/artifact_codec.hpp"
#include "src/core/model_factory.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/fnv.hpp"
#include "src/store/store.hpp"
#include "src/util/contracts.hpp"

namespace nvp::core {

namespace {

/// Disk tier of the staged pipeline: between a memory-cache miss and a cold
/// recompute, try the persistent store. `decode` throws on any schema or
/// consistency violation (the store already rejected checksum damage) — a
/// throw counts as `store.corrupt` and falls through to `build`, whose
/// result is re-encoded and rewritten, repairing the entry. With no global
/// store open this is exactly `build()`.
template <typename Build, typename Decode, typename Encode>
auto store_tiered(store::Kind kind, std::uint64_t key, Build&& build,
                  Decode&& decode, Encode&& encode) -> decltype(build()) {
  store::Store* disk = store::global();
  if (disk == nullptr) return build();
  if (auto bytes = disk->get(kind, key)) {
    try {
      return decode(bytes->data(), bytes->size());
    } catch (const std::exception&) {
      static obs::Counter& corrupt =
          obs::Registry::global().counter("store.corrupt");
      corrupt.add();
    }
  }
  auto result = build();
  const std::vector<std::uint8_t> payload = encode(result);
  disk->put(kind, key, payload.data(), payload.size());
  return result;
}

using StructureCache =
    runtime::ShardedLruCache<std::shared_ptr<const StructureArtifact>>;
using RatesCache =
    runtime::ShardedLruCache<std::shared_ptr<const RatesArtifact>>;
using RewardTableCache =
    runtime::ShardedLruCache<std::shared_ptr<const std::vector<double>>>;
using RewardsCache = runtime::ShardedLruCache<AnalysisResult>;

// Structures are the heavy artifacts (graph skeleton + plan); an
// architecture-space exploration touches tens of distinct structures, not
// thousands. Rates/rewards entries are one vector each, sized so a full
// Fig. 3/4 reproduction (a few hundred distinct points) never thrashes.
StructureCache& structure_cache() {
  static StructureCache instance(/*capacity=*/256, /*shards=*/8,
                                 "core.structure_cache");
  return instance;
}

RatesCache& rates_cache() {
  static RatesCache instance(/*capacity=*/8192, /*shards=*/16,
                             "core.rates_cache");
  return instance;
}

RewardTableCache& reward_table_cache() {
  static RewardTableCache instance(/*capacity=*/1024, /*shards=*/8,
                                   "core.reward_table_cache");
  return instance;
}

RewardsCache& rewards_cache() {
  static RewardsCache instance(/*capacity=*/8192, /*shards=*/16,
                               "core.rewards_cache");
  return instance;
}

/// The (i, j, k) of a class: its per-group triples summed.
std::tuple<int, int, int> class_totals(const std::vector<int>& cls) {
  int i = 0, j = 0, k = 0;
  for (std::size_t g = 0; g < cls.size(); g += 3) {
    i += cls[g];
    j += cls[g + 1];
    k += cls[g + 2];
  }
  return {i, j, k};
}

/// Aggregates the distribution by class and attaches the per-state
/// rewards (state_rewards), preserving the fused analyzer's arithmetic:
/// per-state contributions accumulate in state order into the class slots,
/// classes are emitted in ascending order with their (i, j, k) summed over
/// the groups, and the final sort sees the same input sequence.
AnalysisResult assemble_result(const StructureArtifact& structure,
                               const RatesArtifact& rates,
                               const std::vector<double>& reward) {
  const obs::ScopedSpan span("core.attach_rewards");
  AnalysisResult result;
  result.tangible_states = structure.graph.size();
  result.used_dspn_solver = !rates.pure_ctmc;
  result.backend_used = rates.backend_used;
  result.matrix_nonzeros = rates.matrix_nonzeros;

  const std::size_t n_classes = structure.classes.size();
  std::vector<double> prob_mass(n_classes, 0.0);
  std::vector<double> reward_mass(n_classes, 0.0);
  for (std::size_t s = 0; s < structure.graph.size(); ++s) {
    const std::size_t ci = structure.class_of_state[s];
    prob_mass[ci] += rates.probabilities[s];
    reward_mass[ci] += rates.probabilities[s] * reward[s];
  }

  double expected = 0.0;
  result.state_distribution.reserve(n_classes);
  for (std::size_t ci = 0; ci < n_classes; ++ci) {
    const auto [i, j, k] = class_totals(structure.classes[ci]);
    StateProbability sp;
    sp.healthy = i;
    sp.compromised = j;
    sp.down = k;
    sp.probability = prob_mass[ci];
    sp.reliability =
        prob_mass[ci] > 0.0 ? reward_mass[ci] / prob_mass[ci] : 0.0;
    expected += reward_mass[ci];
    result.state_distribution.push_back(sp);
  }
  std::sort(result.state_distribution.begin(),
            result.state_distribution.end(),
            [](const StateProbability& a, const StateProbability& b) {
              return a.probability > b.probability;
            });
  result.expected_reliability = expected;
  return result;
}

/// Hashes the parameter-table rows of `stage`: the system-wide values, then
/// each group's.
void hash_stage_fields(runtime::Fnv1a& h, const SystemParameters& params,
                       ParameterStage stage) {
  for (const ParameterField& field : parameter_fields())
    if (field.stage == stage && field.system != nullptr)
      h.f64(params.*field.system);
  for (const ModuleGroup& g : params.groups)
    for (const ParameterField& field : parameter_fields())
      if (field.stage == stage && field.group != nullptr)
        h.f64(g.*field.group);
}

/// Runs one analysis that no cache answered under the `core.analyze` span,
/// counting it in core.analyzer.solves and timing it in
/// core.analyzer.solve_s.
template <typename Analyze>
AnalysisResult timed_analysis(Analyze&& analyze) {
  static obs::Counter& solves =
      obs::Registry::global().counter("core.analyzer.solves");
  static obs::Histogram& solve_s =
      obs::Registry::global().histogram("core.analyzer.solve_s");
  const obs::ScopedSpan span("core.analyze");
  const auto t0 = std::chrono::steady_clock::now();
  solves.add();
  AnalysisResult result = analyze();
  solve_s.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
  return result;
}

}  // namespace

std::uint64_t structure_stage_key(const SystemParameters& raw) {
  // Canonicalize first: a single perfect-repair group IS the scalar
  // configuration, and must hash to the same key so it hits the same
  // cached structures (bit-identity by construction).
  const SystemParameters params = raw.canonicalized();
  runtime::Fnv1a h;
  // Structural subset only: these parameters decide which places,
  // transitions, arcs, guards, and immediate weights the factory emits —
  // and therefore the reachability graph's shape. Timing values are
  // deliberately absent. Bump the tag when the factory's structural
  // mapping changes (v2: module-group models) or the structure codec's
  // layout does (v3: the assembly plan lost its lumping hint; v4: one class
  // list of per-group counts for every net), so entries of an older layout
  // are never looked up.
  h.str("core::staged/structure/v4");
  h.i32(params.n_versions)
      .i32(params.max_faulty)
      .i32(params.max_rejuvenating)
      .boolean(params.rejuvenation)
      .i32(static_cast<int>(params.semantics))
      .boolean(params.voter_can_fail)
      // Detection adds the Td transition only when the rate is positive;
      // the rate's value belongs to the rates stage.
      .boolean(params.detection_rate > 0.0);
  // Module groups change the net's shape through their counts and through
  // the presence of the degraded place (q > 0); the rate values belong to
  // the rates stage.
  h.u64(params.groups.size());
  for (const ModuleGroup& g : params.groups)
    h.i32(g.count).boolean(g.repair_degradation > 0.0);
  return h.digest();
}

std::uint64_t rates_stage_key(
    const SystemParameters& raw,
    const markov::DspnSteadyStateSolver::Options& solver) {
  const SystemParameters params = raw.canonicalized();
  runtime::Fnv1a h;
  h.str("core::staged/rates/v6");
  h.u64(structure_stage_key(params));
  hash_stage_fields(h, params, ParameterStage::kRates);
  // The voter extension's timings have no flag or nvpd key, so no table row.
  h.f64(params.voter_mtbf).f64(params.voter_mttr);
  // Every solver knob changes the solve's floating-point path (backend,
  // chain order, GMRES controls ...), so distributions must
  // never alias across configs; the canonical hash covers the complete
  // SolverConfig in one schema-tagged value.
  h.u64(solver.canonical_hash());
  return h.digest();
}

std::uint64_t reward_table_stage_key(const SystemParameters& raw,
                                     RewardConvention convention) {
  const SystemParameters params = raw.canonicalized();
  runtime::Fnv1a h;
  h.str("core::staged/reward_table/v3");
  // R_{i,j,k} depends on the class set (structure) and the error-model
  // parameters — not on any timing value, so the table survives every
  // rate-only mutation.
  h.u64(structure_stage_key(params));
  hash_stage_fields(h, params, ParameterStage::kRewards);
  h.i32(static_cast<int>(convention));
  return h.digest();
}

std::uint64_t rewards_stage_key(const SystemParameters& raw,
                                const ReliabilityAnalyzer::Options& options) {
  const SystemParameters params = raw.canonicalized();
  runtime::Fnv1a h;
  h.str("core::staged/rewards/v3");
  h.u64(rates_stage_key(params, options.solver));
  hash_stage_fields(h, params, ParameterStage::kRewards);
  h.i32(static_cast<int>(options.convention))
      .i32(static_cast<int>(options.attachment));
  return h.digest();
}

std::shared_ptr<const StructureArtifact> staged_structure(
    const SystemParameters& raw, bool use_cache) {
  const SystemParameters params = raw.canonicalized();
  auto build = [&]() -> std::shared_ptr<const StructureArtifact> {
    const obs::ScopedSpan span("core.stage.structure");
    auto artifact = std::make_shared<StructureArtifact>();
    const BuiltModel model = [&] {
      const obs::ScopedSpan build_span("core.model_build");
      return PerceptionModelFactory::build(params);
    }();
    artifact->graph = petri::TangibleReachabilityGraph::build(model.net);
    artifact->plan = markov::build_assembly_plan(artifact->graph);

    // Classes are distinct per-group count vectors in ascending
    // lexicographic order; each tangible state's down count and voter
    // state ride along for the reward gates.
    const std::size_t n = artifact->graph.size();
    std::map<std::vector<int>, std::size_t> class_index;
    std::vector<std::map<std::vector<int>, std::size_t>::iterator> slot;
    slot.reserve(n);
    artifact->state_class.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      const petri::Marking& m = artifact->graph.marking(s);
      artifact->state_class.push_back({model.down(m), model.voter_up(m)});
      slot.push_back(class_index.emplace(model.group_counts(m), 0u).first);
    }
    artifact->classes.reserve(class_index.size());
    for (auto& [cls, index] : class_index) {
      index = artifact->classes.size();
      artifact->classes.push_back(cls);
    }
    artifact->class_of_state.reserve(n);
    for (const auto& it : slot) artifact->class_of_state.push_back(it->second);
    return artifact;
  };
  if (!use_cache) return build();
  const std::uint64_t key = structure_stage_key(params);
  return structure_cache().get_or_compute(key, [&] {
    return store_tiered(
        store::Kind::kStructure, key, build,
        [&](const void* data, std::size_t size) {
          return decode_structure_artifact(data, size, params);
        },
        [](const std::shared_ptr<const StructureArtifact>& artifact) {
          return encode_structure_artifact(*artifact);
        });
  });
}

std::shared_ptr<const RatesArtifact> staged_rates(
    const SystemParameters& raw, const StructureArtifact& structure,
    const markov::DspnSteadyStateSolver::Options& solver_options,
    bool use_cache) {
  const SystemParameters params = raw.canonicalized();
  auto build = [&]() -> std::shared_ptr<const RatesArtifact> {
    const obs::ScopedSpan span("core.stage.rates");
    // A fresh net carries this point's rates; its structure is identical
    // by construction (the structure key pins every structural parameter),
    // which repoured() verifies via the fingerprint.
    const BuiltModel model = PerceptionModelFactory::build(params);
    const petri::TangibleReachabilityGraph graph =
        structure.graph.repoured(model.net);
    const markov::DspnSteadyStateSolver solver(solver_options);
    markov::DspnSteadyStateResult solution =
        solver.solve(graph, structure.plan);
    auto artifact = std::make_shared<RatesArtifact>();
    artifact->probabilities = std::move(solution.probabilities);
    artifact->pure_ctmc = solution.pure_ctmc;
    artifact->backend_used = solution.backend_used;
    artifact->matrix_nonzeros = solution.matrix_nonzeros;
    return artifact;
  };
  if (!use_cache) return build();
  const std::uint64_t key = rates_stage_key(params, solver_options);
  return rates_cache().get_or_compute(key, [&] {
    return store_tiered(
        store::Kind::kRates, key, build,
        [](const void* data, std::size_t size) {
          return decode_rates_artifact(data, size);
        },
        [](const std::shared_ptr<const RatesArtifact>& artifact) {
          return encode_rates_artifact(*artifact);
        });
  });
}

std::shared_ptr<const std::vector<double>> staged_reward_table(
    const SystemParameters& raw, RewardConvention convention,
    const StructureArtifact& structure, bool use_cache) {
  const SystemParameters params = raw.canonicalized();
  auto build = [&]() -> std::shared_ptr<const std::vector<double>> {
    const obs::ScopedSpan span("core.stage.reward_table");
    // The paper's verbatim functions where they were published (one-group
    // 4v and 6v under kPaperVerbatim), the group model everywhere else.
    auto table = std::make_shared<std::vector<double>>();
    table->reserve(structure.classes.size());
    if (const auto verbatim = paper_verbatim_model(params, convention)) {
      for (const std::vector<int>& cls : structure.classes)
        table->push_back(verbatim->state_reliability(cls[0], cls[1], cls[2]));
    } else {
      const auto rewards = make_group_reliability_model(params, convention);
      for (const std::vector<int>& cls : structure.classes)
        table->push_back(rewards->state_reliability_flat(cls));
    }
    return table;
  };
  if (!use_cache) return build();
  const std::uint64_t key = reward_table_stage_key(params, convention);
  return reward_table_cache().get_or_compute(key, [&] {
    return store_tiered(
        store::Kind::kRewardTable, key, build,
        [](const void* data, std::size_t size) {
          return decode_reward_table(data, size);
        },
        [](const std::shared_ptr<const std::vector<double>>& table) {
          return encode_reward_table(*table);
        });
  });
}

std::vector<double> state_rewards(const StructureArtifact& structure,
                                  const std::vector<double>& table,
                                  RewardAttachment attachment) {
  std::vector<double> reward(structure.state_class.size());
  for (std::size_t s = 0; s < reward.size(); ++s) {
    const StructureArtifact::StateClass& sc = structure.state_class[s];
    const bool attached =
        attachment != RewardAttachment::kOperationalStatesOnly ||
        sc.down == 0;
    reward[s] = attached && sc.voter_up ? table[structure.class_of_state[s]]
                                        : 0.0;
  }
  return reward;
}

markov::MarkingReward marking_reward(
    const SystemParameters& raw,
    const ReliabilityAnalyzer::Options& options) {
  raw.validate();
  const SystemParameters params = raw.canonicalized();
  auto structure = staged_structure(params, options.use_cache);
  const auto table = staged_reward_table(params, options.convention,
                                         *structure, options.use_cache);
  return [structure, reward = state_rewards(*structure, *table,
                                            options.attachment)](
             const petri::Marking& m) {
    return reward[structure->graph.find(m).value()];
  };
}

AnalysisResult staged_analyze(const SystemParameters& raw,
                              const ReliabilityAnalyzer::Options& options) {
  raw.validate();
  const SystemParameters params = raw.canonicalized();
  // Runs only when neither the rewards cache nor its store tier answered,
  // so the solve counters record real work, never a hit.
  auto compute = [&] {
    return timed_analysis([&] {
      const auto structure = staged_structure(params, options.use_cache);
      const auto rates = staged_rates(params, *structure, options.solver,
                                      options.use_cache);
      const auto table = staged_reward_table(params, options.convention,
                                             *structure, options.use_cache);
      const obs::ScopedSpan rewards_span("core.stage.rewards");
      return assemble_result(
          *structure, *rates,
          state_rewards(*structure, *table, options.attachment));
    });
  };
  if (!options.use_cache) return compute();
  const std::uint64_t key = rewards_stage_key(params, options);
  return rewards_cache().get_or_compute(key, [&] {
    return store_tiered(
        store::Kind::kRewards, key, compute,
        [](const void* data, std::size_t size) {
          return decode_analysis_result(data, size);
        },
        [](const AnalysisResult& r) { return encode_analysis_result(r); });
  });
}

AnalysisResult staged_analyze(const SystemParameters& raw,
                              const ReliabilityAnalyzer::Options& options,
                              const ReliabilityModel& rewards) {
  raw.validate();
  // Caller-supplied scalar reward models apply to the aggregate (i, j, k)
  // of each class, including for heterogeneous structures.
  const SystemParameters params = raw.canonicalized();
  NVP_EXPECTS_MSG(rewards.versions() == params.n_versions,
                  "reward model does not match the number of versions");
  return timed_analysis([&] {
    const auto structure = staged_structure(params, options.use_cache);
    const auto rates =
        staged_rates(params, *structure, options.solver, options.use_cache);
    const obs::ScopedSpan rewards_span("core.stage.rewards");
    std::vector<double> table;
    table.reserve(structure->classes.size());
    for (const std::vector<int>& cls : structure->classes) {
      const auto [i, j, k] = class_totals(cls);
      table.push_back(rewards.state_reliability(i, j, k));
    }
    return assemble_result(
        *structure, *rates,
        state_rewards(*structure, table, options.attachment));
  });
}

StageCacheStats stage_cache_stats() {
  StageCacheStats stats;
  stats.structure = structure_cache().stats();
  stats.rates = rates_cache().stats();
  stats.reward_table = reward_table_cache().stats();
  stats.rewards = rewards_cache().stats();
  return stats;
}

void clear_stage_caches() {
  structure_cache().clear();
  rates_cache().clear();
  reward_table_cache().clear();
  rewards_cache().clear();
}

}  // namespace nvp::core
