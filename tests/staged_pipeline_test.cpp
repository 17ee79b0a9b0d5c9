// Property tests for the staged analysis pipeline (src/core/staged.*): a
// randomized walk over SystemParameters mutations, checking at every step
// that the staged (cached) analyzer is bit-identical to a fresh fully cold
// analyzer, and that the stage caches reuse exactly what the mutation kind
// allows — rate-only mutations must hit the structure cache, reward-only
// mutations must additionally hit the rates cache.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/core/analyzer.hpp"
#include "src/core/staged.hpp"

namespace nvp::core {
namespace {

// Exact comparison on purpose: the staged pipeline's contract is
// bit-identity with the cold path, not numerical closeness.
void expect_bit_identical(const AnalysisResult& staged,
                          const AnalysisResult& cold, int step) {
  EXPECT_EQ(staged.expected_reliability, cold.expected_reliability)
      << "step " << step;
  EXPECT_EQ(staged.tangible_states, cold.tangible_states) << "step " << step;
  EXPECT_EQ(staged.used_dspn_solver, cold.used_dspn_solver)
      << "step " << step;
  EXPECT_EQ(staged.backend_used, cold.backend_used) << "step " << step;
  EXPECT_EQ(staged.matrix_nonzeros, cold.matrix_nonzeros) << "step " << step;
  ASSERT_EQ(staged.state_distribution.size(), cold.state_distribution.size())
      << "step " << step;
  for (std::size_t i = 0; i < cold.state_distribution.size(); ++i) {
    const auto& a = staged.state_distribution[i];
    const auto& b = cold.state_distribution[i];
    EXPECT_EQ(a.healthy, b.healthy) << "step " << step << " class " << i;
    EXPECT_EQ(a.compromised, b.compromised)
        << "step " << step << " class " << i;
    EXPECT_EQ(a.down, b.down) << "step " << step << " class " << i;
    EXPECT_EQ(a.probability, b.probability)
        << "step " << step << " class " << i;
    EXPECT_EQ(a.reliability, b.reliability)
        << "step " << step << " class " << i;
  }
}

TEST(StagedPipeline, RandomizedMutationWalkMatchesColdAnalyzer) {
  clear_stage_caches();
  ReliabilityAnalyzer::Options cold_options;
  cold_options.use_cache = false;
  const ReliabilityAnalyzer staged;  // default options: use_cache = true
  const ReliabilityAnalyzer cold(cold_options);

  std::mt19937_64 rng(20260807);
  std::uniform_real_distribution<double> unit(0.05, 0.95);
  std::uniform_real_distribution<double> scale(0.5, 2.0);

  SystemParameters params = SystemParameters::paper_six_version();
  enum class Mutation { kStructural, kRateOnly, kRewardOnly };

  // Structural pool: every entry satisfies n >= 3f + 2r + 1 (rejuvenating)
  // or n >= 3f + 1 (plain), so any combination with the drifting timing
  // parameters validates.
  struct Structure {
    int n, f, r;
    bool rejuvenation;
  };
  const std::vector<Structure> structures = {
      {6, 1, 1, true}, {7, 1, 1, true}, {8, 1, 2, true},
      {6, 1, 1, false}, {7, 2, 1, false}};

  // Warm the initial point: the per-step invariants below are about what a
  // *mutation* may invalidate, so the walk starts from populated stages
  // (exactly like the sweep drivers' serial first point).
  expect_bit_identical(staged.analyze(params), cold.analyze(params), -1);

  for (int step = 0; step < 50; ++step) {
    // Interleave: every third step changes the structure, the rest
    // alternate rate-only and reward-only mutations.
    const Mutation kind = step % 3 == 2 ? Mutation::kStructural
                          : step % 2 == 0 ? Mutation::kRateOnly
                                          : Mutation::kRewardOnly;
    switch (kind) {
      case Mutation::kStructural: {
        const auto& s = structures[rng() % structures.size()];
        params.n_versions = s.n;
        params.max_faulty = s.f;
        params.max_rejuvenating = s.r;
        params.rejuvenation = s.rejuvenation;
        break;
      }
      case Mutation::kRateOnly:
        // Continuous multiplicative drift: each step's timing vector is
        // fresh, so the rates stage must miss while the structure hits.
        params.mean_time_to_compromise *= scale(rng);
        params.mean_time_to_failure *= scale(rng);
        if (step % 4 == 0) params.rejuvenation_interval *= scale(rng);
        break;
      case Mutation::kRewardOnly:
        params.alpha = unit(rng);
        params.p = unit(rng) * 0.2;
        params.p_prime = unit(rng);
        break;
    }
    params.validate();

    const StageCacheStats before = stage_cache_stats();
    const AnalysisResult staged_result = staged.analyze(params);
    const StageCacheStats after = stage_cache_stats();
    const AnalysisResult cold_result = cold.analyze(params);
    expect_bit_identical(staged_result, cold_result, step);

    // Reuse invariants per mutation kind. A fresh-key mutation can only
    // miss in the stages downstream of what it changed.
    const auto misses = [&](const runtime::CacheStats& a,
                            const runtime::CacheStats& b) {
      return b.misses - a.misses;
    };
    switch (kind) {
      case Mutation::kStructural:
        // Revisiting a pool entry hits; a first visit misses. Either way
        // at most one exploration happens.
        EXPECT_LE(misses(before.structure, after.structure), 1u)
            << "step " << step;
        break;
      case Mutation::kRateOnly:
        EXPECT_EQ(misses(before.structure, after.structure), 0u)
            << "step " << step << ": rate-only mutation re-explored";
        EXPECT_EQ(misses(before.rates, after.rates), 1u) << "step " << step;
        EXPECT_EQ(misses(before.reward_table, after.reward_table), 0u)
            << "step " << step
            << ": rate-only mutation rebuilt the reward table";
        break;
      case Mutation::kRewardOnly:
        EXPECT_EQ(misses(before.structure, after.structure), 0u)
            << "step " << step << ": reward-only mutation re-explored";
        EXPECT_EQ(misses(before.rates, after.rates), 0u)
            << "step " << step << ": reward-only mutation re-solved";
        break;
    }
  }
}

TEST(StagedPipeline, UseCacheFalseBypassesEveryStage) {
  clear_stage_caches();
  ReliabilityAnalyzer::Options cold_options;
  cold_options.use_cache = false;
  const ReliabilityAnalyzer cold(cold_options);
  const auto params = SystemParameters::paper_six_version();
  const auto first = cold.analyze(params);
  const auto second = cold.analyze(params);
  expect_bit_identical(first, second, 0);
  const StageCacheStats stats = stage_cache_stats();
  EXPECT_EQ(stats.structure.lookups(), 0u);
  EXPECT_EQ(stats.rates.lookups(), 0u);
  EXPECT_EQ(stats.reward_table.lookups(), 0u);
  EXPECT_EQ(stats.rewards.lookups(), 0u);
}

/// Which stage keys differ between two parameter points.
struct KeyDiff {
  bool structure, rates, reward_table, rewards;
};

KeyDiff key_diff(const SystemParameters& a, const SystemParameters& b) {
  const ReliabilityAnalyzer::Options options;
  return {structure_stage_key(a) != structure_stage_key(b),
          rates_stage_key(a, options.solver) !=
              rates_stage_key(b, options.solver),
          reward_table_stage_key(a, options.convention) !=
              reward_table_stage_key(b, options.convention),
          rewards_stage_key(a, options) != rewards_stage_key(b, options)};
}

void expect_only_stage_changes(const KeyDiff& diff, ParameterStage stage) {
  EXPECT_FALSE(diff.structure);
  EXPECT_EQ(diff.rates, stage == ParameterStage::kRates);
  EXPECT_EQ(diff.reward_table, stage == ParameterStage::kRewards);
  EXPECT_TRUE(diff.rewards);
}

void expect_every_key_changes(const KeyDiff& diff) {
  EXPECT_TRUE(diff.structure);
  EXPECT_TRUE(diff.rates);
  EXPECT_TRUE(diff.reward_table);
  EXPECT_TRUE(diff.rewards);
}

TEST(StagedPipeline, StageKeysEmbedUpstreamKeys) {
  // Every parameter-table row feeds exactly its own stage: perturbing it
  // leaves the structure key alone, changes the rates key iff it is a
  // rates row and the reward-table key iff it is a rewards row, and always
  // changes the rewards key. The 0-vs-positive predicates of detection and
  // imperfect repair are structural, so the base values are positive.
  auto base = SystemParameters::paper_six_version();
  base.detection_rate = 0.01;
  auto grouped = base;
  grouped.groups = {base.inherited_group(4), base.inherited_group(2)};
  grouped.groups[1].repair_degradation = 0.1;

  for (const ParameterField& field : parameter_fields()) {
    SCOPED_TRACE(field.name);
    if (field.system != nullptr) {
      auto perturbed = base;
      perturbed.*field.system *= 1.5;
      expect_only_stage_changes(key_diff(base, perturbed), field.stage);
    }
    if (field.group != nullptr) {
      auto perturbed = grouped;
      perturbed.groups[1].*field.group *= 1.5;
      expect_only_stage_changes(key_diff(grouped, perturbed), field.stage);
    }
  }

  // The voter timings have no table row and are hashed by hand.
  for (double SystemParameters::*voter :
       {&SystemParameters::voter_mtbf, &SystemParameters::voter_mttr}) {
    auto perturbed = base;
    perturbed.*voter *= 2.0;
    expect_only_stage_changes(key_diff(base, perturbed),
                              ParameterStage::kRates);
  }

  // Structural parameters change every key.
  const auto paper = SystemParameters::paper_six_version();
  std::vector<SystemParameters> structural(8, paper);
  structural[0].n_versions = 7;
  structural[1].max_faulty = 2;
  structural[2].max_rejuvenating = 2;
  structural[3].rejuvenation = false;
  structural[4].semantics = FiringSemantics::kInfiniteServer;
  structural[5].voter_can_fail = true;
  structural[6].detection_rate = 0.01;
  structural[7].groups = {paper.inherited_group(4), paper.inherited_group(2)};
  structural[7].groups[1].repair_degradation = 0.1;
  for (std::size_t i = 0; i < structural.size(); ++i) {
    SCOPED_TRACE(i);
    expect_every_key_changes(key_diff(paper, structural[i]));
  }
  auto recounted = grouped;
  recounted.groups[0].count = 3;
  recounted.groups[1].count = 3;
  expect_every_key_changes(key_diff(grouped, recounted));
  auto perfect_repair = grouped;
  perfect_repair.groups[1].repair_degradation = 0.0;
  expect_every_key_changes(key_diff(grouped, perfect_repair));
}

}  // namespace
}  // namespace nvp::core
