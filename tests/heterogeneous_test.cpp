// Heterogeneous (module-group) architecture family: homogeneous configs
// must stay bit-identical to the pre-refactor scalar core (golden values
// captured before the module-group refactor landed), single-group spellings
// must fold to the same cache identity, and genuinely heterogeneous
// configurations — per-group rates, weighted voting, imperfect repair —
// must agree between the analytic DSPN solution, the DSPN simulator, and
// the Monte-Carlo perception system.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/core/analyzer.hpp"
#include "src/core/artifact_codec.hpp"
#include "src/core/engine.hpp"
#include "src/core/params.hpp"
#include "src/core/reliability.hpp"
#include "src/core/staged.hpp"
#include "src/core/voting.hpp"
#include "src/perception/system.hpp"
#include "src/util/contracts.hpp"

namespace {

using namespace nvp;
using core::ModuleGroup;
using core::RewardAttachment;
using core::RewardConvention;
using core::SystemParameters;
using core::Verdict;
using core::VotingScheme;

ModuleGroup group_of(const SystemParameters& params, int count) {
  ModuleGroup g;
  g.count = count;
  g.mean_time_to_compromise = params.mean_time_to_compromise;
  g.mean_time_to_failure = params.mean_time_to_failure;
  g.mean_time_to_repair = params.mean_time_to_repair;
  g.p = params.p;
  g.p_prime = params.p_prime;
  return g;
}

core::AnalysisResult analyze(const SystemParameters& params,
                             RewardConvention convention,
                             RewardAttachment attachment) {
  core::ReliabilityAnalyzer::Options options;
  options.convention = convention;
  options.attachment = attachment;
  return core::ReliabilityAnalyzer(options).analyze(params);
}

// ---- golden regression ------------------------------------------------------

// E[R_sys] of the two paper configurations for every convention/attachment
// pair, captured (%.17g) on the pre-refactor scalar core. EXPECT_EQ on
// doubles: the refactored pipeline must reproduce these to the last bit.
// The 4v rows solve a pure CTMC. The 6v rows solve its MRGP on the backend
// kAuto picks for it (dense: 70 states, interval 600 s); they were
// re-captured with `nvpcli analyze --paper 6v --convention C --attachment A
// --solver-config backend=dense --format json` when the dense solve stopped
// forming the conversion matrix and took nu C from exp(Q tau) alone.
TEST(HeterogeneousGolden, HomogeneousPipelineIsBitIdenticalToPreRefactor) {
  struct Golden {
    bool six;
    RewardConvention convention;
    RewardAttachment attachment;
    double value;
    std::size_t states;
  };
  const std::vector<Golden> golden = {
      {false, RewardConvention::kPaperVerbatim,
       RewardAttachment::kOperationalStatesOnly, 0.82145621238843192, 15},
      {false, RewardConvention::kPaperVerbatim,
       RewardAttachment::kAppendixMatrices, 0.82234868400008676, 15},
      {false, RewardConvention::kGeneralized,
       RewardAttachment::kOperationalStatesOnly, 0.78833044975196764, 15},
      {false, RewardConvention::kGeneralized,
       RewardAttachment::kAppendixMatrices, 0.78922292136362227, 15},
      {false, RewardConvention::kStrict,
       RewardAttachment::kOperationalStatesOnly, 0.45909670205435771, 15},
      {false, RewardConvention::kStrict,
       RewardAttachment::kAppendixMatrices, 0.45933476342748425, 15},
      {true, RewardConvention::kPaperVerbatim,
       RewardAttachment::kOperationalStatesOnly, 0.93748059231441094, 70},
      {true, RewardConvention::kPaperVerbatim,
       RewardAttachment::kAppendixMatrices, 0.94300906083620673, 70},
      {true, RewardConvention::kGeneralized,
       RewardAttachment::kOperationalStatesOnly, 0.93466923828045001, 70},
      {true, RewardConvention::kGeneralized,
       RewardAttachment::kAppendixMatrices, 0.94019630086059158, 70},
      {true, RewardConvention::kStrict,
       RewardAttachment::kOperationalStatesOnly, 0.85932934944827399, 70},
      {true, RewardConvention::kStrict,
       RewardAttachment::kAppendixMatrices, 0.86367461096826748, 70},
  };
  for (const Golden& g : golden) {
    const SystemParameters params =
        g.six ? SystemParameters::paper_six_version()
              : SystemParameters::paper_four_version();
    const auto analysis = analyze(params, g.convention, g.attachment);
    EXPECT_EQ(analysis.expected_reliability, g.value)
        << (g.six ? "6v" : "4v") << " convention="
        << static_cast<int>(g.convention)
        << " attachment=" << static_cast<int>(g.attachment);
    EXPECT_EQ(analysis.tangible_states, g.states);
  }
}

// ---- canonicalization: one scalar identity per homogeneous config -----------

TEST(HeterogeneousCanonical, SingleUniformGroupFoldsToScalarIdentity) {
  const SystemParameters scalar = SystemParameters::paper_six_version();
  SystemParameters grouped = scalar;
  grouped.groups = {group_of(scalar, scalar.n_versions)};
  EXPECT_FALSE(grouped.heterogeneous());
  EXPECT_TRUE(grouped.canonicalized().groups.empty());

  EXPECT_EQ(core::structure_stage_key(grouped),
            core::structure_stage_key(scalar));
  const markov::DspnSteadyStateSolver::Options solver;
  EXPECT_EQ(core::rates_stage_key(grouped, solver),
            core::rates_stage_key(scalar, solver));
  EXPECT_EQ(core::reward_table_stage_key(grouped,
                                         RewardConvention::kGeneralized),
            core::reward_table_stage_key(scalar,
                                         RewardConvention::kGeneralized));
  const core::ReliabilityAnalyzer::Options options;
  EXPECT_EQ(core::rewards_stage_key(grouped, options),
            core::rewards_stage_key(scalar, options));

  // And the analysis itself is the same scalar code path: 0 ulp apart.
  const auto a = analyze(scalar, RewardConvention::kGeneralized,
                         RewardAttachment::kAppendixMatrices);
  const auto b = analyze(grouped, RewardConvention::kGeneralized,
                         RewardAttachment::kAppendixMatrices);
  EXPECT_EQ(a.expected_reliability, b.expected_reliability);
  EXPECT_EQ(a.tangible_states, b.tangible_states);
}

TEST(HeterogeneousCanonical, SingleGroupWeightIsInertAndFolds) {
  // A uniform weight rescales quota and masses together, so a single
  // weighted group is still the scalar system.
  const SystemParameters scalar = SystemParameters::paper_four_version();
  SystemParameters grouped = scalar;
  ModuleGroup g = group_of(scalar, scalar.n_versions);
  g.weight = 3.0;
  grouped.groups = {g};
  EXPECT_FALSE(grouped.heterogeneous());
  EXPECT_EQ(core::structure_stage_key(grouped),
            core::structure_stage_key(scalar));
}

TEST(HeterogeneousCanonical, ImperfectRepairAndMultiGroupDoNotFold) {
  const SystemParameters scalar = SystemParameters::paper_four_version();
  SystemParameters degraded = scalar;
  ModuleGroup g = group_of(scalar, scalar.n_versions);
  g.repair_degradation = 0.2;
  degraded.groups = {g};
  EXPECT_TRUE(degraded.heterogeneous());
  EXPECT_NE(core::structure_stage_key(degraded),
            core::structure_stage_key(scalar));

  SystemParameters split = scalar;
  split.groups = {group_of(scalar, 2), group_of(scalar, 2)};
  EXPECT_TRUE(split.heterogeneous());
  EXPECT_NE(core::structure_stage_key(split),
            core::structure_stage_key(scalar));
}

TEST(HeterogeneousCanonical, GroupCountsMustSumToN) {
  SystemParameters params = SystemParameters::paper_four_version();
  params.groups = {group_of(params, 3)};
  EXPECT_THROW(params.validate(), util::ContractViolation);
}

// ---- weighted voting scheme -------------------------------------------------

TEST(WeightedVoting, UnitWeightsReproduceCountingDecisions) {
  const VotingScheme counting = VotingScheme::bft_rejuvenating(6, 1, 1);
  const VotingScheme weighted = VotingScheme::weighted(
      {1.0, 1.0}, static_cast<double>(counting.threshold()));
  for (int correct = 0; correct <= 6; ++correct)
    for (int wrong = 0; correct + wrong <= 6; ++wrong) {
      const int silent = 6 - correct - wrong;
      // Split the tallies across the two unit-weight groups.
      std::vector<VotingScheme::GroupTally> tallies(2);
      tallies[0] = {correct / 2, wrong / 2, silent / 2};
      tallies[1] = {correct - correct / 2, wrong - wrong / 2,
                    silent - silent / 2};
      EXPECT_EQ(weighted.decide(tallies),
                counting.decide(correct, wrong, silent))
          << correct << "/" << wrong << "/" << silent;
    }
}

TEST(WeightedVoting, MassRulesDecideAgainstTheQuota) {
  // Groups of weight 1.5 / 1 / 1 with quota 4 over 1+2+2 modules.
  const VotingScheme scheme = VotingScheme::weighted({1.5, 1.0, 1.0}, 4.0);
  using T = VotingScheme::GroupTally;
  // All five respond correctly: mass 5.5 >= 4.
  EXPECT_EQ(scheme.decide({T{1, 0, 0}, T{2, 0, 0}, T{2, 0, 0}}),
            Verdict::kCorrect);
  // Both unit groups wrong as blocs: wrong mass 4 reaches the quota.
  EXPECT_EQ(scheme.decide({T{1, 0, 0}, T{0, 2, 0}, T{0, 2, 0}}),
            Verdict::kError);
  // Heavy + one unit group wrong: 3.5 < 4 but correct mass 2 < 4 too.
  EXPECT_EQ(scheme.decide({T{0, 1, 0}, T{0, 2, 0}, T{2, 0, 0}}),
            Verdict::kInconclusive);
  // One unit group fully silent: responding mass 3.5 can never reach 4.
  EXPECT_EQ(scheme.decide({T{1, 0, 0}, T{2, 0, 0}, T{0, 0, 2}}),
            Verdict::kUnavailable);
}

// ---- group reward model -----------------------------------------------------

TEST(GroupRewards, SingleGroupMatchesGeneralizedReliability) {
  // Bit for bit: the group model is the class reward of every scalar
  // configuration outside the paper's verbatim functions.
  struct Config {
    int n, f, r;
    bool rejuvenation;
  };
  for (const Config& c : {Config{4, 1, 0, false}, Config{6, 1, 1, true},
                          Config{8, 1, 1, true}, Config{10, 2, 1, true},
                          Config{11, 2, 2, true}}) {
    SystemParameters params = SystemParameters::paper_six_version();
    params.n_versions = c.n;
    params.max_faulty = c.f;
    params.max_rejuvenating = c.rejuvenation ? c.r : 1;
    params.rejuvenation = c.rejuvenation;
    const VotingScheme voting =
        c.rejuvenation ? VotingScheme::bft_rejuvenating(c.n, c.f, c.r)
                       : VotingScheme::bft(c.n, c.f);
    for (const bool strict : {false, true}) {
      const auto grouped = core::make_group_reliability_model(
          params, strict ? RewardConvention::kStrict
                         : RewardConvention::kGeneralized);
      const core::GeneralizedReliability legacy(
          c.n, voting, params.p, params.p_prime, params.alpha, strict);
      for (int i = 0; i <= c.n; ++i)
        for (int j = 0; i + j <= c.n; ++j) {
          const int k = c.n - i - j;
          EXPECT_EQ(grouped->state_reliability({{i, j, k}}),
                    legacy.state_reliability(i, j, k))
              << "N=" << c.n << " strict=" << strict << " (" << i << ","
              << j << "," << k << ")";
        }
    }
  }
}

TEST(GroupRewards, ThreeGroupHandOracle) {
  // 1 + 2 + 2 modules, weights 1.5 / 1 / 1, f = 1, no rejuvenation:
  // W_f = 1.5, w_min = 1 => quota Q = 2*1.5 + 1 = 4, total mass 5.5
  // (feasible: 5.5 >= 3*1.5 + 1). alpha = 1 makes each group's healthy
  // modules err as one bloc with probability p_g, so every reward below is
  // a few-term hand computation.
  SystemParameters params;
  params.n_versions = 5;
  params.max_faulty = 1;
  params.max_rejuvenating = 1;
  params.rejuvenation = false;
  params.alpha = 1.0;
  ModuleGroup a = group_of(params, 1);
  a.p = 0.1;
  a.weight = 1.5;
  ModuleGroup b = group_of(params, 2);
  b.p = 0.2;
  b.p_prime = 0.5;
  ModuleGroup c = group_of(params, 2);
  c.p = 0.3;
  params.groups = {a, b, c};
  params.validate();
  EXPECT_DOUBLE_EQ(params.weighted_quota(), 4.0);

  const auto model = core::make_group_reliability_model(
      params, RewardConvention::kGeneralized);
  // All healthy: an error needs wrong mass >= 4, which only the two unit
  // blocs together (mass 4) or all three groups reach, so
  // P(error) = p_b * p_c = 0.06.
  EXPECT_NEAR(model->state_reliability({{1, 0, 0}, {2, 0, 0}, {2, 0, 0}}),
              1.0 - 0.2 * 0.3, 1e-12);
  // Group b has one compromised and one down module: responding mass 4.5.
  // Wrong mass reaches 4 only when all of a (1.5), b's compromised module
  // (1, errs with p' = 0.5), and c's bloc (2) err together.
  EXPECT_NEAR(model->state_reliability({{1, 0, 0}, {0, 1, 1}, {2, 0, 0}}),
              1.0 - 0.1 * 0.5 * 0.3, 1e-12);
  // Group b fully down: responding mass 3.5 < 4, the voter can never
  // decide — reward 0.
  EXPECT_EQ(model->state_reliability({{1, 0, 0}, {0, 0, 2}, {2, 0, 0}}),
            0.0);

  // Strict convention: a correct verdict needs correct mass >= 4, i.e.
  // both unit blocs correct; group a alone cannot tip the balance.
  const auto strict = core::make_group_reliability_model(
      params, RewardConvention::kStrict);
  EXPECT_NEAR(strict->state_reliability({{1, 0, 0}, {2, 0, 0}, {2, 0, 0}}),
              (1.0 - 0.2) * (1.0 - 0.3), 1e-12);
}

// ---- staged pipeline + codec over heterogeneous structures ------------------

TEST(HeterogeneousStaged, StructureArtifactRoundTripsThroughCodec) {
  SystemParameters params = SystemParameters::paper_six_version();
  ModuleGroup slow = group_of(params, 2);
  slow.mean_time_to_compromise *= 4.0;
  params.groups = {group_of(params, 4), slow};
  params.validate();

  const auto structure = core::staged_structure(params, /*use_cache=*/false);
  ASSERT_FALSE(structure->classes.empty());
  for (const std::vector<int>& cls : structure->classes)
    EXPECT_EQ(cls.size(), 6u);  // (healthy, compromised, down) per group

  const auto bytes = core::encode_structure_artifact(*structure);
  const auto decoded =
      core::decode_structure_artifact(bytes.data(), bytes.size(), params);
  EXPECT_EQ(decoded->classes, structure->classes);
  EXPECT_EQ(decoded->class_of_state, structure->class_of_state);
  ASSERT_EQ(decoded->state_class.size(), structure->state_class.size());
  for (std::size_t i = 0; i < structure->state_class.size(); ++i) {
    EXPECT_EQ(decoded->state_class[i].down, structure->state_class[i].down);
    EXPECT_EQ(decoded->state_class[i].voter_up,
              structure->state_class[i].voter_up);
  }
}

TEST(HeterogeneousStaged, RepeatAnalysisHitsTheRewardsCache) {
  SystemParameters params = SystemParameters::paper_six_version();
  ModuleGroup heavy = group_of(params, 5);
  heavy.weight = 2.0;
  heavy.repair_degradation = 0.1;
  params.groups = {group_of(params, 1), heavy};
  params.validate();

  core::ReliabilityAnalyzer::Options options;
  options.convention = RewardConvention::kGeneralized;
  const core::ReliabilityAnalyzer analyzer(options);
  const auto cold = analyzer.analyze(params);
  const auto before = core::stage_cache_stats().rewards;
  const auto warm = analyzer.analyze(params);
  const auto after = core::stage_cache_stats().rewards;
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(cold.expected_reliability, warm.expected_reliability);
}

// ---- analytic vs simulator cross-checks -------------------------------------

TEST(HeterogeneousCrossCheck, DspnSimulatorTracksAnalyticTwoGroupSplit) {
  SystemParameters params = SystemParameters::paper_six_version();
  ModuleGroup slow = group_of(params, 2);
  slow.mean_time_to_compromise *= 4.0;
  params.groups = {group_of(params, 4), slow};
  params.validate();

  core::ReliabilityAnalyzer::Options options;
  options.convention = RewardConvention::kGeneralized;
  options.attachment = RewardAttachment::kAppendixMatrices;
  const core::Engine engine(options);
  const double analytic = engine.analyze_raw(params).expected_reliability;

  core::Engine::SimulateOptions sim;
  sim.horizon = 2e4;
  sim.replications = 4;
  sim.seed = 11;
  const auto simulated = engine.simulate(params, sim);
  ASSERT_TRUE(simulated.ok);
  EXPECT_NEAR(simulated.estimate.mean, analytic, 0.05);
}

TEST(HeterogeneousCrossCheck,
     DspnSimulatorTracksAnalyticWeightedImperfectRepair) {
  SystemParameters params = SystemParameters::paper_six_version();
  ModuleGroup heavy = group_of(params, 5);
  heavy.mean_time_to_compromise *= 4.0;
  heavy.weight = 2.0;
  heavy.repair_degradation = 0.1;
  params.groups = {group_of(params, 1), heavy};
  params.validate();

  core::ReliabilityAnalyzer::Options options;
  options.convention = RewardConvention::kGeneralized;
  options.attachment = RewardAttachment::kAppendixMatrices;
  const core::Engine engine(options);
  const double analytic = engine.analyze_raw(params).expected_reliability;

  core::Engine::SimulateOptions sim;
  sim.horizon = 2e4;
  sim.replications = 4;
  sim.seed = 13;
  const auto simulated = engine.simulate(params, sim);
  ASSERT_TRUE(simulated.ok);
  EXPECT_NEAR(simulated.estimate.mean, analytic, 0.05);
}

TEST(HeterogeneousCrossCheck, PerceptionCampaignTracksAnalyticTwoGroups) {
  SystemParameters params = SystemParameters::paper_six_version();
  ModuleGroup slow = group_of(params, 2);
  slow.mean_time_to_compromise *= 4.0;
  params.groups = {group_of(params, 4), slow};
  params.validate();

  const double analytic =
      analyze(params, RewardConvention::kGeneralized,
              RewardAttachment::kAppendixMatrices)
          .expected_reliability;

  perception::NVersionPerceptionSystem::Config cfg;
  cfg.params = params;
  cfg.seed = 41;
  cfg.frame_interval = 2.0;
  perception::NVersionPerceptionSystem system(cfg);
  const auto result = system.run(8e5);
  EXPECT_NEAR(result.paper_reliability(), analytic, 0.05);
}

TEST(HeterogeneousCrossCheck,
     PerceptionCampaignTracksAnalyticWeightedImperfectRepair) {
  SystemParameters params = SystemParameters::paper_six_version();
  ModuleGroup heavy = group_of(params, 5);
  heavy.mean_time_to_compromise *= 4.0;
  heavy.weight = 2.0;
  heavy.repair_degradation = 0.1;
  params.groups = {group_of(params, 1), heavy};
  params.validate();

  const double analytic =
      analyze(params, RewardConvention::kGeneralized,
              RewardAttachment::kAppendixMatrices)
          .expected_reliability;

  perception::NVersionPerceptionSystem::Config cfg;
  cfg.params = params;
  cfg.seed = 43;
  cfg.frame_interval = 2.0;
  perception::NVersionPerceptionSystem system(cfg);
  const auto result = system.run(8e5);
  EXPECT_NEAR(result.paper_reliability(), analytic, 0.05);
}

// ---- heterogeneous perception guard rails -----------------------------------

TEST(HeterogeneousPerception, AttackWindowsAndPluralityAreRejected) {
  SystemParameters params = SystemParameters::paper_six_version();
  ModuleGroup slow = group_of(params, 2);
  slow.mean_time_to_compromise *= 4.0;
  params.groups = {group_of(params, 4), slow};

  perception::NVersionPerceptionSystem::Config cfg;
  cfg.params = params;
  perception::NVersionPerceptionSystem system(cfg);
  EXPECT_THROW(system.add_attack_window({0.0, 1e3, 10.0}),
               util::ContractViolation);

  cfg.plurality_voter = true;
  EXPECT_THROW(perception::NVersionPerceptionSystem{cfg},
               util::ContractViolation);
}

}  // namespace
