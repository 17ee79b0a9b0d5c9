// Tests for the extensions beyond the paper: first-passage/absorption
// analysis, transient reliability, simulated transient profiles, and the
// architecture-space explorer.

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/architecture_space.hpp"
#include "src/core/model_factory.hpp"
#include "src/core/reliability.hpp"
#include "src/core/transient.hpp"
#include "src/markov/absorption.hpp"
#include "src/sim/transient_profile.hpp"
#include "src/util/contracts.hpp"

namespace nvp {
namespace {

using core::SystemParameters;
using linalg::DenseMatrix;

// ---- absorption -----------------------------------------------------------

TEST(Absorption, TwoStateExponentialHittingTime) {
  // up -> down at rate f: hitting time of "down" from "up" is Exp(f),
  // mean 1/f.
  DenseMatrix q(2, 2, 0.0);
  q(0, 0) = -0.25;
  q(0, 1) = 0.25;
  // state 1 absorbing (row zero)
  const auto result =
      markov::mean_time_to_absorption(q, {false, true});
  EXPECT_NEAR(result.expected_time[0], 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(result.expected_time[1], 0.0);
}

TEST(Absorption, BirthChainSumsStageMeans) {
  // 0 -> 1 -> 2 with rates 2 and 0.5: E[T] = 1/2 + 2 = 2.5.
  DenseMatrix q(3, 3, 0.0);
  q(0, 0) = -2.0;
  q(0, 1) = 2.0;
  q(1, 1) = -0.5;
  q(1, 2) = 0.5;
  const auto result =
      markov::mean_time_to_absorption(q, {false, false, true});
  EXPECT_NEAR(result.expected_time[0], 2.5, 1e-12);
  EXPECT_NEAR(result.expected_time[1], 2.0, 1e-12);
}

TEST(Absorption, RepairableSystemMttf) {
  // up <-> degraded, degraded -> failed. Closed-form MTTF from up:
  // with up->deg rate a, deg->up rate b, deg->fail rate c:
  // E_up = 1/a + E_deg; E_deg = 1/(b+c) + (b/(b+c)) E_up
  const double a = 0.1, b = 0.4, c = 0.05;
  DenseMatrix q(3, 3, 0.0);
  q(0, 0) = -a;
  q(0, 1) = a;
  q(1, 0) = b;
  q(1, 1) = -(b + c);
  q(1, 2) = c;
  const auto result =
      markov::mean_time_to_absorption(q, {false, false, true});
  const double e_up_expected =
      (1.0 / a + 1.0 / (b + c)) / (1.0 - b / (b + c));
  EXPECT_NEAR(result.expected_time[0], e_up_expected, 1e-9);
}

TEST(Absorption, UnreachableTargetIsInfinite) {
  // Two disconnected states; target only in the other component.
  DenseMatrix q(2, 2, 0.0);
  const auto result =
      markov::mean_time_to_absorption(q, {false, true});
  EXPECT_TRUE(std::isinf(result.expected_time[0]));
}

TEST(Absorption, UncertainAbsorptionIsInfinite) {
  // 0 can go to target (2) or to a dead end (1): expected hitting time of
  // the target is infinite because absorption is not almost sure.
  DenseMatrix q(3, 3, 0.0);
  q(0, 0) = -2.0;
  q(0, 1) = 1.0;
  q(0, 2) = 1.0;
  const auto result =
      markov::mean_time_to_absorption(q, {false, false, true});
  EXPECT_TRUE(std::isinf(result.expected_time[0]));
}

TEST(Absorption, ProbabilityByDeadlineMatchesClosedForm) {
  // Exp(r) hitting: P(T <= t) = 1 - exp(-r t).
  const double rate = 0.3;
  DenseMatrix q(2, 2, 0.0);
  q(0, 0) = -rate;
  q(0, 1) = rate;
  for (double t : {0.5, 2.0, 10.0}) {
    const auto p = markov::absorption_probability_by(q, {false, true}, t);
    EXPECT_NEAR(p[0], 1.0 - std::exp(-rate * t), 1e-10);
    EXPECT_NEAR(p[1], 1.0, 1e-12);
  }
}

TEST(Absorption, RejectsEmptyTarget) {
  DenseMatrix q(2, 2, 0.0);
  EXPECT_THROW(markov::mean_time_to_absorption(q, {false, false}),
               util::ContractViolation);
}

// ---- transient reliability ---------------------------------------------------

TEST(TransientReliability, StartsAtAllHealthyReward) {
  const core::TransientReliabilityAnalyzer analyzer;
  const auto params = SystemParameters::paper_four_version();
  const auto curve = analyzer.reliability_curve(params, {0.0});
  // At t = 0 the system is surely in (4, 0, 0): R = 0.95 at defaults.
  EXPECT_NEAR(curve[0].expected_reliability, 0.95, 1e-9);
}

/// The paper's four-version system split 2 + 2 into unit-weight groups:
/// a hardened pair (p 0.02, MTTC 3000 s) beside the preset's modules.
SystemParameters two_group_four_version() {
  SystemParameters params = SystemParameters::paper_four_version();
  core::ModuleGroup hardened = params.inherited_group(2);
  hardened.p = 0.02;
  hardened.mean_time_to_compromise = 3000.0;
  params.groups = {hardened, params.inherited_group(2)};
  return params;
}

TEST(TransientReliability, ConvergesToSteadyState) {
  // The transient analyzer attaches the steady-state analyzer's gated
  // reward, so the curve converges to its answer: on the scalar 4v, on a
  // two-group 4v (where the group reward applies) and with the voter
  // extension (where the voter gate applies).
  SystemParameters voter = SystemParameters::paper_four_version();
  voter.voter_can_fail = true;
  const struct {
    const char* name;
    SystemParameters params;
    core::RewardConvention convention;
  } cases[] = {
      {"4v", SystemParameters::paper_four_version(),
       core::RewardConvention::kPaperVerbatim},
      {"2+2 verbatim", two_group_four_version(),
       core::RewardConvention::kPaperVerbatim},
      {"2+2 generalized", two_group_four_version(),
       core::RewardConvention::kGeneralized},
      {"voter verbatim", voter, core::RewardConvention::kPaperVerbatim},
      {"voter generalized", voter, core::RewardConvention::kGeneralized},
  };
  for (const auto& c : cases) {
    core::TransientReliabilityAnalyzer::Options transient_options;
    transient_options.convention = c.convention;
    core::ReliabilityAnalyzer::Options steady_options;
    steady_options.convention = c.convention;
    const auto curve = core::TransientReliabilityAnalyzer(transient_options)
                           .reliability_curve(c.params, {5.0e5});
    EXPECT_NEAR(curve[0].expected_reliability,
                core::ReliabilityAnalyzer(steady_options)
                    .analyze(c.params)
                    .expected_reliability,
                1e-8)
        << c.name;
  }
}

TEST(TransientReliability, MonotoneDecayFromHealthyStart) {
  const core::TransientReliabilityAnalyzer analyzer;
  const auto params = SystemParameters::paper_four_version();
  const auto curve = analyzer.reliability_curve(
      params, {0.0, 1000.0, 3000.0, 10000.0, 30000.0});
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_LT(curve[i].expected_reliability,
              curve[i - 1].expected_reliability + 1e-12);
}

TEST(TransientReliability, RejectsRejuvenatingModel) {
  const core::TransientReliabilityAnalyzer analyzer;
  EXPECT_THROW(analyzer.reliability_curve(
                   SystemParameters::paper_six_version(), {1.0}),
               util::ContractViolation);
}

TEST(TransientReliability, UnavailabilityStatisticsAreConsistent) {
  const core::TransientReliabilityAnalyzer analyzer;
  const auto params = SystemParameters::paper_four_version();
  const double mttu = analyzer.mean_time_to_unavailability(params);
  EXPECT_GT(mttu, 1e5);  // repair is fast; losing 2 modules takes long
  // Probability within deadline grows with the deadline and is consistent
  // with an exponential-order tail at the MTTU scale.
  const double p_short =
      analyzer.unavailability_probability_by(params, 3600.0);
  const double p_long =
      analyzer.unavailability_probability_by(params, 10.0 * 3600.0);
  EXPECT_GT(p_long, p_short);
  EXPECT_LT(p_short, 0.01);
  EXPECT_NEAR(analyzer.unavailability_probability_by(params, 0.0), 0.0,
              1e-12);
}

TEST(TransientReliability, WeightedSplitLosesDecidabilityByWeight) {
  // 1 + 4 modules weighted 1.5 / 1.0, f = 1: quota 4 where the counting
  // threshold is 3, so the heavy module's loss alone leaves 4 of 5 modules
  // answering with weight 4 — decidable — while losing it plus one light
  // module leaves 3 modules (weight 3) that a counting voter would still
  // call decidable. The unavailability target follows the weighted quota.
  SystemParameters params = SystemParameters::paper_four_version();
  params.n_versions = 5;
  core::ModuleGroup heavy = params.inherited_group(1);
  heavy.weight = 1.5;
  params.groups = {heavy, params.inherited_group(4)};
  ASSERT_DOUBLE_EQ(params.weighted_quota(), 4.0);
  ASSERT_EQ(params.voting_threshold(), 3);

  const core::TransientReliabilityAnalyzer analyzer;
  const double mttu = analyzer.mean_time_to_unavailability(params);
  const double lost_by = analyzer.unavailability_probability_by(params, 1e4);
  // The counting rule read 1.53e9 s and 3e-6 here.
  EXPECT_NEAR(mttu, 1.38e6, 0.01e6);
  EXPECT_NEAR(lost_by, 4.9e-3, 0.1e-3);

  // Unit weights keep the counting rule: the same split with weight 1.0
  // loses decidability only with fewer than 3 operational modules.
  params.groups[0].weight = 1.0;
  EXPECT_GT(analyzer.mean_time_to_unavailability(params), 1e8);
}

// ---- simulated transient profile ------------------------------------------------

TEST(TransientProfile, MatchesAnalyticCurveForCtmcModel) {
  const auto params = SystemParameters::paper_four_version();
  const auto model = core::PerceptionModelFactory::build(params);
  const auto rewards = core::make_reliability_model(params);
  const sim::DspnSimulator simulator(model.net);
  const markov::MarkingReward reward = [&](const petri::Marking& m) {
    const int k = model.down(m);
    return k > 0 ? 0.0
                 : rewards->state_reliability(model.healthy(m),
                                              model.compromised(m), k);
  };
  const auto profile =
      sim::transient_profile(simulator, reward, 4000.0, 4, 64, 5);

  const core::TransientReliabilityAnalyzer analyzer;
  for (const auto& bucket : profile) {
    // Compare the bucket average against the analytic curve midpoint — a
    // first-order check; generous tolerance for the replication noise.
    const double mid = (bucket.time_lo + bucket.time_hi) / 2.0;
    const auto curve = analyzer.reliability_curve(params, {mid});
    EXPECT_NEAR(bucket.mean, curve[0].expected_reliability,
                std::max(5.0 * bucket.std_error, 0.01));
  }
}

TEST(TransientProfile, BucketsTileTheHorizon) {
  const auto params = SystemParameters::paper_four_version();
  const auto model = core::PerceptionModelFactory::build(params);
  const sim::DspnSimulator simulator(model.net);
  const auto profile = sim::transient_profile(
      simulator, [](const petri::Marking&) { return 1.0; }, 1000.0, 5, 4,
      9);
  ASSERT_EQ(profile.size(), 5u);
  for (std::size_t b = 0; b < profile.size(); ++b) {
    EXPECT_DOUBLE_EQ(profile[b].time_lo, 200.0 * b);
    EXPECT_DOUBLE_EQ(profile[b].time_hi, 200.0 * (b + 1));
    EXPECT_NEAR(profile[b].mean, 1.0, 1e-12);  // constant reward
  }
}

// ---- architecture space ------------------------------------------------------------

TEST(ArchitectureSpace, ContainsThePaperPoints) {
  core::ArchitectureSpaceExplorer explorer;
  const auto results =
      explorer.explore(SystemParameters::paper_six_version());
  bool found_4v = false, found_6v = false;
  for (const auto& result : results) {
    if (result.n == 4 && result.f == 1 && !result.rejuvenation)
      found_4v = true;
    if (result.n == 6 && result.f == 1 && result.r == 1 &&
        result.rejuvenation)
      found_6v = true;
    // Feasibility constraints hold for every emitted point.
    if (result.rejuvenation)
      EXPECT_GE(result.n, 3 * result.f + 2 * result.r + 1);
    else
      EXPECT_GE(result.n, 3 * result.f + 1);
    EXPECT_GT(result.expected_reliability, 0.0);
    EXPECT_LE(result.expected_reliability, 1.0);
  }
  EXPECT_TRUE(found_4v);
  EXPECT_TRUE(found_6v);
}

TEST(ArchitectureSpace, SortedByReliability) {
  core::ArchitectureSpaceExplorer explorer;
  const auto results =
      explorer.explore(SystemParameters::paper_six_version());
  for (std::size_t i = 1; i < results.size(); ++i)
    EXPECT_GE(results[i - 1].expected_reliability,
              results[i].expected_reliability);
}

TEST(ArchitectureSpace, BudgetFilterRespectsModuleCount) {
  core::ArchitectureSpaceExplorer explorer;
  const auto within = explorer.best_within_budget(
      SystemParameters::paper_six_version(), 6);
  ASSERT_FALSE(within.empty());
  for (const auto& result : within) EXPECT_LE(result.n, 6);
  // The known best at budget 6: the paper's rejuvenating six-version.
  EXPECT_EQ(within.front().n, 6);
  EXPECT_TRUE(within.front().rejuvenation);
}

TEST(ArchitectureSpace, LabelsAreDescriptive) {
  core::ArchitectureResult result;
  result.n = 6;
  result.f = 1;
  result.r = 1;
  result.rejuvenation = true;
  EXPECT_EQ(result.label(), "N=6 f=1 r=1 rejuv");
  result.rejuvenation = false;
  EXPECT_EQ(result.label(), "N=6 f=1 plain");
}

}  // namespace
}  // namespace nvp
