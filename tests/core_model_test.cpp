#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/core/analyzer.hpp"
#include "src/core/model_factory.hpp"
#include "src/core/optimizer.hpp"
#include "src/core/staged.hpp"
#include "src/core/sweep.hpp"
#include "src/petri/structural.hpp"
#include "src/util/contracts.hpp"

namespace nvp::core {
namespace {

// ---- model factory -----------------------------------------------------------

TEST(ModelFactory, FourVersionStructure) {
  const auto model = PerceptionModelFactory::build(
      SystemParameters::paper_four_version());
  EXPECT_EQ(model.net.place_count(), 3u);
  EXPECT_EQ(model.net.transition_count(), 3u);
  EXPECT_FALSE(model.pmr.has_value());
  const auto m0 = model.net.initial_marking();
  EXPECT_EQ(model.healthy(m0), 4);
  EXPECT_EQ(model.compromised(m0), 0);
  EXPECT_EQ(model.down(m0), 0);
}

TEST(ModelFactory, SixVersionStructure) {
  const auto model = PerceptionModelFactory::build(
      SystemParameters::paper_six_version());
  EXPECT_EQ(model.net.place_count(), 7u);
  // Tc, Tf, Tr, Trc, Trt, Tac, Trj1, Trj2, Trj.
  EXPECT_EQ(model.net.transition_count(), 9u);
  ASSERT_TRUE(model.pmr && model.pac && model.prc && model.ptr);
  const auto m0 = model.net.initial_marking();
  EXPECT_EQ(model.healthy(m0), 6);
  EXPECT_EQ(m0[model.prc->index], 1);
}

/// The place and transition names of a net, in declaration order.
std::pair<std::vector<std::string>, std::vector<std::string>> names_of(
    const petri::PetriNet& net) {
  std::vector<std::string> places, transitions;
  for (std::size_t p = 0; p < net.place_count(); ++p)
    places.push_back(net.place_name(p));
  for (std::size_t t = 0; t < net.transition_count(); ++t)
    transitions.push_back(net.transition(t).name);
  return {places, transitions};
}

using Names = std::vector<std::string>;

TEST(ModelFactory, OneGroupNetsKeepTheFigureTwoNames) {
  // A scalar configuration is the one-group net: the Fig. 2 / Table I
  // names in the scalar nets' order, the voter extension last.
  SystemParameters four = SystemParameters::paper_four_version();
  four.detection_rate = 1e-3;
  four.voter_can_fail = true;
  const auto four_model = PerceptionModelFactory::build(four);
  EXPECT_EQ(four_model.net.name(), "perception_no_rejuvenation");
  EXPECT_EQ(names_of(four_model.net),
            std::make_pair(Names{"Pmh", "Pmc", "Pmf", "Pvu", "Pvd"},
                           Names{"Tc", "Tf", "Tr", "Td", "Tvf", "Tvr"}));

  SystemParameters six = SystemParameters::paper_six_version();
  six.voter_can_fail = true;
  const auto six_model = PerceptionModelFactory::build(six);
  EXPECT_EQ(six_model.net.name(), "perception_rejuvenation");
  EXPECT_EQ(names_of(six_model.net),
            std::make_pair(
                Names{"Pmh", "Pmc", "Pmf", "Pmr", "Pac", "Prc", "Ptr", "Pvu",
                      "Pvd"},
                Names{"Tc", "Tf", "Tr", "Trc", "Trt", "Tac", "Trj1", "Trj2",
                      "Trj", "Tvf", "Tvr"}));

  const auto erlang = PerceptionModelFactory::with_rejuvenation_erlang(
      SystemParameters::paper_six_version(), 4);
  EXPECT_EQ(erlang.net.name(), "perception_rejuvenation_erlang");
  EXPECT_EQ(names_of(erlang.net),
            std::make_pair(
                Names{"Pmh", "Pmc", "Pmf", "Pmr", "Pac", "Pstage"},
                Names{"Tc", "Tf", "Tr", "Tstage", "Tac", "Trt", "Trj1",
                      "Trj2", "Trj"}));
  EXPECT_FALSE(erlang.prc.has_value());
}

TEST(ModelFactory, GroupNumbersAppearFromTwoGroupsOn) {
  SystemParameters params = SystemParameters::paper_six_version();
  params.n_versions = 7;
  params.groups = {params.inherited_group(3), params.inherited_group(4)};
  params.groups[1].repair_degradation = 0.25;
  const auto model = PerceptionModelFactory::build(params);
  EXPECT_EQ(model.net.name(), "perception_groups");
  EXPECT_EQ(names_of(model.net),
            std::make_pair(
                Names{"Pmh1", "Pmc1", "Pmf1", "Pmr1", "Pmh2", "Pmc2", "Pmf2",
                      "Pmd2", "Pmr2", "Pac", "Prc", "Ptr"},
                Names{"Tc1", "Tf1", "Tr1", "Tc2", "Tf2", "Tr2", "Trd2",
                      "Tcd2", "Trc", "Trt", "Tac", "Trj1_1", "Trj2_1",
                      "Trj1_2", "Trj2_2", "Trj3_2", "Trj"}));
}

TEST(ModelFactory, FourVersionStateSpaceSize) {
  const auto model = PerceptionModelFactory::build(
      SystemParameters::paper_four_version());
  const auto g = petri::TangibleReachabilityGraph::build(model.net);
  // (i, j, k) with i + j + k = 4 -> C(6, 2) = 15 states.
  EXPECT_EQ(g.size(), 15u);
  EXPECT_FALSE(g.has_deterministic());
}

TEST(ModelFactory, ModuleTokensConserved) {
  for (const auto& params : {SystemParameters::paper_four_version(),
                             SystemParameters::paper_six_version()}) {
    const auto model = PerceptionModelFactory::build(params);
    const auto g = petri::TangibleReachabilityGraph::build(model.net);
    // Module tokens (Pmh + Pmc + Pmf [+ Pmr]) are conserved at N.
    std::vector<double> weights(model.net.place_count(), 0.0);
    weights[model.pmh.index] = 1.0;
    weights[model.pmc.index] = 1.0;
    weights[model.pmf.index] = 1.0;
    if (model.pmr) weights[model.pmr->index] = 1.0;
    const auto rep = petri::check_token_invariant(g, weights);
    EXPECT_TRUE(rep.holds) << "violated at state " << rep.violating_state;
    EXPECT_DOUBLE_EQ(rep.expected, params.n_versions);
  }
}

TEST(ModelFactory, ClockTokenConserved) {
  const auto model = PerceptionModelFactory::build(
      SystemParameters::paper_six_version());
  const auto g = petri::TangibleReachabilityGraph::build(model.net);
  std::vector<double> weights(model.net.place_count(), 0.0);
  weights[model.prc->index] = 1.0;
  weights[model.ptr->index] = 1.0;
  const auto rep = petri::check_token_invariant(g, weights);
  EXPECT_TRUE(rep.holds);
  EXPECT_DOUBLE_EQ(rep.expected, 1.0);
}

TEST(ModelFactory, ClockAlwaysArmedInTangibleStates) {
  // Ptr always resolves through immediates: every tangible marking keeps
  // the clock token in Prc, so exactly one deterministic transition is
  // enabled everywhere — the precondition of the MRGP solver.
  const auto model = PerceptionModelFactory::build(
      SystemParameters::paper_six_version());
  const auto g = petri::TangibleReachabilityGraph::build(model.net);
  for (std::size_t s = 0; s < g.size(); ++s) {
    EXPECT_EQ(g.marking(s)[model.ptr->index], 0);
    EXPECT_EQ(g.deterministics(s).size(), 1u);
  }
}

TEST(ModelFactory, RejuvenatingBatchNeverExceedsR) {
  for (int r : {1, 2}) {
    SystemParameters params = SystemParameters::paper_six_version();
    params.max_rejuvenating = r;
    params.n_versions = 3 * params.max_faulty + 2 * r + 1;
    const auto model = PerceptionModelFactory::build(params);
    const auto g = petri::TangibleReachabilityGraph::build(model.net);
    const auto bounds = petri::place_bounds(g);
    EXPECT_LE(bounds[model.pmr->index], r) << "r = " << r;
  }
}

TEST(ModelFactory, InfiniteServerChangesDynamics) {
  SystemParameters params = SystemParameters::paper_four_version();
  params.semantics = FiringSemantics::kInfiniteServer;
  const auto model = PerceptionModelFactory::build(params);
  const auto tc = model.net.transition_id("Tc");
  auto m = model.net.initial_marking();  // 4 healthy
  EXPECT_NEAR(model.net.rate_or_weight(tc.index, m), 4.0 / 1523.0, 1e-12);
  SystemParameters single = SystemParameters::paper_four_version();
  const auto model_ss = PerceptionModelFactory::build(single);
  EXPECT_NEAR(model_ss.net.rate_or_weight(
                  model_ss.net.transition_id("Tc").index, m),
              1.0 / 1523.0, 1e-12);
}

TEST(ModelFactory, BuildValidatesParameters) {
  SystemParameters params = SystemParameters::paper_six_version();
  params.n_versions = 4;  // needs >= 6 with rejuvenation
  EXPECT_THROW(PerceptionModelFactory::build(params),
               util::ContractViolation);
}

// ---- analyzer ------------------------------------------------------------------

TEST(Analyzer, ReproducesPaperHeadlineNumbers) {
  const ReliabilityAnalyzer analyzer;
  const auto four =
      analyzer.analyze(SystemParameters::paper_four_version());
  // Paper: 0.8233477 (TimeNET). Our DSPN semantics land within 0.25%.
  EXPECT_NEAR(four.expected_reliability, 0.8233477, 0.0025);
  EXPECT_FALSE(four.used_dspn_solver);

  const auto six = analyzer.analyze(SystemParameters::paper_six_version());
  // Paper: 0.93464665. Within 0.5%.
  EXPECT_NEAR(six.expected_reliability, 0.93464665, 0.0045);
  EXPECT_TRUE(six.used_dspn_solver);
  // The headline claim: rejuvenation improves reliability by >= 13%.
  EXPECT_GT(six.expected_reliability / four.expected_reliability, 1.13);
}

TEST(Analyzer, AppendixAttachmentMakesDegradedStatesSafe) {
  // With the full appendix matrices, silent modules raise the per-state
  // reliability (the voter is harder to mislead), so the expected
  // reliability exceeds the operational-only attachment.
  ReliabilityAnalyzer::Options full;
  full.attachment = RewardAttachment::kAppendixMatrices;
  const double with_k = ReliabilityAnalyzer(full)
                            .analyze(SystemParameters::paper_six_version())
                            .expected_reliability;
  const double without_k =
      ReliabilityAnalyzer()
          .analyze(SystemParameters::paper_six_version())
          .expected_reliability;
  EXPECT_GT(with_k, without_k);
  EXPECT_LT(with_k - without_k, 0.02);
}

TEST(Analyzer, StateDistributionSumsToOne) {
  const ReliabilityAnalyzer analyzer;
  for (const auto& params : {SystemParameters::paper_four_version(),
                             SystemParameters::paper_six_version()}) {
    const auto result = analyzer.analyze(params);
    double total = 0.0;
    for (const auto& sp : result.state_distribution) {
      EXPECT_GE(sp.probability, 0.0);
      EXPECT_GE(sp.reliability, 0.0);
      EXPECT_LE(sp.reliability, 1.0);
      EXPECT_EQ(sp.healthy + sp.compromised + sp.down, params.n_versions);
      total += sp.probability;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Analyzer, ExpectedReliabilityConsistentWithDistribution) {
  const ReliabilityAnalyzer analyzer;
  const auto result = analyzer.analyze(SystemParameters::paper_six_version());
  double recomputed = 0.0;
  for (const auto& sp : result.state_distribution)
    recomputed += sp.probability * sp.reliability;
  EXPECT_NEAR(recomputed, result.expected_reliability, 1e-12);
}

TEST(Analyzer, RewardConventionsOrdering) {
  // Strict <= generalized for the same chain, by construction.
  for (const auto& params : {SystemParameters::paper_four_version(),
                             SystemParameters::paper_six_version()}) {
    ReliabilityAnalyzer::Options gen_opts;
    gen_opts.convention = RewardConvention::kGeneralized;
    ReliabilityAnalyzer::Options strict_opts;
    strict_opts.convention = RewardConvention::kStrict;
    const double gen = ReliabilityAnalyzer(gen_opts)
                           .analyze(params)
                           .expected_reliability;
    const double strict = ReliabilityAnalyzer(strict_opts)
                              .analyze(params)
                              .expected_reliability;
    EXPECT_LT(strict, gen);
  }
}

TEST(Analyzer, OptionNamesRoundTripAndRejectMisspellings) {
  for (const auto convention :
       {RewardConvention::kPaperVerbatim, RewardConvention::kGeneralized,
        RewardConvention::kStrict})
    EXPECT_EQ(parse_convention(to_string(convention)), convention);
  EXPECT_EQ(parse_attachment("operational"),
            RewardAttachment::kOperationalStatesOnly);
  EXPECT_EQ(parse_attachment("appendix"), RewardAttachment::kAppendixMatrices);
  EXPECT_FALSE(parse_convention("generalised").has_value());
  EXPECT_FALSE(parse_attachment("appendx").has_value());
  EXPECT_EQ(convention_names(), "verbatim|generalized|strict");
  EXPECT_EQ(attachment_names(), "operational|appendix");
}

TEST(Analyzer, CustomRewardModelMustMatchN) {
  const ReliabilityAnalyzer analyzer;
  const PaperFourVersionReliability four_rewards(0.08, 0.5, 0.5);
  EXPECT_THROW(analyzer.analyze(SystemParameters::paper_six_version(),
                                four_rewards),
               util::ContractViolation);
}

TEST(Analyzer, RejuvenationHelpsAcrossSemantics) {
  for (auto semantics : {FiringSemantics::kSingleServer,
                         FiringSemantics::kInfiniteServer}) {
    auto four = SystemParameters::paper_four_version();
    auto six = SystemParameters::paper_six_version();
    four.semantics = semantics;
    six.semantics = semantics;
    const ReliabilityAnalyzer analyzer;
    EXPECT_GT(analyzer.analyze(six).expected_reliability,
              analyzer.analyze(four).expected_reliability);
  }
}

// ---- parameterized sweep over architectures (property-style) ---------------------

struct ArchCase {
  int n;
  int f;
  int r;
  bool rejuvenation;
};

class ArchitectureSweep : public ::testing::TestWithParam<ArchCase> {};

TEST_P(ArchitectureSweep, AnalyzerProducesValidReliability) {
  const auto c = GetParam();
  SystemParameters params;
  params.n_versions = c.n;
  params.max_faulty = c.f;
  params.max_rejuvenating = c.r;
  params.rejuvenation = c.rejuvenation;
  ReliabilityAnalyzer::Options opts;
  opts.convention = RewardConvention::kGeneralized;
  const auto result = ReliabilityAnalyzer(opts).analyze(params);
  EXPECT_GT(result.expected_reliability, 0.0);
  EXPECT_LE(result.expected_reliability, 1.0);
  EXPECT_GT(result.tangible_states, 0u);
  EXPECT_EQ(result.used_dspn_solver, c.rejuvenation);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, ArchitectureSweep,
    ::testing::Values(ArchCase{4, 1, 1, false}, ArchCase{5, 1, 1, false},
                      ArchCase{6, 1, 1, false}, ArchCase{7, 2, 1, false},
                      ArchCase{6, 1, 1, true}, ArchCase{7, 1, 1, true},
                      ArchCase{8, 1, 1, true}, ArchCase{8, 1, 2, true},
                      ArchCase{10, 2, 1, true}),
    [](const ::testing::TestParamInfo<ArchCase>& info) {
      const auto& c = info.param;
      return "n" + std::to_string(c.n) + "f" + std::to_string(c.f) + "r" +
             std::to_string(c.r) + (c.rejuvenation ? "rejuv" : "plain");
    });

// ---- sweeps ------------------------------------------------------------------------

TEST(Sweep, LinspaceEndpointsAndSpacing) {
  const auto v = linspace(1.0, 3.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 1.0);
  EXPECT_DOUBLE_EQ(v.back(), 3.0);
  EXPECT_DOUBLE_EQ(v[1], 1.5);
}

TEST(Sweep, ReliabilityDecreasesWithP) {
  const ReliabilityAnalyzer analyzer;
  const auto points =
      sweep_parameter(analyzer, SystemParameters::paper_six_version(),
                      set_p(), {0.01, 0.05, 0.1, 0.2});
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_LT(points[i].expected_reliability,
              points[i - 1].expected_reliability);
}

TEST(Sweep, ReliabilityDecreasesWithAlphaGeneralized) {
  // Under the rigorous reward model every state's reliability is monotone
  // decreasing in alpha and the state probabilities do not depend on it,
  // so E[R] is monotone.
  ReliabilityAnalyzer::Options opts;
  opts.convention = RewardConvention::kGeneralized;
  const ReliabilityAnalyzer analyzer(opts);
  const auto points =
      sweep_parameter(analyzer, SystemParameters::paper_six_version(),
                      set_alpha(), {0.1, 0.4, 0.7, 1.0});
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_LT(points[i].expected_reliability,
              points[i - 1].expected_reliability);
}

TEST(Sweep, ReliabilityDropsOverAlphaRangePaperVerbatim) {
  // The verbatim appendix expressions are not perfectly monotone in alpha
  // (a consequence of the simplified terms), but the end-to-end drop of
  // Fig. 4(b) holds.
  const ReliabilityAnalyzer analyzer;
  const auto points =
      sweep_parameter(analyzer, SystemParameters::paper_six_version(),
                      set_alpha(), {0.1, 1.0});
  EXPECT_LT(points.back().expected_reliability,
            points.front().expected_reliability);
}

TEST(Sweep, ReliabilityIncreasesWithMttc) {
  const ReliabilityAnalyzer analyzer;
  const auto points = sweep_parameter(
      analyzer, SystemParameters::paper_four_version(),
      set_mean_time_to_compromise(), {500.0, 1500.0, 5000.0, 20000.0});
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_GT(points[i].expected_reliability,
              points[i - 1].expected_reliability);
}

TEST(Sweep, FindCrossoversLocatesPPrimeThreshold) {
  // Fig. 4(d): the 6v (rejuvenating) and 4v curves cross near p' = 0.3.
  const ReliabilityAnalyzer analyzer;
  const auto crossovers = find_crossovers(
      analyzer, SystemParameters::paper_six_version(),
      SystemParameters::paper_four_version(), set_p_prime(),
      linspace(0.1, 0.9, 9), 0.005);
  ASSERT_FALSE(crossovers.empty());
  EXPECT_NEAR(crossovers[0].x, 0.3, 0.12);
}

// ---- optimizer ----------------------------------------------------------------------

TEST(Optimizer, FindsInteriorOptimumForFig3) {
  const ReliabilityAnalyzer analyzer;
  const auto optimum = optimize_rejuvenation_interval(
      analyzer, SystemParameters::paper_six_version(), 100.0, 3000.0, 12,
      5.0);
  // Paper: maximum near 400-450 s. Accept a generous band; what matters is
  // an interior optimum, not a boundary artifact.
  EXPECT_GT(optimum.x, 120.0);
  EXPECT_LT(optimum.x, 1200.0);
  EXPECT_GT(optimum.evaluations, 10u);
  // The optimum beats the default interval.
  const auto at_default =
      analyzer.analyze(SystemParameters::paper_six_version());
  EXPECT_GE(optimum.expected_reliability,
            at_default.expected_reliability - 1e-9);
}

TEST(Optimizer, GenericMaximizerOnSmoothFunction) {
  // Maximize reliability over mttc — monotone, so the optimum sits at the
  // upper bound.
  const ReliabilityAnalyzer analyzer;
  const auto optimum = maximize_reliability(
      analyzer, SystemParameters::paper_four_version(),
      [](SystemParameters& p, double v) { p.mean_time_to_compromise = v; },
      1000.0, 5000.0, 8, 1.0);
  EXPECT_NEAR(optimum.x, 5000.0, 20.0);
  // A decreasing objective (reliability falls with the healthy error rate
  // p) lands exactly on the lower bound: no step beats the grid's lo.
  const auto decreasing = maximize_reliability(
      analyzer, SystemParameters::paper_four_version(),
      [](SystemParameters& p, double v) { p.p = v; }, 0.01, 0.2, 8, 0.001);
  EXPECT_EQ(decreasing.x, 0.01);
}

SystemParameters rejuvenating(int n, int f, int r) {
  SystemParameters params = SystemParameters::paper_six_version();
  params.n_versions = n;
  params.max_faulty = f;
  params.max_rejuvenating = r;
  return params;
}

TEST(Optimizer, BrentRefinesTheGridInAtMostEightSteps) {
  // The library default (24 grid points, 0.5 s) over [100, 3000] on the
  // three rejuvenating architectures the design study optimizes; golden
  // section took 16 steps on each.
  const ReliabilityAnalyzer analyzer;
  for (const auto& params :
       {rejuvenating(6, 1, 1), rejuvenating(8, 1, 1), rejuvenating(10, 2, 1)}) {
    const auto optimum = optimize_rejuvenation_interval(analyzer, params, 100.0,
                                                        3000.0, 24, 0.5);
    EXPECT_LE(optimum.evaluations - 24, 8u) << "N=" << params.n_versions;
    EXPECT_GT(optimum.x, 100.0);
    EXPECT_LT(optimum.x, 3000.0);
  }
}

TEST(Optimizer, OptimumMatchesAnIndependentFineScan) {
  // The returned x is within tolerance/2 of the curve's maximizer; an
  // independent 0.05 s scan over +-2 s locates that maximizer to one step.
  const ReliabilityAnalyzer analyzer;
  const auto params = SystemParameters::paper_six_version();
  const double tolerance = 0.5;
  const auto optimum = optimize_rejuvenation_interval(analyzer, params, 100.0,
                                                      3000.0, 24, tolerance);
  const auto scan =
      sweep_parameter(analyzer, params, set_rejuvenation_interval(),
                      linspace(optimum.x - 2.0, optimum.x + 2.0, 81));
  const auto argmax = std::max_element(
      scan.begin(), scan.end(), [](const SweepPoint& a, const SweepPoint& b) {
        return a.expected_reliability < b.expected_reliability;
      });
  EXPECT_LE(std::abs(optimum.x - argmax->x), tolerance / 2.0 + 0.05);
  EXPECT_GE(optimum.expected_reliability,
            argmax->expected_reliability - 1e-9);
}

TEST(Optimizer, UnsolvableSubRangeStillYieldsAFiniteOptimum) {
  // A negative MTTC is rejected by the model, so every point in [300, 400]
  // fails: the search scores them -inf and never fits a parabola to them.
  const ReliabilityAnalyzer analyzer;
  const auto params = SystemParameters::paper_six_version();
  const auto optimum = maximize_reliability(
      analyzer, params,
      [](SystemParameters& p, double v) {
        p.rejuvenation_interval = v;
        if (v >= 300.0 && v <= 400.0) p.mean_time_to_compromise = -1.0;
      },
      100.0, 3000.0, 24, 0.5);
  EXPECT_TRUE(std::isfinite(optimum.expected_reliability));
  EXPECT_GE(optimum.x, 100.0);
  EXPECT_LE(optimum.x, 3000.0);
  EXPECT_FALSE(optimum.x >= 300.0 && optimum.x <= 400.0);
  const auto clean =
      optimize_rejuvenation_interval(analyzer, params, 100.0, 3000.0, 24, 0.5);
  EXPECT_NEAR(optimum.x, clean.x, 0.5);
}

TEST(Optimizer, CountsFailedEvaluations) {
  // Every interval above 2000 s is unsolvable: the grid points there fail,
  // the refinement near the optimum (about 500 s) never reaches them, and
  // the count and the first error say so.
  const ReliabilityAnalyzer analyzer;
  const auto params = SystemParameters::paper_six_version();
  std::size_t unsolvable = 0;
  const auto optimum = maximize_reliability(
      analyzer, params,
      [&](SystemParameters& p, double v) {
        p.rejuvenation_interval = v;
        if (v > 2000.0) {
          p.mean_time_to_compromise = -1.0;
          ++unsolvable;
        }
      },
      100.0, 3000.0, 24, 0.5);
  EXPECT_GT(unsolvable, 0u);
  EXPECT_EQ(optimum.failed, unsolvable);
  EXPECT_LT(optimum.failed, optimum.evaluations);
  EXPECT_FALSE(optimum.error.message.empty());
  const auto clean =
      optimize_rejuvenation_interval(analyzer, params, 100.0, 3000.0, 24, 0.5);
  EXPECT_EQ(clean.failed, 0u);
  EXPECT_TRUE(clean.error.message.empty());
}

TEST(Optimizer, WarmBracketMatchesTheColdSearch) {
  // The monitor's range and tolerance. MTTC 190 s puts the optimum near
  // lo, 20000 s at hi; every start must land where the cold grid does, and
  // a start at the optimum (a monitor's steady state) asks fewer questions
  // than the grid alone.
  const ReliabilityAnalyzer analyzer;
  for (const double mttc : {1523.0, 190.0, 20000.0}) {
    SystemParameters params = SystemParameters::paper_six_version();
    params.mean_time_to_compromise = mttc;
    const auto cold =
        optimize_rejuvenation_interval(analyzer, params, 60.0, 3000.0, 10, 10.0);
    for (const double start : {60.0, 600.0, 3000.0, cold.x}) {
      const auto warm = optimize_rejuvenation_interval(
          analyzer, params, 60.0, 3000.0, 10, 10.0, {}, start);
      EXPECT_NEAR(warm.x, cold.x, 10.0) << "mttc " << mttc << " start " << start;
      if (start == cold.x) {
        EXPECT_LT(warm.evaluations, 10u) << "mttc " << mttc;
      }
    }
  }
}

TEST(Optimizer, WarmBracketFallsBackToTheGridWhenNotUnimodal) {
  // interval = |v - 1000| + 100 makes the curve bimodal in v, with its dip
  // at v = 1000: the warm trio around 960 has its lowest point in the
  // middle, so the search runs the cold grid after its three warm points.
  const ReliabilityAnalyzer analyzer;
  const auto bimodal = [](SystemParameters& p, double v) {
    p.rejuvenation_interval = std::abs(v - 1000.0) + 100.0;
  };
  const auto params = SystemParameters::paper_six_version();
  const auto cold =
      maximize_reliability(analyzer, params, bimodal, 60.0, 3000.0, 10, 10.0);
  const auto warm = maximize_reliability(analyzer, params, bimodal, 60.0,
                                         3000.0, 10, 10.0, {}, 960.0);
  EXPECT_EQ(warm.x, cold.x);
  EXPECT_EQ(warm.expected_reliability, cold.expected_reliability);
  EXPECT_EQ(warm.evaluations, cold.evaluations + 3);
}

TEST(Optimizer, NearbyWarmStartsAskTheSameQuestions) {
  // The lattice, not the raw start, fixes the warm points: a repeat with
  // the same inputs, or a start that rounds to the same lattice point, is
  // answered by the rewards cache.
  const ReliabilityAnalyzer analyzer;
  const auto params = SystemParameters::paper_six_version();
  const auto first = optimize_rejuvenation_interval(
      analyzer, params, 60.0, 3000.0, 10, 10.0, {}, 600.0);
  for (const double start : {600.0, 620.0}) {
    const auto before = stage_cache_stats().rewards;
    const auto again = optimize_rejuvenation_interval(
        analyzer, params, 60.0, 3000.0, 10, 10.0, {}, start);
    EXPECT_EQ(stage_cache_stats().rewards.misses, before.misses) << start;
    EXPECT_EQ(again.x, first.x) << start;
  }
}

TEST(Optimizer, RequiresRejuvenatingModel) {
  const ReliabilityAnalyzer analyzer;
  EXPECT_THROW(optimize_rejuvenation_interval(
                   analyzer, SystemParameters::paper_four_version(), 100.0,
                   1000.0, 16, 1.0),
               util::ContractViolation);
}

}  // namespace
}  // namespace nvp::core
