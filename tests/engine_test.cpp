// Tests for the core::Engine facade: every entry point must be
// bit-identical to the direct-call path it fronts.

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/engine.hpp"
#include "src/core/model_factory.hpp"
#include "src/core/staged.hpp"
#include "src/sim/dspn_simulator.hpp"

namespace {

using namespace nvp;

core::SystemParameters four_version() {
  return core::SystemParameters::paper_four_version();
}
core::SystemParameters six_version() {
  return core::SystemParameters::paper_six_version();
}

TEST(Engine, AnalyzeMatchesDirectPathBitIdentical) {
  const core::Engine engine;
  const core::ReliabilityAnalyzer analyzer;
  for (const auto& params : {four_version(), six_version()}) {
    const auto direct = analyzer.analyze(params);
    const auto result = engine.analyze(params);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.analysis.expected_reliability,
              direct.expected_reliability);
    EXPECT_EQ(result.analysis.tangible_states, direct.tangible_states);
    EXPECT_EQ(result.analysis.used_dspn_solver, direct.used_dspn_solver);
    ASSERT_EQ(result.analysis.state_distribution.size(),
              direct.state_distribution.size());
    for (std::size_t i = 0; i < direct.state_distribution.size(); ++i)
      EXPECT_EQ(result.analysis.state_distribution[i].probability,
                direct.state_distribution[i].probability);
  }
}

TEST(Engine, AnalyzeRespectsAnalyzerOptions) {
  core::ReliabilityAnalyzer::Options options;
  options.convention = core::RewardConvention::kGeneralized;
  const core::Engine engine(options);
  const core::ReliabilityAnalyzer analyzer(options);
  const auto params = six_version();
  EXPECT_EQ(engine.analyze_raw(params).expected_reliability,
            analyzer.analyze(params).expected_reliability);
}

TEST(Engine, SimulateMatchesDirectPathBitIdentical) {
  const auto params = six_version();
  core::Engine::SimulateOptions options;
  options.horizon = 2e4;
  options.seed = 7;
  options.replications = 4;

  const core::Engine engine;
  const auto result = engine.simulate(params, options);
  EXPECT_TRUE(result.ok);

  // Direct path: same model, same gated reward, same replication
  // schedule.
  const auto model = core::PerceptionModelFactory::build(params);
  const sim::DspnSimulator simulator(model.net);
  sim::SimulationOptions direct_options;
  direct_options.horizon = options.horizon;
  direct_options.warmup_time = options.horizon / 100.0;
  direct_options.seed = options.seed;
  const auto direct = simulator.estimate(
      core::marking_reward(params, engine.options()), direct_options,
      options.replications);
  EXPECT_EQ(result.estimate.mean, direct.mean);
  EXPECT_EQ(result.estimate.ci.lo, direct.ci.lo);
  EXPECT_EQ(result.estimate.ci.hi, direct.ci.hi);
}

TEST(Engine, SimulateTracksAnalyticEstimate) {
  // simulate() attaches the analyzer's gated reward, so under either
  // attachment its confidence interval covers analyze()'s E[R].
  for (const auto attachment :
       {core::RewardAttachment::kOperationalStatesOnly,
        core::RewardAttachment::kAppendixMatrices}) {
    core::ReliabilityAnalyzer::Options analyzer_options;
    analyzer_options.attachment = attachment;
    const core::Engine engine(analyzer_options);
    core::Engine::SimulateOptions options;
    options.horizon = 2e6;
    options.replications = 8;
    const auto simulated = engine.simulate(six_version(), options);
    ASSERT_TRUE(simulated.ok);
    const double analytic =
        engine.analyze_raw(six_version()).expected_reliability;
    EXPECT_LE(std::abs(simulated.estimate.mean - analytic),
              1.5 * simulated.estimate.ci.half_width())
        << "attachment " << static_cast<int>(attachment) << ": simulated "
        << simulated.estimate.mean << " [" << simulated.estimate.ci.lo
        << ", " << simulated.estimate.ci.hi << "] vs analytic " << analytic;
  }
}

TEST(Engine, SweepMatchesFreeFunction) {
  const core::Engine engine;
  const core::ReliabilityAnalyzer analyzer;
  const auto values = core::linspace(200.0, 1200.0, 6);
  const auto via_engine = engine.sweep(
      six_version(), core::set_rejuvenation_interval(), values);
  const auto direct = core::sweep_parameter(
      analyzer, six_version(), core::set_rejuvenation_interval(), values);
  ASSERT_EQ(via_engine.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_engine[i].x, direct[i].x);
    EXPECT_EQ(via_engine[i].expected_reliability,
              direct[i].expected_reliability);
  }
}

TEST(Engine, CrossoversMatchFreeFunction) {
  const core::Engine engine;
  const core::ReliabilityAnalyzer analyzer;
  const auto values = core::linspace(0.1, 0.9, 9);
  const auto via_engine =
      engine.crossovers(four_version(), six_version(),
                        core::set_p_prime(), values, 0.01);
  const auto direct =
      core::find_crossovers(analyzer, four_version(), six_version(),
                            core::set_p_prime(), values, 0.01);
  ASSERT_EQ(via_engine.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_EQ(via_engine[i].x, direct[i].x);
}

TEST(Engine, OptimizeMatchesFreeFunction) {
  const core::Engine engine;
  const core::ReliabilityAnalyzer analyzer;
  const auto via_engine =
      engine.optimize_rejuvenation_interval(six_version(), 200.0, 1500.0);
  const auto direct = core::optimize_rejuvenation_interval(
      analyzer, six_version(), 200.0, 1500.0, 24, 0.5);
  EXPECT_EQ(via_engine.x, direct.x);
  EXPECT_EQ(via_engine.expected_reliability, direct.expected_reliability);
}

TEST(Engine, SensitivityMatchesFreeFunction) {
  const core::Engine engine;
  const core::ReliabilityAnalyzer analyzer;
  const auto via_engine = engine.sensitivity(six_version(), 0.1);
  const auto direct = core::sensitivity_report(analyzer, six_version(), 0.1);
  ASSERT_EQ(via_engine.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_engine[i].parameter, direct[i].parameter);
    EXPECT_EQ(via_engine[i].elasticity, direct[i].elasticity);
  }
}

TEST(Engine, ArchitecturesMatchExplorer) {
  core::ArchitectureSpaceExplorer::Options options;
  options.max_versions = 6;
  const core::Engine engine;
  const auto via_engine = engine.architectures(six_version(), options);
  const auto direct =
      core::ArchitectureSpaceExplorer(options).explore(six_version());
  ASSERT_EQ(via_engine.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_engine[i].n, direct[i].n);
    EXPECT_EQ(via_engine[i].expected_reliability,
              direct[i].expected_reliability);
  }
}

}  // namespace
