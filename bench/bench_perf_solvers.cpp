// Performance microbenchmarks (google-benchmark) for the analytic and
// simulation machinery: reachability generation, CTMC steady state, the
// MRGP/DSPN solver, the full analyzer pipeline, and simulator throughput —
// across growing N so the state-space scaling is visible.

#include <benchmark/benchmark.h>

#include "src/core/analyzer.hpp"
#include "src/core/model_factory.hpp"
#include "src/core/reliability.hpp"
#include "src/core/staged.hpp"
#include "src/core/sweep.hpp"
#include "src/markov/ctmc.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/petri/reachability.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/sim/dspn_simulator.hpp"

namespace {

using namespace nvp;

core::SystemParameters params_for(int n, bool rejuvenation) {
  core::SystemParameters params;
  params.n_versions = n;
  params.rejuvenation = rejuvenation;
  return params;
}

void BM_ReachabilityNoRejuvenation(benchmark::State& state) {
  const auto params = params_for(static_cast<int>(state.range(0)), false);
  const auto model = core::PerceptionModelFactory::build(params);
  for (auto _ : state) {
    auto g = petri::TangibleReachabilityGraph::build(model.net);
    benchmark::DoNotOptimize(g.size());
  }
}
BENCHMARK(BM_ReachabilityNoRejuvenation)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_ReachabilityRejuvenation(benchmark::State& state) {
  const auto params = params_for(static_cast<int>(state.range(0)), true);
  const auto model = core::PerceptionModelFactory::build(params);
  for (auto _ : state) {
    auto g = petri::TangibleReachabilityGraph::build(model.net);
    benchmark::DoNotOptimize(g.size());
  }
}
BENCHMARK(BM_ReachabilityRejuvenation)->Arg(6)->Arg(10)->Arg(16);

void BM_CtmcSteadyState(benchmark::State& state) {
  const auto params = params_for(static_cast<int>(state.range(0)), false);
  const auto model = core::PerceptionModelFactory::build(params);
  const auto g = petri::TangibleReachabilityGraph::build(model.net);
  const auto chain = markov::Ctmc::from_graph(g);
  for (auto _ : state) {
    auto pi = markov::ctmc_steady_state(chain.generator);
    benchmark::DoNotOptimize(pi.data());
  }
  state.SetLabel(std::to_string(g.size()) + " states");
}
BENCHMARK(BM_CtmcSteadyState)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_DspnSolver(benchmark::State& state) {
  const auto params = params_for(static_cast<int>(state.range(0)), true);
  const auto model = core::PerceptionModelFactory::build(params);
  const auto g = petri::TangibleReachabilityGraph::build(model.net);
  const markov::DspnSteadyStateSolver solver;
  for (auto _ : state) {
    auto result = solver.solve(g);
    benchmark::DoNotOptimize(result.probabilities.data());
  }
  state.SetLabel(std::to_string(g.size()) + " states");
}
BENCHMARK(BM_DspnSolver)->Arg(6)->Arg(10)->Arg(14);

void BM_FullAnalyzerSixVersion(benchmark::State& state) {
  // Memoization off: this measures the full solve, not a cache hit.
  core::ReliabilityAnalyzer::Options options;
  options.use_cache = false;
  const core::ReliabilityAnalyzer analyzer(options);
  const auto params = core::SystemParameters::paper_six_version();
  for (auto _ : state) {
    auto result = analyzer.analyze(params);
    benchmark::DoNotOptimize(result.expected_reliability);
  }
}
BENCHMARK(BM_FullAnalyzerSixVersion);

// Observability cost on the hottest composite path: the full analyzer solve
// with metrics collection on (the default) vs off (NVP_METRICS=0). Arg 0 =
// disabled, 1 = enabled; the delta between the two is the obs overhead,
// which the acceptance budget caps at 2%. Tracing stays off in both —
// spans are the opt-in layer.
void BM_FullAnalyzerObsToggle(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(state.range(0) != 0);
  core::ReliabilityAnalyzer::Options options;
  options.use_cache = false;
  const core::ReliabilityAnalyzer analyzer(options);
  const auto params = core::SystemParameters::paper_six_version();
  for (auto _ : state) {
    auto result = analyzer.analyze(params);
    benchmark::DoNotOptimize(result.expected_reliability);
  }
  state.SetLabel(state.range(0) != 0 ? "metrics on" : "metrics off");
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_FullAnalyzerObsToggle)->Arg(0)->Arg(1);

// Same toggle with tracing also on, which is the expensive opt-in: every
// span allocates and takes the recorder lock once on scope exit.
void BM_FullAnalyzerTracing(benchmark::State& state) {
  obs::set_tracing(true);
  core::ReliabilityAnalyzer::Options options;
  options.use_cache = false;
  const core::ReliabilityAnalyzer analyzer(options);
  const auto params = core::SystemParameters::paper_six_version();
  for (auto _ : state) {
    auto result = analyzer.analyze(params);
    benchmark::DoNotOptimize(result.expected_reliability);
  }
  obs::set_tracing(false);
  obs::TraceRecorder::global().clear();
}
BENCHMARK(BM_FullAnalyzerTracing);

void BM_SimulatorThroughput(benchmark::State& state) {
  const auto params = core::SystemParameters::paper_six_version();
  const auto model = core::PerceptionModelFactory::build(params);
  const auto rewards = core::make_reliability_model(params);
  const sim::DspnSimulator simulator(model.net);
  const markov::MarkingReward reward = [&](const petri::Marking& m) {
    return rewards->state_reliability(model.healthy(m),
                                      model.compromised(m), model.down(m));
  };
  std::uint64_t seed = 1;
  std::uint64_t firings = 0;
  for (auto _ : state) {
    sim::SimulationOptions opts;
    opts.horizon = 1e5;
    opts.seed = seed++;
    const auto result = simulator.run({reward}, opts);
    firings += result.timed_firings;
    benchmark::DoNotOptimize(result.time_average_rewards[0]);
  }
  state.counters["firings/s"] = benchmark::Counter(
      static_cast<double>(firings), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput);

// --- runtime layer: parallel sweeps, memoized solves, parallel replication.
// The Arg is the job count, so one run reports the serial-vs-parallel
// scaling directly; cache_hit_rate is attached as a counter.

void BM_SweepIntervalColdCache(benchmark::State& state) {
  runtime::set_default_jobs(static_cast<std::size_t>(state.range(0)));
  const core::ReliabilityAnalyzer analyzer;
  const auto base = core::SystemParameters::paper_six_version();
  const auto values = core::linspace(200.0, 3000.0, 12);
  for (auto _ : state) {
    core::clear_stage_caches();
    auto points = core::sweep_parameter(
        analyzer, base, core::set_rejuvenation_interval(), values);
    benchmark::DoNotOptimize(points.data());
  }
  state.counters["cache_hit_rate"] =
      core::stage_cache_stats().rewards.hit_rate();
  runtime::set_default_jobs(0);
}
BENCHMARK(BM_SweepIntervalColdCache)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SweepIntervalWarmCache(benchmark::State& state) {
  runtime::set_default_jobs(static_cast<std::size_t>(state.range(0)));
  const core::ReliabilityAnalyzer analyzer;
  const auto base = core::SystemParameters::paper_six_version();
  const auto values = core::linspace(200.0, 3000.0, 12);
  core::clear_stage_caches();
  // Warm the cache once; every timed iteration then hits on all 12 points.
  core::sweep_parameter(analyzer, base, core::set_rejuvenation_interval(),
                        values);
  for (auto _ : state) {
    auto points = core::sweep_parameter(
        analyzer, base, core::set_rejuvenation_interval(), values);
    benchmark::DoNotOptimize(points.data());
  }
  state.counters["cache_hit_rate"] =
      core::stage_cache_stats().rewards.hit_rate();
  runtime::set_default_jobs(0);
}
BENCHMARK(BM_SweepIntervalWarmCache)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ReplicatedEstimate(benchmark::State& state) {
  runtime::set_default_jobs(static_cast<std::size_t>(state.range(0)));
  const auto params = core::SystemParameters::paper_six_version();
  const auto model = core::PerceptionModelFactory::build(params);
  const auto rewards = core::make_reliability_model(params);
  const sim::DspnSimulator simulator(model.net);
  const markov::MarkingReward reward = [&](const petri::Marking& m) {
    return rewards->state_reliability(model.healthy(m),
                                      model.compromised(m), model.down(m));
  };
  for (auto _ : state) {
    sim::SimulationOptions opts;
    opts.horizon = 2e4;
    opts.seed = 7;
    const auto estimate = simulator.estimate(reward, opts, 8);
    benchmark::DoNotOptimize(estimate.mean);
  }
  runtime::set_default_jobs(0);
}
BENCHMARK(BM_ReplicatedEstimate)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_GeneralizedRewardEvaluation(benchmark::State& state) {
  const core::GeneralizedReliability rewards(
      10, core::VotingScheme::bft_rejuvenating(10, 2, 1), 0.08, 0.5, 0.5);
  for (auto _ : state) {
    double acc = 0.0;
    for (int i = 0; i <= 10; ++i)
      for (int j = 0; i + j <= 10; ++j)
        acc += rewards.state_reliability(i, j, 10 - i - j);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_GeneralizedRewardEvaluation);

}  // namespace

BENCHMARK_MAIN();
