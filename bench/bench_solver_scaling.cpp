// Dense-vs-sparse pure-CTMC solver scaling (google-benchmark): the same full
// analyzer solve (memoization off) with the backend forced each way, across
// growing architectures with rejuvenation off, plus raw solver-only runs on
// a prebuilt reachability graph. Each run reports tangible states, stored
// matrix nonzeros, and the bytes those matrices occupy (dense counts its
// full n^2 allocations at 8 B/entry, CSR counts value + column index at
// 16 B/entry), so both the time and the memory scaling are visible in one
// JSON artifact:
//
//   bench_solver_scaling --benchmark_format=json
//
// The generator of a pure CTMC carries O(n) nonzeros, so the CSR backend is
// >100x leaner at large N. MRGP models (rejuvenation on) are measured
// dense against matrix-free by bench_mrgp_scaling.

#include <benchmark/benchmark.h>

#include <string>

#include "src/core/analyzer.hpp"
#include "src/core/model_factory.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/petri/reachability.hpp"

namespace {

using namespace nvp;

/// The paper's six-version parameters scaled to n versions tolerating f
/// compromised ones, rejuvenation off (a pure CTMC).
core::SystemParameters scaled_params(int n, int f) {
  core::SystemParameters params = core::SystemParameters::paper_six_version();
  params.n_versions = n;
  params.max_faulty = f;
  params.rejuvenation = false;
  return params;
}

markov::SolverBackend backend_arg(const benchmark::State& state) {
  return state.range(2) != 0 ? markov::SolverBackend::kSparse
                             : markov::SolverBackend::kDense;
}

void attach_counters(benchmark::State& state, std::size_t states,
                     std::size_t nonzeros, bool sparse) {
  state.counters["states"] = static_cast<double>(states);
  state.counters["nonzeros"] = static_cast<double>(nonzeros);
  // Dense stores 8-byte values at every slot; CSR pays 8 B value + ~8 B
  // column index per stored nonzero.
  state.counters["matrix_bytes"] =
      static_cast<double>(nonzeros) * (sparse ? 16.0 : 8.0);
  state.SetLabel(std::string(sparse ? "sparse" : "dense") + ", " +
                 std::to_string(states) + " states");
}

/// Full analyzer pipeline (model build + reachability + solve + rewards),
/// uncached, with the backend forced by the last Arg.
void BM_AnalyzerScaling(benchmark::State& state) {
  const auto params = scaled_params(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(1)));
  core::ReliabilityAnalyzer::Options options;
  options.use_cache = false;
  options.convention = core::RewardConvention::kGeneralized;
  options.solver.backend = backend_arg(state);
  const core::ReliabilityAnalyzer analyzer(options);
  std::size_t states = 0;
  std::size_t nonzeros = 0;
  for (auto _ : state) {
    auto result = analyzer.analyze(params);
    states = result.tangible_states;
    nonzeros = result.matrix_nonzeros;
    benchmark::DoNotOptimize(result.expected_reliability);
  }
  attach_counters(state, states, nonzeros,
                  backend_arg(state) == markov::SolverBackend::kSparse);
}
// Args: {n_versions, max_faulty, sparse}.
BENCHMARK(BM_AnalyzerScaling)
    ->Unit(benchmark::kMillisecond)
    ->Args({10, 2, 0})
    ->Args({10, 2, 1})
    ->Args({20, 5, 0})
    ->Args({20, 5, 1})
    ->Args({40, 13, 0})
    ->Args({40, 13, 1});

/// Solver only: the reachability graph is prebuilt outside the timed loop,
/// so this isolates the dense/sparse stationary machinery.
void BM_SolverOnlyScaling(benchmark::State& state) {
  const auto params = scaled_params(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(1)));
  const auto model = core::PerceptionModelFactory::build(params);
  const auto g = petri::TangibleReachabilityGraph::build(model.net);
  markov::DspnSteadyStateSolver::Options options;
  options.backend = backend_arg(state);
  const markov::DspnSteadyStateSolver solver(options);
  std::size_t nonzeros = 0;
  for (auto _ : state) {
    auto result = solver.solve(g);
    nonzeros = result.matrix_nonzeros;
    benchmark::DoNotOptimize(result.probabilities.data());
  }
  attach_counters(state, g.size(), nonzeros,
                  backend_arg(state) == markov::SolverBackend::kSparse);
}
BENCHMARK(BM_SolverOnlyScaling)
    ->Unit(benchmark::kMillisecond)
    ->Args({40, 13, 0})
    ->Args({40, 13, 1});

}  // namespace

BENCHMARK_MAIN();
