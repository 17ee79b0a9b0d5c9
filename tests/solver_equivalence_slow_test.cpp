// Large-architecture dense-vs-sparse equivalence (ctest label: slow, run by
// the scheduled nightly rather than the per-push tier-1 gate). These are the
// state spaces the sparse backend exists for; each configuration checks the
// full stationary distribution of both backends against each other at 1e-10.
// The families are MRGPs, so a forced `sparse` runs the matrix-free operator.

#include <gtest/gtest.h>

#include "src/core/analyzer.hpp"
#include "src/core/model_factory.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/petri/reachability.hpp"

namespace nvp {
namespace {

struct Config {
  int n, f, r;
};

class LargeArchitectureEquivalence : public ::testing::TestWithParam<Config> {
};

TEST_P(LargeArchitectureEquivalence, FullDistributionAgrees) {
  const auto [n, f, r] = GetParam();
  auto params = core::SystemParameters::paper_six_version();
  params.n_versions = n;
  params.max_faulty = f;
  params.max_rejuvenating = r;
  const auto model = core::PerceptionModelFactory::build(params);
  const auto g = petri::TangibleReachabilityGraph::build(model.net);

  markov::DspnSteadyStateSolver::Options options;
  options.backend = markov::SolverBackend::kDense;
  const auto dense = markov::DspnSteadyStateSolver(options).solve(g);
  options.backend = markov::SolverBackend::kSparse;
  const auto sparse = markov::DspnSteadyStateSolver(options).solve(g);

  EXPECT_EQ(dense.backend_used, markov::SolverBackend::kDense);
  EXPECT_EQ(sparse.backend_used, markov::SolverBackend::kMatrixFree);
  ASSERT_EQ(dense.probabilities.size(), sparse.probabilities.size());
  for (std::size_t i = 0; i < dense.probabilities.size(); ++i)
    EXPECT_NEAR(sparse.probabilities[i], dense.probabilities[i], 1e-10)
        << "state " << i << " of " << g.size();
}

INSTANTIATE_TEST_SUITE_P(ScaledArchitectures, LargeArchitectureEquivalence,
                         ::testing::Values(Config{10, 2, 1},
                                           Config{12, 3, 1},
                                           Config{14, 3, 2}),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param.n) + "f" +
                                  std::to_string(info.param.f) + "r" +
                                  std::to_string(info.param.r);
                         });

}  // namespace
}  // namespace nvp
