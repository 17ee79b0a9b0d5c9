// Slow-tier MRGP scaling checks: the matrix-free backend must handle the
// 6-version-with-rejuvenation families at N = 40..100 (10^4..10^5 tangible
// states) that the dense path cannot touch, and its answers must stay
// internally consistent (probability simplex, agreement with the dense
// backend at a mid-size point, reward sanity end to end).

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/analyzer.hpp"
#include "src/core/model_factory.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/markov/solver_config.hpp"
#include "src/petri/reachability.hpp"

namespace nvp {
namespace {

core::SystemParameters family(int n, int f, int r) {
  auto params = core::SystemParameters::paper_six_version();
  params.n_versions = n;
  params.max_faulty = f;
  params.max_rejuvenating = r;
  params.validate();
  return params;
}

petri::TangibleReachabilityGraph graph_for(const core::SystemParameters& p) {
  const auto model = core::PerceptionModelFactory::build(p);
  return petri::TangibleReachabilityGraph::build(model.net);
}

void expect_simplex(const linalg::Vector& pi, const char* label) {
  double total = 0.0;
  for (double v : pi) {
    EXPECT_GE(v, 0.0) << label;
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9) << label;
}

TEST(MrgpScalingSlowTest, MidSizeFamilyMatchesTheDenseBackend) {
  // Past a thousand states, where kAuto already sends every horizon to the
  // operator, but small enough to densify: the dense backend (LU and
  // matrix-exponential doubling) shares no code with the operator's sparse
  // uniformization, so the two MRGP constructions must agree.
  const auto params = family(20, 2, 2);
  const auto g = graph_for(params);
  ASSERT_TRUE(g.has_deterministic());
  ASSERT_GE(g.size(), 1000u);

  markov::SolverConfig dense;
  dense.backend = markov::SolverBackend::kDense;
  const auto dense_result = markov::DspnSteadyStateSolver(dense).solve(g);
  ASSERT_EQ(dense_result.backend_used, markov::SolverBackend::kDense);

  markov::SolverConfig mfree;
  mfree.backend = markov::SolverBackend::kMatrixFree;
  const auto mfree_result = markov::DspnSteadyStateSolver(mfree).solve(g);
  ASSERT_EQ(mfree_result.backend_used, markov::SolverBackend::kMatrixFree);

  ASSERT_EQ(dense_result.probabilities.size(),
            mfree_result.probabilities.size());
  for (std::size_t i = 0; i < mfree_result.probabilities.size(); ++i)
    EXPECT_NEAR(mfree_result.probabilities[i], dense_result.probabilities[i],
                1e-9)
        << "state " << i;
}

TEST(MrgpScalingSlowTest, LargeFamiliesSolveMatrixFree) {
  // The headline capability: families the dense assembly cannot represent
  // (two n^2 matrices at n ~ 10^4 would be gigabytes). kAuto must route
  // them to the matrix-free backend and produce a valid distribution.
  // The rejuvenation budget r drives the state count (the fault budget f
  // only caps the voter): r = 4 puts N = 40..100 at 10^4..10^5 states.
  for (const int n : {40, 64}) {
    const auto params = family(n, 2, 4);
    const auto g = graph_for(params);
    ASSERT_TRUE(g.has_deterministic()) << "N=" << n;
    ASSERT_GE(g.size(), 10000u) << "N=" << n;

    markov::SolverConfig config;  // kAuto
    const auto result = markov::DspnSteadyStateSolver(config).solve(g);
    EXPECT_EQ(result.backend_used, markov::SolverBackend::kMatrixFree)
        << "N=" << n;
    expect_simplex(result.probabilities, "large family");
    // Operator storage stays sparse: far below one dense matrix, let alone
    // the two the dense backend materializes.
    EXPECT_LT(result.matrix_nonzeros, g.size() * 64) << "N=" << n;
  }
}

TEST(MrgpScalingSlowTest, EndToEndReliabilityStaysInUnitInterval) {
  // The full analyzer pipeline (staged structure, kAuto dispatch, rewards)
  // on a family well beyond the dense ceiling.
  core::ReliabilityAnalyzer::Options options;
  options.use_cache = false;
  const auto analysis =
      core::ReliabilityAnalyzer(options).analyze(family(40, 2, 2));
  EXPECT_EQ(analysis.backend_used, markov::SolverBackend::kMatrixFree);
  EXPECT_GT(analysis.expected_reliability, 0.0);
  EXPECT_LE(analysis.expected_reliability, 1.0);
}

}  // namespace
}  // namespace nvp
