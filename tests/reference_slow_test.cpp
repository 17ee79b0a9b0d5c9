// The larger rejuvenating families against the long-double reference
// solver (reference_solver.hpp): N = 8 (117 states) and N = 10 (176
// states), f = r = 1, at tau = 100/600/3000 s, on the dense and the
// matrix-free backend. The reference's plain series costs seconds here, so
// these run in the nightly tier; reference_test covers the 6v and 4v
// models on every push. Each test prints the distances it measured.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "src/core/analyzer.hpp"
#include "src/markov/solver_config.hpp"
#include "tests/reference_solver.hpp"

namespace nvp {
namespace {

double expected_reliability(const core::SystemParameters& params,
                            markov::SolverBackend backend) {
  core::ReliabilityAnalyzer::Options options;
  options.solver.backend = backend;
  options.use_cache = false;
  return core::ReliabilityAnalyzer(options).analyze(params)
      .expected_reliability;
}

class ReferenceFamily : public ::testing::TestWithParam<int> {};

TEST_P(ReferenceFamily, BackendsStayWithinTheirBounds) {
  for (const double tau : {100.0, 600.0, 3000.0}) {
    auto params = core::SystemParameters::paper_six_version();
    params.n_versions = GetParam();
    params.rejuvenation_interval = tau;
    const reference::Real ref = reference::expected_reliability(params);
    const auto distance = [&](markov::SolverBackend backend) {
      return static_cast<double>(std::fabs(
          static_cast<reference::Real>(expected_reliability(params, backend)) -
          ref));
    };
    const double dense = distance(markov::SolverBackend::kDense);
    const double mfree = distance(markov::SolverBackend::kMatrixFree);
    std::printf("N=%d tau=%-5g E[R]_ref %.17Lf  |dense - ref| %.2e  "
                "|mfree - ref| %.2e\n",
                GetParam(), tau, ref, dense, mfree);
    EXPECT_LE(dense, 5e-12) << "N " << GetParam() << " tau " << tau;
    EXPECT_LE(mfree, 3e-11) << "N " << GetParam() << " tau " << tau;
  }
}

INSTANTIATE_TEST_SUITE_P(Versions, ReferenceFamily, ::testing::Values(8, 10));

}  // namespace
}  // namespace nvp
