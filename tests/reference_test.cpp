// The production backends against the long-double reference solver
// (reference_solver.hpp), which shares no arithmetic with them: the paper's
// headline values, and each backend's distance |E[R] - E[R]_ref| on the 6v
// MRGP at tau = 100/600/3000 s and on the 4v CTMC. The bounds sit above the
// measured distances (printed by each test) with room for a compiler's
// rounding, and far below any modeling difference.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "src/core/analyzer.hpp"
#include "src/markov/solver_config.hpp"
#include "src/util/string_util.hpp"
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

double distance(double value, reference::Real ref) {
  return static_cast<double>(std::fabs(static_cast<reference::Real>(value) -
                                       ref));
}

core::SystemParameters six_version(double tau) {
  auto params = core::SystemParameters::paper_six_version();
  params.rejuvenation_interval = tau;
  return params;
}

TEST(ReferenceSolver, ReproducesTheHeadlineValues) {
  EXPECT_EQ(util::format("%.6Lf", reference::expected_reliability(
                                      core::SystemParameters::
                                          paper_four_version())),
            "0.821456");
  EXPECT_EQ(util::format("%.6Lf", reference::expected_reliability(
                                      six_version(600.0))),
            "0.937481");
}

TEST(ReferenceSolver, SixVersionBackendsStayWithinTheirBounds) {
  // The dense values of the solve that formed C by doubling (then nu C),
  // which DenseOutputKeepsItsRecordedBits and
  // HomogeneousPipelineIsBitIdenticalToPreRefactor pinned until C left.
  struct Row {
    double tau;
    double integral_dense;
  };
  const Row rows[] = {{100.0, 0x1.d53d7a25aeceap-1},
                      {600.0, 0.9374805923145606},
                      {3000.0, 0x1.b74b25a7087b9p-1}};
  for (const Row& row : rows) {
    const auto params = six_version(row.tau);
    const reference::Real ref = reference::expected_reliability(params);
    const double dense =
        distance(expected_reliability(params, markov::SolverBackend::kDense),
                 ref);
    const double mfree = distance(
        expected_reliability(params, markov::SolverBackend::kMatrixFree),
        ref);
    const double before = distance(row.integral_dense, ref);
    std::printf("6v tau=%-5g E[R]_ref %.17Lf  |dense - ref| %.2e  "
                "|mfree - ref| %.2e  |integral dense - ref| %.2e\n",
                row.tau, ref, dense, mfree, before);
    EXPECT_LE(dense, 1e-12) << "tau " << row.tau;
    EXPECT_LE(mfree, 2e-12) << "tau " << row.tau;
  }
}

TEST(ReferenceSolver, FourVersionCtmcBackendsStayWithinTheirBounds) {
  const auto params = core::SystemParameters::paper_four_version();
  const reference::Real ref = reference::expected_reliability(params);
  const double dense = distance(
      expected_reliability(params, markov::SolverBackend::kDense), ref);
  const double sparse = distance(
      expected_reliability(params, markov::SolverBackend::kSparse), ref);
  std::printf("4v E[R]_ref %.17Lf  |dense - ref| %.2e  |sparse - ref| %.2e\n",
              ref, dense, sparse);
  EXPECT_LE(dense, 1e-14);
  EXPECT_LE(sparse, 1e-13);
}

}  // namespace
}  // namespace nvp
