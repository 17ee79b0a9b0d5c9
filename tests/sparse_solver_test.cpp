// Sparse solver path: CSR assembly, ILU0/GMRES, sparse uniformization, and
// dense-vs-sparse backend equivalence on the paper configurations. The dense
// path is the oracle throughout — every comparison here pins the sparse
// backend to it at 1e-10 or tighter.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "src/core/analyzer.hpp"
#include "src/core/model_factory.hpp"
#include "src/core/staged.hpp"
#include "src/linalg/iterative.hpp"
#include "src/linalg/lu.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/ctmc.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/markov/sparse_assembly.hpp"
#include "src/markov/transient.hpp"
#include "src/petri/reachability.hpp"
#include "src/util/rng.hpp"

namespace nvp {
namespace {

using linalg::DenseMatrix;
using linalg::SparseMatrixCsr;
using linalg::Triplet;
using linalg::Vector;

// ---------------------------------------------------------------------------
// linalg: ILU0 and GMRES building blocks.

/// Diagonally dominant random sparse test matrix (well conditioned, full
/// structural diagonal) plus its dense twin.
std::pair<SparseMatrixCsr, DenseMatrix> random_system(std::uint64_t seed,
                                                      std::size_t n) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> column(0, n - 1);
  std::vector<Triplet> triplets;
  DenseMatrix dense(n, n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (int k = 0; k < 4; ++k) {
      const std::size_t c = column(rng);
      if (c == r) continue;
      const double v = value(rng);
      triplets.push_back({r, c, v});
      dense(r, c) += v;
    }
    const double diag = 6.0 + value(rng);
    triplets.push_back({r, r, diag});
    dense(r, r) += diag;
  }
  return {SparseMatrixCsr(n, n, std::move(triplets)), std::move(dense)};
}

TEST(Ilu0Test, ExactOnTriangularPattern) {
  // For a lower-triangular matrix the ILU0 pattern is complete, so the
  // factorization is exact and apply() is a true solve.
  std::vector<Triplet> triplets = {{0, 0, 4.0}, {1, 0, -1.0}, {1, 1, 3.0},
                                   {2, 1, -2.0}, {2, 2, 5.0}};
  const SparseMatrixCsr a(3, 3, std::move(triplets));
  const auto ilu = linalg::Ilu0::factor(a);
  ASSERT_TRUE(ilu.has_value());
  const Vector b = {4.0, 2.0, 1.0};
  const Vector x = ilu->apply(b);
  const Vector ax = a.multiply(x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(ax[i], b[i], 1e-12);
}

TEST(Ilu0Test, RejectsMissingDiagonal) {
  std::vector<Triplet> triplets = {{0, 1, 1.0}, {1, 0, 1.0}};
  const SparseMatrixCsr a(2, 2, std::move(triplets));
  EXPECT_FALSE(linalg::Ilu0::factor(a).has_value());
}

TEST(GmresTest, MatchesDenseLuOnRandomSystems) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::size_t n = 40;
    auto [sparse, dense] = random_system(seed, n);
    Vector b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      b[i] = std::sin(static_cast<double>(i + seed));
    const auto result = linalg::gmres(sparse, b);
    ASSERT_TRUE(result.converged) << "seed " << seed;
    const Vector expected = linalg::LuDecomposition(std::move(dense)).solve(b);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(result.x[i], expected[i], 1e-9) << "seed " << seed;
  }
}

TEST(GmresTest, JacobiAndUnpreconditionedAlsoConverge) {
  auto [sparse, dense] = random_system(11, 30);
  Vector b(30, 1.0);
  for (auto kind : {linalg::PreconditionerKind::kNone,
                    linalg::PreconditionerKind::kJacobi}) {
    linalg::GmresOptions options;
    options.preconditioner = kind;
    const auto result = linalg::gmres(sparse, b, options);
    EXPECT_TRUE(result.converged);
    const Vector ax = sparse.multiply(result.x);
    for (std::size_t i = 0; i < 30; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
  }
}

// ---------------------------------------------------------------------------
// markov: CSR assembly against the dense constructions.

petri::TangibleReachabilityGraph paper_graph(
    const core::SystemParameters& params) {
  const auto model = core::PerceptionModelFactory::build(params);
  return petri::TangibleReachabilityGraph::build(model.net);
}

TEST(SparseAssemblyTest, GeneratorMatchesDenseCtmc) {
  const auto params = core::SystemParameters::paper_four_version();
  const auto g = paper_graph(params);
  const auto dense = markov::Ctmc::from_graph(g).generator;
  const auto sparse = markov::sparse_generator(g);
  ASSERT_EQ(sparse.rows(), dense.rows());
  for (std::size_t r = 0; r < dense.rows(); ++r)
    for (std::size_t c = 0; c < dense.cols(); ++c)
      EXPECT_NEAR(sparse.at(r, c), dense(r, c), 1e-14);
  EXPECT_LT(sparse.nonzeros(), dense.rows() * dense.cols());
}

TEST(SparseAssemblyTest, UniformizationRowsMatchDenseExponential) {
  const auto params = core::SystemParameters::paper_six_version();
  const auto g = paper_graph(params);
  const std::size_t n = g.size();
  // Subordinated generator of the (single) deterministic transition group.
  std::vector<char> in_set(n, 0);
  double tau = 0.0;
  for (std::size_t s = 0; s < n; ++s)
    if (!g.deterministics(s).empty()) {
      in_set[s] = 1;
      tau = g.deterministics(s)[0].delay;
    }
  DenseMatrix q_dense(n, n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    if (!in_set[s]) continue;
    for (const petri::RateEdge& e : g.exponential_edges(s)) {
      q_dense(s, e.target) += e.rate;
      q_dense(s, s) -= e.rate;
    }
  }
  const DenseMatrix omega = markov::matrix_exponential(q_dense, tau);
  const markov::SparseUniformization uniformization(
      markov::sparse_subordinated_generator(g, in_set), tau);
  for (std::size_t s = 0; s < n; ++s) {
    if (!in_set[s]) continue;
    const auto row = uniformization.row_pair(s);
    Vector e_s(n, 0.0);
    e_s[s] = 1.0;
    const Vector sojourn =
        markov::ctmc_accumulated_sojourn(q_dense, e_s, tau);
    for (std::size_t u = 0; u < n; ++u) {
      EXPECT_NEAR(row.omega[u], omega(s, u), 1e-11);
      EXPECT_NEAR(row.sojourn[u], sojourn[u], 1e-9 * tau);
    }
  }
}

TEST(SparseStationaryTest, CtmcSteadyStateMatchesDense) {
  const auto params = core::SystemParameters::paper_four_version();
  const auto g = paper_graph(params);
  const auto dense = markov::ctmc_steady_state(
      markov::Ctmc::from_graph(g).generator);
  const auto sparse =
      markov::ctmc_steady_state_sparse(markov::sparse_generator(g));
  ASSERT_EQ(sparse.size(), dense.size());
  for (std::size_t i = 0; i < dense.size(); ++i)
    EXPECT_NEAR(sparse[i], dense[i], 1e-10);
}

// ---------------------------------------------------------------------------
// Backend equivalence on the paper configurations: both backends must agree
// on the full stationary distribution and on every reported R_{i,j,k}. A
// forced `sparse` runs the model class's sparse backend: CSR for a pure
// CTMC, the matrix-free operator for an MRGP.

void expect_backends_agree(const core::SystemParameters& params) {
  core::ReliabilityAnalyzer::Options dense_options;
  dense_options.use_cache = false;
  dense_options.solver.backend = markov::SolverBackend::kDense;
  core::ReliabilityAnalyzer::Options sparse_options = dense_options;
  sparse_options.solver.backend = markov::SolverBackend::kSparse;

  const auto dense =
      core::ReliabilityAnalyzer(dense_options).analyze(params);
  const auto sparse =
      core::ReliabilityAnalyzer(sparse_options).analyze(params);

  EXPECT_EQ(dense.backend_used, markov::SolverBackend::kDense);
  EXPECT_EQ(sparse.backend_used, sparse.used_dspn_solver
                                     ? markov::SolverBackend::kMatrixFree
                                     : markov::SolverBackend::kSparse);
  EXPECT_NEAR(sparse.expected_reliability, dense.expected_reliability,
              1e-10);
  ASSERT_EQ(sparse.state_distribution.size(),
            dense.state_distribution.size());
  // Distributions are sorted by probability; compare per (i, j, k) class.
  for (const auto& d : dense.state_distribution) {
    bool found = false;
    for (const auto& s : sparse.state_distribution) {
      if (s.healthy != d.healthy || s.compromised != d.compromised ||
          s.down != d.down)
        continue;
      found = true;
      EXPECT_NEAR(s.probability, d.probability, 1e-10);
      EXPECT_NEAR(s.reliability, d.reliability, 1e-10);
    }
    EXPECT_TRUE(found) << "class (" << d.healthy << "," << d.compromised
                       << "," << d.down << ") missing from sparse result";
  }
}

TEST(BackendEquivalenceTest, PaperFourVersion) {
  expect_backends_agree(core::SystemParameters::paper_four_version());
}

TEST(BackendEquivalenceTest, PaperSixVersion) {
  expect_backends_agree(core::SystemParameters::paper_six_version());
}

TEST(BackendEquivalenceTest, PaperSixVersionParameterVariants) {
  auto params = core::SystemParameters::paper_six_version();
  params.rejuvenation_interval = 1200.0;
  expect_backends_agree(params);
  params = core::SystemParameters::paper_six_version();
  params.alpha = 0.9;
  params.p = 0.2;
  expect_backends_agree(params);
  params = core::SystemParameters::paper_six_version();
  params.mean_time_to_compromise = 500.0;
  expect_backends_agree(params);
}

// Randomized DSPN property test: on arbitrary live nets (ring + chords +
// deterministic maintenance clock — the fuzz_test generator family), the two
// backends must produce the same stationary vector.
petri::PetriNet random_ring_net(std::uint64_t seed, bool with_deterministic) {
  util::RandomStream rng(seed);
  petri::PetriNet net("sparse_fuzz" + std::to_string(seed));
  const int places = 2 + static_cast<int>(rng.uniform_index(3));
  std::vector<petri::PlaceId> ring;
  for (int p = 0; p < places; ++p)
    ring.push_back(net.add_place(
        "P" + std::to_string(p),
        p == 0 ? 1 + static_cast<int>(rng.uniform_index(3)) : 0));
  for (int p = 0; p < places; ++p) {
    const auto t = net.add_exponential("ring" + std::to_string(p),
                                       rng.uniform(0.05, 2.0));
    net.add_input_arc(t, ring[static_cast<std::size_t>(p)]);
    net.add_output_arc(t, ring[static_cast<std::size_t>((p + 1) % places)]);
  }
  const int chords = static_cast<int>(rng.uniform_index(3));
  for (int c = 0; c < chords; ++c) {
    const auto from = rng.uniform_index(static_cast<std::size_t>(places));
    auto to = rng.uniform_index(static_cast<std::size_t>(places));
    if (to == from) to = (to + 1) % static_cast<std::size_t>(places);
    const auto t = net.add_exponential("chord" + std::to_string(c),
                                       rng.uniform(0.05, 1.0));
    net.add_input_arc(t, ring[from]);
    net.add_output_arc(t, ring[to]);
  }
  if (with_deterministic) {
    const auto armed = net.add_place("armed", 1);
    const auto expired = net.add_place("expired", 0);
    const auto tick = net.add_deterministic("tick", rng.uniform(1.0, 20.0));
    net.add_input_arc(tick, armed);
    net.add_output_arc(tick, expired);
    const auto fix = net.add_immediate("fix");
    net.add_input_arc(fix, expired);
    net.add_output_arc(fix, armed);
  }
  return net;
}

TEST(BackendEquivalenceTest, RandomizedNetsAgree) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const bool with_deterministic = seed % 2 == 0;
    const auto net = random_ring_net(seed, with_deterministic);
    const auto g = petri::TangibleReachabilityGraph::build(net);
    markov::DspnSteadyStateSolver::Options dense_options;
    dense_options.backend = markov::SolverBackend::kDense;
    markov::DspnSteadyStateSolver::Options sparse_options;
    sparse_options.backend = markov::SolverBackend::kSparse;
    const auto dense =
        markov::DspnSteadyStateSolver(dense_options).solve(g);
    const auto sparse =
        markov::DspnSteadyStateSolver(sparse_options).solve(g);
    ASSERT_EQ(dense.probabilities.size(), sparse.probabilities.size());
    for (std::size_t i = 0; i < dense.probabilities.size(); ++i)
      EXPECT_NEAR(sparse.probabilities[i], dense.probabilities[i], 1e-10)
          << "seed " << seed << " state " << i;
  }
}

// ---------------------------------------------------------------------------
// Dispatch, reporting, and cache identity.

TEST(BackendDispatchTest, AutoPicksMatrixFreeForShortSeriesDenseForLong) {
  // 70 states, MRGP (rejuvenation clock). kAuto weighs the clock's series
  // terms lambda * tau against the state count: a short interval keeps the
  // matrix-free propagation cheap, a long one makes the dense doublings win.
  auto params = core::SystemParameters::paper_six_version();
  params.rejuvenation_interval = 100.0;
  auto g = paper_graph(params);
  markov::DspnSteadyStateSolver::Options options;  // kAuto
  auto result = markov::DspnSteadyStateSolver(options).solve(g);
  EXPECT_EQ(result.backend_used, markov::SolverBackend::kMatrixFree);
  EXPECT_EQ(result.dispatch.reason, markov::DispatchReason::kCost);
  EXPECT_LT(result.dispatch.series_terms, 3.0 * g.size());
  params.rejuvenation_interval = 3000.0;
  g = paper_graph(params);
  result = markov::DspnSteadyStateSolver(options).solve(g);
  EXPECT_EQ(result.backend_used, markov::SolverBackend::kDense);
  EXPECT_GT(result.dispatch.series_terms, 20.0 * g.size());
  // A forced `sparse` names the MRGP's sparse backend, the operator.
  options.backend = markov::SolverBackend::kSparse;
  result = markov::DspnSteadyStateSolver(options).solve(g);
  EXPECT_EQ(result.backend_used, markov::SolverBackend::kMatrixFree);
  EXPECT_EQ(result.dispatch.reason, markov::DispatchReason::kForced);
}

TEST(BackendDispatchTest, AutoUsesCtmcThresholdWithoutDeterministics) {
  // Pure CTMCs (no deterministic clock) on either side of the 128-state
  // threshold: the 15-state 4v preset stays dense, N = 20 f = 6 (231
  // states) goes sparse.
  auto params = core::SystemParameters::paper_four_version();
  markov::DspnSteadyStateSolver::Options options;  // kAuto
  auto g = paper_graph(params);
  ASSERT_LT(g.size(), 128u);
  auto result = markov::DspnSteadyStateSolver(options).solve(g);
  EXPECT_TRUE(result.pure_ctmc);
  EXPECT_EQ(result.backend_used, markov::SolverBackend::kDense);
  EXPECT_EQ(result.dispatch.reason, markov::DispatchReason::kCtmcSize);
  params.n_versions = 20;
  params.max_faulty = 6;
  g = paper_graph(params);
  ASSERT_GE(g.size(), 128u);
  result = markov::DspnSteadyStateSolver(options).solve(g);
  EXPECT_TRUE(result.pure_ctmc);
  EXPECT_EQ(result.backend_used, markov::SolverBackend::kSparse);
  EXPECT_EQ(result.dispatch.reason, markov::DispatchReason::kCtmcSize);
}

TEST(BackendDispatchTest, SparseReportsFewerStoredEntriesOnCtmcModels) {
  const auto params = core::SystemParameters::paper_four_version();
  const auto g = paper_graph(params);
  markov::DspnSteadyStateSolver::Options options;
  options.backend = markov::SolverBackend::kSparse;
  const auto sparse = markov::DspnSteadyStateSolver(options).solve(g);
  options.backend = markov::SolverBackend::kDense;
  const auto dense = markov::DspnSteadyStateSolver(options).solve(g);
  EXPECT_LT(sparse.matrix_nonzeros, dense.matrix_nonzeros);
  EXPECT_EQ(dense.matrix_nonzeros, g.size() * g.size());
}

TEST(CacheKeyTest, BackendAndThresholdChangeTheKey) {
  const auto params = core::SystemParameters::paper_six_version();
  core::ReliabilityAnalyzer::Options options;
  const auto base_key = core::rewards_stage_key(params, options);
  options.solver.backend = markov::SolverBackend::kSparse;
  EXPECT_NE(core::rewards_stage_key(params, options), base_key);
  options.solver.backend = markov::SolverBackend::kAuto;
  // The attempt deadline bounds every iterative attempt.
  options.solver.fallback.attempt_deadline_seconds = 1.0;
  EXPECT_NE(core::rewards_stage_key(params, options), base_key);
  options.solver.fallback.attempt_deadline_seconds = 0.0;  // default restored
  EXPECT_EQ(core::rewards_stage_key(params, options), base_key);
  // The fallback chain also decides the whole-solve dense retry.
  options.solver.fallback.stages = {markov::FallbackStage::kMatrixFree};
  EXPECT_NE(core::rewards_stage_key(params, options), base_key);
  options.solver.fallback = markov::FallbackOptions{};  // default restored
  EXPECT_EQ(core::rewards_stage_key(params, options), base_key);
}

}  // namespace
}  // namespace nvp
