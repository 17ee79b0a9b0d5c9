// Matrix-free MRGP solves and the unified SolverConfig API: LinearOperator
// adapters, operator-driven GMRES/power iteration, the EmbeddedChainOperator
// against the dense oracle at 1e-10, Erlangization as an independent
// cross-check, the mfree fallback stage (including injected faults), kAuto
// dispatch on the series-terms cost rule, and SolverConfig
// round-trip/hash/alias behavior. The dense backend remains the oracle
// throughout.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "src/core/analyzer.hpp"
#include "src/core/model_factory.hpp"
#include "src/core/staged.hpp"
#include "src/fault/injector.hpp"
#include "src/linalg/iterative.hpp"
#include "src/linalg/operator.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/ctmc.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/markov/erlangization.hpp"
#include "src/markov/matrix_free.hpp"
#include "src/markov/sparse_assembly.hpp"
#include "src/markov/solver_config.hpp"
#include "src/markov/transient.hpp"
#include "src/obs/metrics.hpp"
#include "src/petri/reachability.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/service/wire.hpp"
#include "src/util/rng.hpp"

namespace nvp {
namespace {

using linalg::DenseMatrix;
using linalg::SparseMatrixCsr;
using linalg::Triplet;
using linalg::Vector;

petri::TangibleReachabilityGraph paper_graph(
    const core::SystemParameters& params) {
  const auto model = core::PerceptionModelFactory::build(params);
  return petri::TangibleReachabilityGraph::build(model.net);
}

markov::DspnSteadyStateResult solve_with_backend(
    const petri::TangibleReachabilityGraph& g, markov::SolverBackend backend) {
  markov::SolverConfig config;
  config.backend = backend;
  return markov::DspnSteadyStateSolver(config).solve(g);
}

void expect_agrees(const Vector& actual, const Vector& oracle, double tol,
                   const char* label) {
  ASSERT_EQ(actual.size(), oracle.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i)
    EXPECT_NEAR(actual[i], oracle[i], tol) << label << " state " << i;
}

// ---------------------------------------------------------------------------
// linalg: LinearOperator adapters and operator-driven iterative solvers.

TEST(LinearOperatorTest, AdaptersMatchMatrixAction) {
  std::vector<Triplet> triplets = {
      {0, 0, 2.0}, {0, 2, -1.0}, {1, 1, 3.0}, {2, 0, 0.5}, {2, 2, 4.0}};
  const SparseMatrixCsr sparse(3, 3, std::move(triplets));
  const DenseMatrix dense = sparse.to_dense();
  const linalg::CsrOperator csr_op(sparse);
  const linalg::DenseOperator dense_op(dense);
  EXPECT_EQ(csr_op.rows(), 3u);
  EXPECT_EQ(dense_op.cols(), 3u);
  const Vector x = {1.0, -2.0, 0.25};
  const Vector expected = sparse.multiply(x);
  expect_agrees(csr_op.apply(x), expected, 1e-15, "csr adapter");
  expect_agrees(dense_op.apply(x), expected, 1e-15, "dense adapter");
}

TEST(LinearOperatorTest, OperatorGmresMatchesCsrGmres) {
  // Diagonally dominant random system: both paths are unpreconditioned, so
  // the iterates (and the answer) must agree to rounding.
  util::RandomStream rng(7);
  const std::size_t n = 32;
  std::vector<Triplet> triplets;
  for (std::size_t r = 0; r < n; ++r) {
    triplets.push_back({r, (r + 1) % n, rng.uniform(-1.0, 1.0)});
    triplets.push_back({r, (r + 5) % n, rng.uniform(-1.0, 1.0)});
    triplets.push_back({r, r, 6.0 + rng.uniform(-1.0, 1.0)});
  }
  const SparseMatrixCsr a(n, n, std::move(triplets));
  Vector b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) b[i] = std::sin(static_cast<double>(i));

  linalg::GmresOptions options;
  options.preconditioner = linalg::PreconditionerKind::kNone;
  const auto matrix_result = linalg::gmres(a, b, options);
  const linalg::CsrOperator op(a);
  const auto operator_result = linalg::gmres(op, b);
  ASSERT_TRUE(matrix_result.converged);
  ASSERT_TRUE(operator_result.converged);
  expect_agrees(operator_result.x, matrix_result.x, 1e-12, "operator gmres");
}

TEST(LinearOperatorTest, OperatorPowerIterationFindsStationary) {
  // Small explicit DTMC; the operator path must match the matrix path.
  std::vector<Triplet> triplets = {{0, 0, 0.5}, {0, 1, 0.5}, {1, 0, 0.25},
                                   {1, 1, 0.25}, {1, 2, 0.5}, {2, 0, 1.0}};
  const SparseMatrixCsr p(3, 3, std::move(triplets));
  const auto matrix_result = linalg::stationary_power_iteration(p);
  ASSERT_TRUE(matrix_result.converged);
  // The operator contract is the LEFT action; build it from the transpose.
  class LeftAction final : public linalg::LinearOperator {
   public:
    explicit LeftAction(const SparseMatrixCsr& m) : m_(&m) {}
    std::size_t rows() const override { return m_->rows(); }
    std::size_t cols() const override { return m_->cols(); }
    void apply_into(const Vector& x, Vector& y) const override {
      y = m_->left_multiply(x);
    }

   private:
    const SparseMatrixCsr* m_;
  };
  const LeftAction left(p);
  const auto operator_result = linalg::stationary_power_iteration(left);
  ASSERT_TRUE(operator_result.converged);
  expect_agrees(operator_result.x, matrix_result.x, 1e-12, "operator power");
}

// ---------------------------------------------------------------------------
// markov: SparseUniformization omega-only propagation.

TEST(OmegaRowTest, MatchesRowPairAndIsLinear) {
  const auto params = core::SystemParameters::paper_six_version();
  const auto g = paper_graph(params);
  const std::size_t n = g.size();
  std::vector<char> in_set(n, 0);
  double tau = 0.0;
  for (std::size_t s = 0; s < n; ++s)
    if (!g.deterministics(s).empty()) {
      in_set[s] = 1;
      tau = g.deterministics(s)[0].delay;
    }
  const auto q = markov::sparse_subordinated_generator(g, in_set);
  const markov::SparseUniformization u(q, tau);

  Vector mixed(n, 0.0);
  for (std::size_t s = 0; s < n; ++s)
    if (in_set[s]) {
      Vector e(n, 0.0);
      e[s] = 1.0;
      expect_agrees(u.omega_row(e), u.row_pair(s).omega, 1e-15, "omega row");
      mixed[s] = s % 2 == 0 ? 0.5 : -0.25;  // Krylov iterates go negative
    }
  // Linearity: omega(ax + by) = a omega(x) + b omega(y), so the signed
  // mixture must equal the signed mixture of the point-mass rows.
  Vector expected(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    if (mixed[s] == 0.0) continue;
    const Vector row = u.row_pair(s).omega;
    for (std::size_t t = 0; t < n; ++t) expected[t] += mixed[s] * row[t];
  }
  expect_agrees(u.omega_row(mixed), expected, 1e-12, "linearity");
}

// ---------------------------------------------------------------------------
// markov: the embedded-chain operator against the dense oracle.

TEST(EmbeddedChainOperatorTest, TransferPreservesMassAndMapsDistributions) {
  const auto params = core::SystemParameters::paper_six_version();
  const auto g = paper_graph(params);
  const auto plan = markov::build_assembly_plan(g);
  const markov::EmbeddedChainOperator chain(g, plan);
  ASSERT_EQ(chain.states(), g.size());
  EXPECT_GT(chain.stored_nonzeros(), 0u);
  EXPECT_LT(chain.stored_nonzeros(), g.size() * g.size());

  for (std::size_t s = 0; s < g.size(); s += 7) {
    Vector e(g.size(), 0.0);
    e[s] = 1.0;
    const Vector row = chain.transfer_apply(e);  // row s of the embedded P
    double total = 0.0;
    for (double v : row) {
      EXPECT_GE(v, -1e-14);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-10) << "row " << s;
  }
}

TEST(EmbeddedChainOperatorTest, BalanceResidualVanishesAtTheOracleSolution) {
  // Solve the embedded chain densely, then check the matrix-free balance
  // operator maps the oracle's nu to e_{n-1}: the two constructions agree
  // without ever materializing P on the operator side.
  const auto params = core::SystemParameters::paper_six_version();
  const auto g = paper_graph(params);
  const auto plan = markov::build_assembly_plan(g);
  const markov::EmbeddedChainOperator chain(g, plan);
  const markov::TransferOperator transfer(chain);
  const markov::BalanceOperator balance(chain);
  const std::size_t n = g.size();

  const auto power = linalg::stationary_power_iteration(transfer);
  ASSERT_TRUE(power.converged);
  const Vector residual = balance.apply(power.x);
  for (std::size_t t = 0; t + 1 < n; ++t)
    EXPECT_NEAR(residual[t], 0.0, 1e-10) << "balance row " << t;
  EXPECT_NEAR(residual[n - 1], 1.0, 1e-10);
}

TEST(MatrixFreeEquivalenceTest, PaperConfigsMatchDenseOracle) {
  for (const auto& params : {core::SystemParameters::paper_four_version(),
                             core::SystemParameters::paper_six_version()}) {
    const auto g = paper_graph(params);
    if (!g.has_deterministic()) continue;
    const auto dense = solve_with_backend(g, markov::SolverBackend::kDense);
    const auto mfree =
        solve_with_backend(g, markov::SolverBackend::kMatrixFree);
    EXPECT_EQ(mfree.backend_used, markov::SolverBackend::kMatrixFree);
    expect_agrees(mfree.probabilities, dense.probabilities, 1e-10,
                  params.describe().c_str());
    // The operator's memory never approaches the two dense n^2 matrices.
    EXPECT_LT(mfree.matrix_nonzeros, dense.matrix_nonzeros / 4);
  }
}

TEST(MatrixFreeEquivalenceTest, ArchitectureVariantsMatchDenseOracle) {
  // Larger families than the paper's: more versions, deeper fault budgets.
  auto params = core::SystemParameters::paper_six_version();
  params.n_versions = 11;  // the floor for f = 2, r = 2 (n >= 3f + 2r + 1)
  params.max_faulty = 2;
  params.max_rejuvenating = 2;
  params.validate();
  const auto g = paper_graph(params);
  ASSERT_TRUE(g.has_deterministic());
  const auto dense = solve_with_backend(g, markov::SolverBackend::kDense);
  const auto mfree = solve_with_backend(g, markov::SolverBackend::kMatrixFree);
  expect_agrees(mfree.probabilities, dense.probabilities, 1e-10, "11v");
}

petri::PetriNet two_clock_net() {
  // Two deterministic transitions enabled in disjoint markings: exercises
  // multiple groups in one operator (per-group uniformization + firing).
  petri::PetriNet net("two_clock");
  const auto a = net.add_place("A", 1);
  const auto b = net.add_place("B", 0);
  const auto c = net.add_place("C", 0);
  const auto tick_a = net.add_deterministic("tickA", 2.0);
  net.add_input_arc(tick_a, a);
  net.add_output_arc(tick_a, b);
  const auto wobble = net.add_exponential("wobble", 0.3);  // leaves A's set
  net.add_input_arc(wobble, a);
  net.add_output_arc(wobble, b);
  const auto decay = net.add_exponential("decay", 1.0);
  net.add_input_arc(decay, b);
  net.add_output_arc(decay, c);
  const auto tick_c = net.add_deterministic("tickC", 3.0);
  net.add_input_arc(tick_c, c);
  net.add_output_arc(tick_c, a);
  const auto leak = net.add_exponential("leak", 0.2);  // leaves C's set
  net.add_input_arc(leak, c);
  net.add_output_arc(leak, a);
  return net;
}

TEST(MatrixFreeEquivalenceTest, MultipleDeterministicGroupsAgree) {
  const auto g = petri::TangibleReachabilityGraph::build(two_clock_net());
  const auto plan = markov::build_assembly_plan(g);
  ASSERT_EQ(plan.groups.size(), 2u);
  const auto dense = solve_with_backend(g, markov::SolverBackend::kDense);
  const auto mfree = solve_with_backend(g, markov::SolverBackend::kMatrixFree);
  expect_agrees(mfree.probabilities, dense.probabilities, 1e-10, "two clocks");
}

petri::PetriNet random_ring_net(std::uint64_t seed) {
  util::RandomStream rng(seed);
  petri::PetriNet net("mfree_fuzz" + std::to_string(seed));
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
  const auto armed = net.add_place("armed", 1);
  const auto expired = net.add_place("expired", 0);
  const auto tick = net.add_deterministic("tick", rng.uniform(1.0, 20.0));
  net.add_input_arc(tick, armed);
  net.add_output_arc(tick, expired);
  const auto fix = net.add_immediate("fix");
  net.add_input_arc(fix, expired);
  net.add_output_arc(fix, armed);
  return net;
}

TEST(MatrixFreeEquivalenceTest, RandomizedNetsMatchDenseOracle) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto g =
        petri::TangibleReachabilityGraph::build(random_ring_net(seed));
    const auto dense = solve_with_backend(g, markov::SolverBackend::kDense);
    const auto mfree =
        solve_with_backend(g, markov::SolverBackend::kMatrixFree);
    ASSERT_EQ(dense.probabilities.size(), mfree.probabilities.size());
    for (std::size_t i = 0; i < dense.probabilities.size(); ++i)
      EXPECT_NEAR(mfree.probabilities[i], dense.probabilities[i], 1e-10)
          << "seed " << seed << " state " << i;
  }
}

// ---------------------------------------------------------------------------
// Erlangization: the independent cross-check.

TEST(ErlangizationTest, ConvergesToTheMrgpSolutionAsStagesGrow) {
  const auto params = core::SystemParameters::paper_six_version();
  const auto g = paper_graph(params);
  const auto plan = markov::build_assembly_plan(g);
  const auto oracle = solve_with_backend(g, markov::SolverBackend::kDense);

  double previous_gap = 0.0;
  bool first = true;
  for (const std::size_t stages : {2u, 8u, 32u}) {
    const Vector erlang = markov::erlangization_stationary(g, plan, stages);
    double gap = 0.0;
    for (std::size_t s = 0; s < g.size(); ++s)
      gap = std::max(gap, std::fabs(erlang[s] - oracle.probabilities[s]));
    if (!first)
      EXPECT_LT(gap, previous_gap) << "stages " << stages;  // O(1/k) decay
    previous_gap = gap;
    first = false;
  }
  EXPECT_LT(previous_gap, 1e-2);  // k = 32 sits well inside the envelope
}

// ---------------------------------------------------------------------------
// Fallback chain: the mfree stage, with and without injected faults.

TEST(MfreeFallbackStageTest, SolvesExplicitProblems) {
  // A chain of just the mfree stage must still solve an assembled sparse
  // system (the stage wraps the CSR balance matrix as an operator).
  std::vector<Triplet> triplets = {{0, 1, 0.5},  {0, 0, -0.5}, {1, 0, 0.25},
                                   {1, 2, 0.5},  {1, 1, -0.75}, {2, 0, 1.0},
                                   {2, 2, -1.0}};
  const SparseMatrixCsr q(3, 3, std::move(triplets));
  markov::FallbackOptions chain;
  chain.stages = {markov::FallbackStage::kMatrixFree};
  const Vector pi = markov::ctmc_steady_state_sparse(q, chain);
  const Vector oracle = markov::ctmc_steady_state(q.to_dense());
  expect_agrees(pi, oracle, 1e-12, "mfree stage on explicit problem");
}

TEST(MfreeFallbackStageTest, InjectedFaultFallsBackToPowerIteration) {
  auto& injector = fault::Injector::global();
  injector.reset();
  injector.set(fault::Site::kMatrixFree, 1.0, 31);
  const auto params = core::SystemParameters::paper_six_version();
  const auto g = paper_graph(params);
  // backend=mfree with the default chain: [mfree, power] after filtering.
  // The injected mfree failure must degrade to power iteration, not abort.
  const auto result = solve_with_backend(g, markov::SolverBackend::kMatrixFree);
  const std::uint64_t fired = injector.decisions(fault::Site::kMatrixFree);
  injector.reset();
  EXPECT_GT(fired, 0u);
  const auto oracle = solve_with_backend(g, markov::SolverBackend::kDense);
  expect_agrees(result.probabilities, oracle.probabilities, 1e-8,
                "power-iteration recovery");
}

// ---------------------------------------------------------------------------
// kAuto dispatch.

TEST(DispatchBackendTest, ExplicitBackendAlwaysWins) {
  // A forced backend wins over every threshold. `sparse` and `mfree` both
  // name the model class's sparse backend: CSR for a pure CTMC, the
  // operator for an MRGP.
  for (const auto forced :
       {markov::SolverBackend::kSparse, markov::SolverBackend::kMatrixFree}) {
    markov::SolverConfig config;
    config.backend = forced;
    EXPECT_EQ(markov::dispatch_backend(config, 10, true, 1e12),
              markov::SolverBackend::kMatrixFree);
    EXPECT_EQ(markov::dispatch_backend(config, 10, false),
              markov::SolverBackend::kSparse);
    EXPECT_EQ(markov::dispatch_backend(config, 1000000, false),
              markov::SolverBackend::kSparse);
    EXPECT_EQ(markov::dispatch(config, 10, true).reason,
              markov::DispatchReason::kForced);
  }
  markov::SolverConfig dense;
  dense.backend = markov::SolverBackend::kDense;
  EXPECT_EQ(markov::dispatch_backend(dense, 1000000, true),
            markov::SolverBackend::kDense);
  EXPECT_EQ(markov::dispatch_backend(dense, 1000000, false),
            markov::SolverBackend::kDense);
}

TEST(DispatchBackendTest, ForcedSparseAndMfreeRunTheSameCode) {
  // 6v at tau = 100 is an MRGP (both names run the operator); 4v is a pure
  // CTMC (both run CSR). Same code, so the same bits and the same label.
  auto six = core::SystemParameters::paper_six_version();
  six.rejuvenation_interval = 100.0;
  for (const auto& params :
       {six, core::SystemParameters::paper_four_version()}) {
    const auto g = paper_graph(params);
    const auto sparse = solve_with_backend(g, markov::SolverBackend::kSparse);
    const auto mfree =
        solve_with_backend(g, markov::SolverBackend::kMatrixFree);
    const auto expected = g.has_deterministic()
                              ? markov::SolverBackend::kMatrixFree
                              : markov::SolverBackend::kSparse;
    EXPECT_EQ(sparse.backend_used, expected) << g.size() << " states";
    EXPECT_EQ(mfree.backend_used, expected) << g.size() << " states";
    ASSERT_EQ(sparse.probabilities.size(), mfree.probabilities.size());
    EXPECT_EQ(std::memcmp(sparse.probabilities.data(),
                          mfree.probabilities.data(),
                          sparse.probabilities.size() * sizeof(double)),
              0)
        << g.size() << " states";
  }
}

TEST(DispatchBackendTest, AutoFollowsTheModelClassThresholds) {
  markov::SolverConfig config;  // kAuto
  // Pure CTMC: dense below 128 states, sparse at/above; the series terms
  // play no part.
  EXPECT_EQ(markov::dispatch_backend(config, 127, false, 1e9),
            markov::SolverBackend::kDense);
  EXPECT_EQ(markov::dispatch_backend(config, 128, false),
            markov::SolverBackend::kSparse);
  EXPECT_EQ(markov::dispatch(config, 10, false).reason,
            markov::DispatchReason::kCtmcSize);
  // MRGP: matrix-free while the series terms per state stay short, dense
  // once they grow long. The boundary sits at 3.0 terms per state, the
  // smallest constant that holds kAuto within 1.5x of the faster backend on
  // every bench_solver_grid cell (70 to 676 states).
  for (const std::size_t n : {70u, 117u, 176u, 247u, 330u, 676u}) {
    const double states = static_cast<double>(n);
    EXPECT_EQ(markov::dispatch_backend(config, n, true, 2.9 * states),
              markov::SolverBackend::kMatrixFree)
        << n << " states";
    EXPECT_EQ(markov::dispatch_backend(config, n, true, 3.1 * states),
              markov::SolverBackend::kDense)
        << n << " states";
  }
  // Unknown series terms (the defaulted argument) route to the operator.
  EXPECT_EQ(markov::dispatch_backend(config, 70, true),
            markov::SolverBackend::kMatrixFree);
  // Dense is never picked above 4096 states, however long the series.
  EXPECT_EQ(markov::dispatch_backend(config, 4096, true, 1e12),
            markov::SolverBackend::kDense);
  EXPECT_EQ(markov::dispatch_backend(config, 4097, true, 1e12),
            markov::SolverBackend::kMatrixFree);
  const markov::Dispatch d = markov::dispatch(config, 176, true, 1000.0);
  EXPECT_EQ(d.reason, markov::DispatchReason::kCost);
  EXPECT_EQ(d.states, 176u);
  EXPECT_EQ(d.series_terms, 1000.0);
  config.backend = markov::SolverBackend::kMatrixFree;
  EXPECT_EQ(markov::dispatch(config, 176, true, 1000.0).reason,
            markov::DispatchReason::kForced);
}

TEST(DispatchBackendTest, PublishedBenchRowsRouteToTheRecordedBackend) {
  // Every MRGP case of the recorded BENCH_solver.json (bench_solver_grid)
  // carries the state count, the series terms and whether kAuto picked
  // dense; today's dispatch must still route each there — a rule change
  // that silently re-routes the published measurements has to re-record
  // the grid.
  std::ifstream in(std::string(NVP_SOURCE_DIR) +
                   "/bench_results/BENCH_solver.json");
  ASSERT_TRUE(in.good()) << "recorded BENCH_solver.json missing";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto doc = service::wire::parse(buffer.str());
  ASSERT_TRUE(doc.has_value());
  const service::wire::Value* rows = doc->get("rows");
  ASSERT_NE(rows, nullptr);

  // case -> metric -> value, for the default-config rows.
  std::map<std::string, std::map<std::string, double>> cases;
  const std::string defaults_spec = markov::SolverConfig{}.describe();
  for (const service::wire::Value& row : rows->array)
    if (row.string_or("config", "") == defaults_spec)
      cases[row.string_or("case", "")][row.string_or("metric", "")] =
          row.number_or("value", -1.0);
  const markov::SolverConfig defaults;  // kAuto
  std::size_t checked = 0;
  for (const auto& [name, metrics] : cases) {
    if (!metrics.count("series_terms")) continue;  // CTMC and summary cases
    ASSERT_TRUE(metrics.count("states") && metrics.count("auto_picks_dense"))
        << name;
    const auto dispatched = markov::dispatch_backend(
        defaults, static_cast<std::size_t>(metrics.at("states")),
        /*has_deterministic=*/true, metrics.at("series_terms"));
    EXPECT_EQ(dispatched == markov::SolverBackend::kDense,
              metrics.at("auto_picks_dense") == 1.0)
        << name << ": " << metrics.at("states") << " states, "
        << metrics.at("series_terms") << " series terms";
    ++checked;
  }
  EXPECT_GE(checked, 28u) << "expected 8 families x 3 horizons + 4 scaling";
}

/// The perception family with N versions (f = r = 1) at interval tau.
core::SystemParameters family(int n_versions, double tau) {
  auto params = core::SystemParameters::paper_six_version();
  params.n_versions = n_versions;
  params.rejuvenation_interval = tau;
  return params;
}

double expected_reliability(const core::SystemParameters& params,
                            const markov::SolverConfig& solver) {
  core::ReliabilityAnalyzer::Options options;
  options.solver = solver;
  options.use_cache = false;
  return core::ReliabilityAnalyzer(options).analyze(params)
      .expected_reliability;
}

TEST(DispatchBackendTest, CostDecisionsTickTheDispatchCounters) {
  auto& dense = obs::Registry::global().counter("markov.dispatch.dense");
  auto& mfree = obs::Registry::global().counter("markov.dispatch.mfree");
  const auto solve = [](double tau, markov::SolverBackend backend) {
    const auto structure =
        core::staged_structure(family(6, tau), /*use_cache=*/false);
    markov::SolverConfig config;
    config.backend = backend;
    return markov::DspnSteadyStateSolver(config).solve(structure->graph,
                                                       structure->plan);
  };
  std::uint64_t dense0 = dense.value(), mfree0 = mfree.value();
  EXPECT_EQ(solve(100.0, markov::SolverBackend::kAuto).backend_used,
            markov::SolverBackend::kMatrixFree);
  EXPECT_EQ(dense.value() - dense0, 0u);
  EXPECT_EQ(mfree.value() - mfree0, 1u);

  dense0 = dense.value();
  mfree0 = mfree.value();
  EXPECT_EQ(solve(3000.0, markov::SolverBackend::kAuto).backend_used,
            markov::SolverBackend::kDense);
  EXPECT_EQ(dense.value() - dense0, 1u);
  EXPECT_EQ(mfree.value() - mfree0, 0u);

  // A forced backend is no cost decision.
  dense0 = dense.value();
  mfree0 = mfree.value();
  solve(100.0, markov::SolverBackend::kDense);
  solve(3000.0, markov::SolverBackend::kMatrixFree);
  EXPECT_EQ(dense.value() - dense0, 0u);
  EXPECT_EQ(mfree.value() - mfree0, 0u);
}

TEST(DispatchContractTest, DenseOutputKeepsItsRecordedBits) {
  // E[R] under backend=dense, recorded (%a) when the dense solve stopped
  // forming the conversion matrix C and took nu C from exp(Q tau) alone: the
  // dense oracle must not move by a single bit. reference_test measures the
  // 6v rows against the long-double reference.
  struct Row {
    int versions;
    double tau;
    double expected;
  };
  const Row rows[] = {
      {6, 100.0, 0x1.d53d7a25aec94p-1},  {6, 3000.0, 0x1.b74b25a708980p-1},
      {8, 100.0, 0x1.bdde9bb1be277p-1},  {8, 3000.0, 0x1.4ea117a71b8d5p-1},
      {10, 100.0, 0x1.ae9aeb01d3815p-1}, {10, 3000.0, 0x1.db787aff4298fp-2},
  };
  markov::SolverConfig dense;
  dense.backend = markov::SolverBackend::kDense;
  for (const Row& row : rows)
    EXPECT_EQ(expected_reliability(family(row.versions, row.tau), dense),
              row.expected)
        << "N=" << row.versions << " tau=" << row.tau;
}

TEST(DispatchContractTest, LongIntervalsAnswer) {
  // 1e8 s takes 26 squarings of exp(Q tau); their row-sum drift (1.3e-8)
  // crossed a fixed 1e-8 check, which now grows with lambda tau. The answer
  // has long converged: it sits within 1e-4 of the one at 3e7 s.
  const double far = expected_reliability(family(6, 1e8), {});
  const double near = expected_reliability(family(6, 3e7), {});
  EXPECT_NEAR(far, near, 1e-4);
}

TEST(DispatchContractTest, AutoEqualsTheBackendItNames) {
  // kAuto's answer is, bit for bit, the answer of the backend its dispatch
  // record names, and the record does not depend on the worker count.
  for (const int versions : {6, 8, 10}) {
    for (const double tau : {100.0, 600.0, 3000.0}) {
      const auto params = family(versions, tau);
      const auto structure =
          core::staged_structure(params, /*use_cache=*/false);
      markov::Dispatch at_jobs[2];
      for (const std::size_t jobs : {1u, 4u}) {
        runtime::set_default_jobs(jobs);
        at_jobs[jobs == 4] = markov::DspnSteadyStateSolver()
                                 .solve(structure->graph, structure->plan)
                                 .dispatch;
      }
      runtime::set_default_jobs(0);
      EXPECT_EQ(at_jobs[0].backend, at_jobs[1].backend);
      EXPECT_EQ(at_jobs[0].series_terms, at_jobs[1].series_terms);
      EXPECT_EQ(at_jobs[0].reason, markov::DispatchReason::kCost);

      markov::SolverConfig forced;
      forced.backend = at_jobs[0].backend;
      EXPECT_EQ(expected_reliability(params, markov::SolverConfig{}),
                expected_reliability(params, forced))
          << "N=" << versions << " tau=" << tau << " backend "
          << markov::to_string(forced.backend);
    }
  }
}

// ---------------------------------------------------------------------------
// SolverConfig: round-trip, hashing, aliases, parse errors.

TEST(SolverConfigTest, DescribeParsesBackToAnEqualConfig) {
  markov::SolverConfig config;
  config.backend = markov::SolverBackend::kMatrixFree;
  config.fallback.stages = {markov::FallbackStage::kMatrixFree,
                            markov::FallbackStage::kDenseLu};
  config.fallback.attempt_deadline_seconds = 2.5;
  const auto round_tripped = markov::SolverConfig::parse(config.describe());
  EXPECT_EQ(round_tripped.canonical_hash(), config.canonical_hash());
  EXPECT_EQ(round_tripped.describe(), config.describe());
}

TEST(SolverConfigTest, EveryKnobChangesTheCanonicalHash) {
  const markov::SolverConfig base;
  const auto mutate = [](auto&& set) {
    markov::SolverConfig config;
    set(config);
    return config.canonical_hash();
  };
  const std::uint64_t base_hash = base.canonical_hash();
  EXPECT_NE(mutate([](auto& c) { c.backend = markov::SolverBackend::kDense; }),
            base_hash);
  EXPECT_NE(mutate([](auto& c) {
              c.fallback.stages = {markov::FallbackStage::kPowerIteration};
            }),
            base_hash);
  EXPECT_NE(mutate([](auto& c) {
              c.fallback.attempt_deadline_seconds = 1.0;
            }),
            base_hash);
}

TEST(SolverConfigTest, BareBackendShorthandAndPlusChains) {
  const auto config =
      markov::SolverConfig::parse("mfree,fallback=mfree+power");
  EXPECT_EQ(config.backend, markov::SolverBackend::kMatrixFree);
  ASSERT_EQ(config.fallback.stages.size(), 2u);
  EXPECT_EQ(config.fallback.stages[0], markov::FallbackStage::kMatrixFree);
  EXPECT_EQ(config.fallback.stages[1], markov::FallbackStage::kPowerIteration);
}

TEST(SolverConfigTest, ApplyIsAllOrNothing) {
  markov::SolverConfig config;
  const std::uint64_t before = config.canonical_hash();
  // The first entry is valid, the second is not: nothing may stick.
  EXPECT_THROW(config.apply("backend=dense,unknown-key=1"),
               std::invalid_argument);
  EXPECT_EQ(config.canonical_hash(), before);
  EXPECT_THROW(config.apply("attempt-deadline=not-a-number"),
               std::invalid_argument);
  EXPECT_THROW(config.apply("backend=quantum"), std::invalid_argument);
  EXPECT_THROW(config.apply("fallback=warp"), std::invalid_argument);
  // A deadline that is negative or not finite would run unbounded like 0
  // under a different key: refused.
  for (const char* deadline : {"-1", "nan", "inf", "-inf", "1e999"})
    EXPECT_THROW(config.apply(std::string("attempt-deadline=") + deadline),
                 std::invalid_argument)
        << deadline;
  EXPECT_EQ(config.canonical_hash(), before);
  config.apply("attempt-deadline=-0");
  EXPECT_EQ(config.canonical_hash(), before);
  config.apply("attempt-deadline=2.5");
  EXPECT_EQ(config.fallback.attempt_deadline_seconds, 2.5);
}

TEST(SolverConfigTest, RemovedKeysNameTheirReplacement) {
  const struct {
    const char* spec;
    const char* replacement;
  } removed[] = {
      {"warm-start=0", "cold"},
      {"mfree-threshold=64", "backend=dense|mfree"},
      {"mrgp-sparse-threshold=512", "backend=sparse"},
      {"ctmc=gauss-seidel", "LU"},
      {"clamp=1e-12", "1e-15"},
      {"sparse-threshold=64", "128 states"},
      {"dense-retry-limit=512", "4096 states"},
      {"gmres-restart=40", "restart 80"},
      {"gmres-max-iters=100", "5000 iterations"},
      {"gmres-tol=1e-12", "tolerance 1e-14"},
      {"erlang-stages=8", "erlangization_stationary"}};
  for (const auto& r : removed) {
    try {
      markov::SolverConfig::parse(r.spec);
      ADD_FAILURE() << r.spec << " parsed";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("removed"), std::string::npos) << what;
      EXPECT_NE(what.find(r.replacement), std::string::npos) << what;
    }
  }
}

TEST(SolverConfigTest, HistoricOptionsAliasIsTheSameType) {
  static_assert(std::is_same_v<markov::DspnSteadyStateSolver::Options,
                               markov::SolverConfig>,
                "the historic Options spelling must alias SolverConfig");
  EXPECT_TRUE(markov::parse_backend("mfree").has_value());
  EXPECT_STREQ(markov::to_string(markov::SolverBackend::kMatrixFree), "mfree");
}

TEST(SolverConfigTest, CacheKeysFollowTheCanonicalHash) {
  const auto params = core::SystemParameters::paper_six_version();
  core::ReliabilityAnalyzer::Options a;
  core::ReliabilityAnalyzer::Options b;
  b.solver.fallback.attempt_deadline_seconds = 5.0;  // not just the backend
  EXPECT_NE(core::rewards_stage_key(params, a),
            core::rewards_stage_key(params, b));
  EXPECT_NE(core::rates_stage_key(params, a.solver),
            core::rates_stage_key(params, b.solver));
  core::ReliabilityAnalyzer::Options c;
  c.solver.fallback.stages = {markov::FallbackStage::kMatrixFree};
  EXPECT_NE(core::rewards_stage_key(params, a),
            core::rewards_stage_key(params, c));
  EXPECT_NE(core::rewards_stage_key(params, b),
            core::rewards_stage_key(params, c));
}

}  // namespace
}  // namespace nvp
