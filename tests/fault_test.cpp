// Tests of the robustness layer: the structured error taxonomy
// (fault::Error), the deterministic fault injector, the sparse stationary
// fallback chain, the thread pool's exception aggregation, and graceful
// degradation of the batch drivers (sweep / crossovers / optimizer /
// architecture space / Engine envelopes).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/architecture_space.hpp"
#include "src/core/engine.hpp"
#include "src/core/model_factory.hpp"
#include "src/core/optimizer.hpp"
#include "src/core/params.hpp"
#include "src/core/sweep.hpp"
#include "src/fault/error.hpp"
#include "src/fault/injector.hpp"
#include "src/linalg/lu.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/ctmc.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/markov/fallback.hpp"
#include "src/markov/solver_config.hpp"
#include "src/obs/metrics.hpp"
#include "src/petri/net.hpp"
#include "src/petri/reachability.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace nvp;

// ---------------------------------------------------------------------------
// Error taxonomy.

TEST(FaultErrorTest, WhatRendersCategoryAndContext) {
  fault::Context context;
  context.site = "markov.gmres";
  context.backend = "sparse";
  context.states = 42;
  context.iteration = 7;
  context.residual = 0.5;
  context.causes = {"stage one stalled", "stage two stalled"};
  const fault::Error error(fault::Category::kNoConvergence, "solve failed",
                           context);
  const std::string what = error.what();
  EXPECT_NE(what.find("solve failed"), std::string::npos);
  EXPECT_NE(what.find("no-convergence"), std::string::npos);
  EXPECT_NE(what.find("markov.gmres"), std::string::npos);
  EXPECT_NE(what.find("backend=sparse"), std::string::npos);
  EXPECT_NE(what.find("states=42"), std::string::npos);
  EXPECT_NE(what.find("caused by: stage one stalled"), std::string::npos);
  EXPECT_EQ(error.category(), fault::Category::kNoConvergence);
  EXPECT_EQ(error.context().causes.size(), 2u);
}

TEST(FaultErrorTest, CategoryOfMapsLegacyExceptionTypes) {
  EXPECT_EQ(fault::category_of(std::bad_alloc()),
            fault::Category::kResource);
  EXPECT_EQ(fault::category_of(std::invalid_argument("x")),
            fault::Category::kInvalidModel);
  EXPECT_EQ(fault::category_of(std::runtime_error("x")),
            fault::Category::kInternal);
  const fault::Error error(fault::Category::kSingularMatrix, "x");
  EXPECT_EQ(fault::category_of(error), fault::Category::kSingularMatrix);
}

TEST(FaultErrorTest, SubsystemErrorsJoinTheTaxonomy) {
  const linalg::SingularMatrixError lu("pivot");
  EXPECT_EQ(lu.category(), fault::Category::kSingularMatrix);
  const markov::SolverError solver("bad model");
  EXPECT_EQ(solver.category(), fault::Category::kInvalidModel);
  // Both are catchable as the base fault::Error.
  const fault::Error* base = &lu;
  EXPECT_EQ(base->category(), fault::Category::kSingularMatrix);
}

TEST(FaultErrorTest, ErrorInfoSnapshotsAnErrorForEnvelopes) {
  fault::Context context;
  context.site = "runtime.pool";
  context.causes = {"a", "b"};
  const fault::Error error(fault::Category::kResource,
                           "dispatch failed\nsecond line", context);
  const fault::ErrorInfo info = fault::ErrorInfo::from(error);
  EXPECT_EQ(info.category, fault::Category::kResource);
  EXPECT_EQ(info.site, "runtime.pool");
  EXPECT_EQ(info.causes.size(), 2u);
  // summary() keeps the one-liner to the first line of what().
  EXPECT_EQ(info.summary().find("resource: dispatch failed"), 0u);
  EXPECT_EQ(info.summary().find('\n'), std::string::npos);
}

// ---------------------------------------------------------------------------
// Injector: spec grammar, determinism, counters.

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::global().reset(); }
  void TearDown() override { fault::Injector::global().reset(); }
};

TEST_F(FaultInjectionTest, ConfigureParsesAndRejectsSpecs) {
  auto& injector = fault::Injector::global();
  std::string error;
  EXPECT_TRUE(injector.configure("gmres:0.25:7,cache:1.0", &error)) << error;
  EXPECT_DOUBLE_EQ(injector.rate(fault::Site::kGmres), 0.25);
  EXPECT_DOUBLE_EQ(injector.rate(fault::Site::kCache), 1.0);
  EXPECT_TRUE(injector.active());

  EXPECT_FALSE(injector.configure("bogus:0.5", &error));
  EXPECT_NE(error.find("unknown site"), std::string::npos);
  EXPECT_FALSE(injector.configure("gmres:2.0", &error));
  EXPECT_FALSE(injector.configure("gmres", &error));
  EXPECT_FALSE(injector.configure("gmres:0.5:notanumber", &error));
  // Failed configure leaves the previous arming untouched.
  EXPECT_DOUBLE_EQ(injector.rate(fault::Site::kGmres), 0.25);
}

TEST_F(FaultInjectionTest, DecisionsAreDeterministicPerSeed) {
  auto& injector = fault::Injector::global();
  const auto draw_pattern = [&] {
    injector.set(fault::Site::kLuPivot, 0.5, 42);
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i)
      pattern.push_back(injector.fire(fault::Site::kLuPivot));
    return pattern;
  };
  const auto first = draw_pattern();
  const auto second = draw_pattern();
  EXPECT_EQ(first, second);
  // Rate 0.5 should fire a non-degenerate fraction of the time.
  int fired = 0;
  for (const bool b : first) fired += b ? 1 : 0;
  EXPECT_GT(fired, 50);
  EXPECT_LT(fired, 150);
}

TEST_F(FaultInjectionTest, RateEndpointsAreScheduleIndependent) {
  auto& injector = fault::Injector::global();
  injector.set(fault::Site::kGmres, 1.0, 0);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(injector.fire(fault::Site::kGmres));
  EXPECT_EQ(injector.decisions(fault::Site::kGmres), 10u);
  EXPECT_EQ(injector.fired(fault::Site::kGmres), 10u);
  injector.reset();
  EXPECT_FALSE(injector.active());
  for (int i = 0; i < 10; ++i)
    EXPECT_FALSE(injector.fire(fault::Site::kGmres));
  EXPECT_EQ(injector.fired(fault::Site::kGmres), 0u);
}

TEST_F(FaultInjectionTest, LuPivotInjectionThrowsSingularMatrixError) {
  fault::Injector::global().set(fault::Site::kLuPivot, 1.0, 0);
  linalg::DenseMatrix identity(4, 4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) identity(i, i) = 1.0;
  try {
    linalg::LuDecomposition lu(std::move(identity));
    FAIL() << "expected injected singular pivot";
  } catch (const linalg::SingularMatrixError& e) {
    EXPECT_EQ(e.category(), fault::Category::kSingularMatrix);
    EXPECT_EQ(e.context().site, "linalg.lu");
  }
}

// ---------------------------------------------------------------------------
// Fallback chain: force each stage to fail; the final distribution must
// still match the dense oracle.

petri::PetriNet random_ring_net(std::uint64_t seed, bool with_deterministic) {
  util::RandomStream rng(seed);
  petri::PetriNet net("fault_fuzz" + std::to_string(seed));
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

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

// Forced `sparse` runs CSR with the full chain on the CTMC seeds (odd) and
// the matrix-free operator on the MRGP seeds (even), whose chain keeps only
// the operator-capable rungs: mfree, then power.
TEST_F(FaultInjectionTest, ChainRecoversThroughPowerWhenGmresIsKilled) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const bool with_deterministic = seed % 2 == 0;
    const auto net = random_ring_net(seed, with_deterministic);
    const auto g = petri::TangibleReachabilityGraph::build(net);

    markov::DspnSteadyStateSolver::Options dense_options;
    dense_options.backend = markov::SolverBackend::kDense;
    const auto oracle =
        markov::DspnSteadyStateSolver(dense_options).solve(g);

    const std::uint64_t ilu0_before =
        counter_value("markov.fallback.attempts.gmres_ilu0");
    const std::uint64_t jacobi_before =
        counter_value("markov.fallback.attempts.gmres_jacobi");
    const std::uint64_t mfree_before =
        counter_value("markov.fallback.attempts.mfree");
    const std::uint64_t power_before =
        counter_value("markov.fallback.success.power");
    const std::uint64_t recovered_before =
        counter_value("markov.fallback.recovered");

    fault::Injector::global().set(fault::Site::kGmres, 1.0, 0);
    markov::DspnSteadyStateSolver::Options sparse_options;
    sparse_options.backend = markov::SolverBackend::kSparse;
    const auto degraded =
        markov::DspnSteadyStateSolver(sparse_options).solve(g);
    fault::Injector::global().reset();

    ASSERT_EQ(degraded.probabilities.size(), oracle.probabilities.size());
    for (std::size_t i = 0; i < oracle.probabilities.size(); ++i)
      EXPECT_NEAR(degraded.probabilities[i], oracle.probabilities[i], 1e-10)
          << "seed " << seed << " state " << i;
    // Every attempted stage is recorded, and the recovery is counted.
    if (with_deterministic) {
      EXPECT_EQ(degraded.backend_used, markov::SolverBackend::kMatrixFree);
      EXPECT_GT(counter_value("markov.fallback.attempts.mfree"), mfree_before);
      EXPECT_EQ(counter_value("markov.fallback.attempts.gmres_ilu0"),
                ilu0_before);
    } else {
      EXPECT_EQ(degraded.backend_used, markov::SolverBackend::kSparse);
      EXPECT_GT(counter_value("markov.fallback.attempts.gmres_ilu0"),
                ilu0_before);
      EXPECT_GT(counter_value("markov.fallback.attempts.gmres_jacobi"),
                jacobi_before);
    }
    EXPECT_GT(counter_value("markov.fallback.success.power"), power_before);
    EXPECT_GT(counter_value("markov.fallback.recovered"), recovered_before);
  }
}

// With every iterative stage killed, the CSR chain (CTMC seeds) ends on its
// dense rung; the matrix-free chain (MRGP seeds) has no dense rung, so the
// whole solve is retried on the dense backend.
TEST_F(FaultInjectionTest, ChainFallsBackToDenseLuWhenIterationIsKilled) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const bool with_deterministic = seed % 2 == 0;
    const auto net = random_ring_net(seed, with_deterministic);
    const auto g = petri::TangibleReachabilityGraph::build(net);

    markov::DspnSteadyStateSolver::Options dense_options;
    dense_options.backend = markov::SolverBackend::kDense;
    const auto oracle =
        markov::DspnSteadyStateSolver(dense_options).solve(g);

    const std::uint64_t dense_before =
        counter_value("markov.fallback.success.dense");
    const std::uint64_t retries_before =
        counter_value("markov.solver.backend_fallbacks");
    fault::Injector::global().set(fault::Site::kGmres, 1.0, 0);
    fault::Injector::global().set(fault::Site::kPowerIteration, 1.0, 0);
    markov::DspnSteadyStateSolver::Options sparse_options;
    sparse_options.backend = markov::SolverBackend::kSparse;
    const auto degraded =
        markov::DspnSteadyStateSolver(sparse_options).solve(g);
    fault::Injector::global().reset();

    ASSERT_EQ(degraded.probabilities.size(), oracle.probabilities.size());
    for (std::size_t i = 0; i < oracle.probabilities.size(); ++i)
      EXPECT_NEAR(degraded.probabilities[i], oracle.probabilities[i], 1e-10)
          << "seed " << seed << " state " << i;
    if (with_deterministic) {
      EXPECT_EQ(degraded.backend_used, markov::SolverBackend::kDense);
      EXPECT_GT(counter_value("markov.solver.backend_fallbacks"),
                retries_before);
    } else {
      EXPECT_EQ(degraded.backend_used, markov::SolverBackend::kSparse);
      EXPECT_GT(counter_value("markov.fallback.success.dense"), dense_before);
    }
  }
}

TEST_F(FaultInjectionTest, ExhaustedChainReportsEveryStageFailure) {
  const auto net = random_ring_net(3, false);
  const auto g = petri::TangibleReachabilityGraph::build(net);
  fault::Injector::global().set(fault::Site::kGmres, 1.0, 0);
  markov::DspnSteadyStateSolver::Options options;
  options.backend = markov::SolverBackend::kSparse;
  options.fallback.stages = {markov::FallbackStage::kGmresIlu0,
                             markov::FallbackStage::kGmresJacobi};
  try {
    markov::DspnSteadyStateSolver(options).solve(g);
    FAIL() << "expected chain exhaustion";
  } catch (const markov::SolverError& e) {
    EXPECT_EQ(e.category(), fault::Category::kNoConvergence);
    ASSERT_EQ(e.context().causes.size(), 2u);
    EXPECT_EQ(e.context().causes[0].find("gmres-ilu0:"), 0u);
    EXPECT_EQ(e.context().causes[1].find("gmres-jacobi:"), 0u);
  }
}

TEST_F(FaultInjectionTest, ExhaustedChainNamesTheBackendThatRan) {
  // A chain pinned to the mfree rung, with that rung killed, exhausts on
  // either model class; the error names the backend that ran: CSR for the
  // pure CTMC (seed 3), the operator for the MRGP (seed 2).
  fault::Injector::global().set(fault::Site::kMatrixFree, 1.0, 0);
  markov::DspnSteadyStateSolver::Options options;
  options.backend = markov::SolverBackend::kMatrixFree;
  options.fallback.stages = {markov::FallbackStage::kMatrixFree};
  for (const auto& [seed, backend] :
       {std::pair<std::uint64_t, const char*>{3, "sparse"}, {2, "mfree"}}) {
    const auto net = random_ring_net(seed, /*with_deterministic=*/seed == 2);
    const auto g = petri::TangibleReachabilityGraph::build(net);
    try {
      markov::DspnSteadyStateSolver(options).solve(g);
      ADD_FAILURE() << "expected chain exhaustion on seed " << seed;
    } catch (const markov::SolverError& e) {
      EXPECT_EQ(e.category(), fault::Category::kNoConvergence);
      EXPECT_EQ(e.context().site, "markov.fallback");
      EXPECT_EQ(e.context().backend, backend) << "seed " << seed;
      EXPECT_NE(std::string(e.what()).find(std::string("backend=") + backend),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(FaultInjectionTest, AttemptDeadlineYieldsDeadlineExceeded) {
  // A 3-state ring CTMC, solved through a power-only chain whose attempt
  // deadline has already passed when the iteration starts.
  std::vector<linalg::Triplet> triplets = {{0, 0, -1.0}, {0, 1, 1.0},
                                           {1, 1, -1.0}, {1, 2, 1.0},
                                           {2, 2, -1.0}, {2, 0, 1.0}};
  const linalg::SparseMatrixCsr q(3, 3, std::move(triplets));
  markov::FallbackOptions fallback;
  fallback.stages = {markov::FallbackStage::kPowerIteration};
  fallback.attempt_deadline_seconds = 1e-12;
  try {
    markov::ctmc_steady_state_sparse(q, fallback);
    FAIL() << "expected deadline exhaustion";
  } catch (const markov::SolverError& e) {
    EXPECT_EQ(e.category(), fault::Category::kDeadlineExceeded);
  }
}

TEST(FallbackParseTest, ParsesAndRendersChains) {
  const auto chain = markov::parse_fallback_stages("power,dense");
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0], markov::FallbackStage::kPowerIteration);
  EXPECT_EQ(chain[1], markov::FallbackStage::kDenseLu);
  EXPECT_EQ(markov::to_string(markov::FallbackOptions::default_stages()),
            "gmres-ilu0,gmres-jacobi,power,dense");
  EXPECT_THROW(markov::parse_fallback_stages("power,warp"),
               std::invalid_argument);
  EXPECT_THROW(markov::parse_fallback_stages(""), std::invalid_argument);
}

TEST_F(FaultInjectionTest, SparseBackendRetriesOnDenseWhenSparseSolveDies) {
  // Forced `sparse` on an MRGP runs the matrix-free operator. Arm the
  // uniformization site so decision 0 (the operator's propagator) fires and
  // decision 1 (the dense retry) passes: search a seed with that exact
  // pattern, which the injector's deterministic hash makes reproducible.
  const double rate = 0.5;
  const auto draw = [](std::uint64_t seed, std::uint64_t k) {
    util::SplitMix64 mix(util::substream_seed(seed, k));
    return static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
  };
  std::uint64_t seed = 1;
  while (!(draw(seed, 0) < rate && draw(seed, 1) >= rate)) ++seed;

  const auto net = random_ring_net(2, true);  // one deterministic group
  const auto g = petri::TangibleReachabilityGraph::build(net);
  markov::DspnSteadyStateSolver::Options dense_options;
  dense_options.backend = markov::SolverBackend::kDense;
  const auto oracle = markov::DspnSteadyStateSolver(dense_options).solve(g);

  const std::uint64_t retries_before =
      counter_value("markov.solver.backend_fallbacks");
  fault::Injector::global().set(fault::Site::kUniformization, rate, seed);
  markov::DspnSteadyStateSolver::Options sparse_options;
  sparse_options.backend = markov::SolverBackend::kSparse;
  const auto result = markov::DspnSteadyStateSolver(sparse_options).solve(g);
  fault::Injector::global().reset();

  EXPECT_EQ(result.backend_used, markov::SolverBackend::kDense);
  EXPECT_GT(counter_value("markov.solver.backend_fallbacks"), retries_before);
  ASSERT_EQ(result.probabilities.size(), oracle.probabilities.size());
  for (std::size_t i = 0; i < oracle.probabilities.size(); ++i)
    EXPECT_NEAR(result.probabilities[i], oracle.probabilities[i], 1e-12);
}

// ---------------------------------------------------------------------------
// Thread pool exception aggregation.

TEST(ThreadPoolAggregationTest, SingleFailureRethrowsOriginalType) {
  runtime::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   if (i == 3)
                                     throw std::invalid_argument("just me");
                                 }),
               std::invalid_argument);
}

TEST(ThreadPoolAggregationTest, MultipleFailuresAggregateEveryMessage) {
  runtime::ThreadPool pool(4);
  const std::size_t n = pool.jobs();
  if (n < 2) GTEST_SKIP() << "needs at least two executors";
  // Spin-barrier bodies: every body is in flight before any of them throws,
  // so exactly n exceptions are captured regardless of the schedule.
  std::atomic<std::size_t> arrived{0};
  try {
    pool.parallel_for(n, [&](std::size_t i) {
      arrived.fetch_add(1);
      while (arrived.load() < n) {
      }
      throw std::runtime_error("body " + std::to_string(i));
    });
    FAIL() << "expected aggregated failure";
  } catch (const fault::Error& e) {
    EXPECT_EQ(e.context().causes.size(), n);
    EXPECT_EQ(e.context().site, "runtime.pool");
    EXPECT_NE(std::string(e.what()).find("loop bodies failed"),
              std::string::npos);
  }
}

TEST_F(FaultInjectionTest, PoolDispatchInjectionThrowsResourceError) {
  fault::Injector::global().set(fault::Site::kPool, 1.0, 0);
  runtime::ThreadPool pool(2);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(4, [&](std::size_t) { ran.fetch_add(1); });
    FAIL() << "expected injected dispatch failure";
  } catch (const fault::Error& e) {
    EXPECT_EQ(e.category(), fault::Category::kResource);
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST_F(FaultInjectionTest, PoolDecisionIsOnePerLoopForAnyJobCount) {
  // The caller draws one `pool` decision per parallel_for before any index
  // runs, so which loops fail, and how, is the same for every job count.
  const auto failures = [](std::size_t jobs) {
    fault::Injector::global().set(fault::Site::kPool, 0.5, 3);
    runtime::ThreadPool pool(jobs);
    std::vector<std::string> out;
    for (int loop = 0; loop < 16; ++loop) {
      std::atomic<int> ran{0};
      try {
        pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
        out.push_back("ran " + std::to_string(ran.load()));
      } catch (const fault::Error& e) {
        out.push_back(std::string(e.what()) + " after " +
                      std::to_string(ran.load()));
      }
    }
    EXPECT_EQ(fault::Injector::global().decisions(fault::Site::kPool), 16u);
    return out;
  };
  const std::vector<std::string> serial = failures(1);
  EXPECT_NE(std::count(serial.begin(), serial.end(), "ran 8"), 16);
  EXPECT_EQ(failures(4), serial);
}

// ---------------------------------------------------------------------------
// Graceful degradation of the batch drivers.

core::ReliabilityAnalyzer cold_analyzer() {
  core::ReliabilityAnalyzer::Options options;
  options.use_cache = false;  // injected faults must reach the solver
  return core::ReliabilityAnalyzer(options);
}

TEST_F(FaultInjectionTest, SweepDegradesFailedPointsIntoEnvelopes) {
  fault::Injector::global().set(fault::Site::kUniformization, 1.0, 0);
  const auto analyzer = cold_analyzer();
  const auto params = core::SystemParameters::paper_six_version();
  const auto points = core::sweep_parameter(
      analyzer, params, core::set_rejuvenation_interval(),
      core::linspace(200.0, 3000.0, 4));
  ASSERT_EQ(points.size(), 4u);
  for (const auto& point : points) {
    EXPECT_FALSE(point.ok);
    EXPECT_EQ(point.error.category, fault::Category::kNoConvergence);
    EXPECT_FALSE(point.error.message.empty());
  }
}

TEST_F(FaultInjectionTest, StrictPolicyRestoresFailFast) {
  fault::Injector::global().set(fault::Site::kUniformization, 1.0, 0);
  const auto analyzer = cold_analyzer();
  const auto params = core::SystemParameters::paper_six_version();
  fault::Policy strict;
  strict.strict = true;
  EXPECT_THROW(core::sweep_parameter(analyzer, params,
                                     core::set_rejuvenation_interval(),
                                     core::linspace(200.0, 3000.0, 4), strict),
               fault::Error);
}

TEST_F(FaultInjectionTest, CrossoversUnderTotalFaultReturnEmpty) {
  fault::Injector::global().set(fault::Site::kAlloc, 1.0, 0);
  const auto analyzer = cold_analyzer();
  const auto a = core::SystemParameters::paper_six_version();
  const auto b = core::SystemParameters::paper_four_version();
  std::vector<core::Crossover> crossings;
  EXPECT_NO_THROW(crossings = core::find_crossovers(
                      analyzer, a, b, core::set_mean_time_to_compromise(),
                      core::linspace(500.0, 5000.0, 4)));
  EXPECT_TRUE(crossings.empty());
}

TEST_F(FaultInjectionTest, OptimizerThrowsWhenEveryGridPointFails) {
  fault::Injector::global().set(fault::Site::kAlloc, 1.0, 0);
  const auto analyzer = cold_analyzer();
  const auto params = core::SystemParameters::paper_six_version();
  // Cold, and warm: failed warm-bracket points fall back to the grid.
  for (const std::optional<double> start : {std::optional<double>{}, {600.0}}) {
    try {
      core::optimize_rejuvenation_interval(analyzer, params, 100.0, 3000.0, 4,
                                           10.0, {}, start);
      FAIL() << "expected all-points failure";
    } catch (const fault::Error& e) {
      EXPECT_EQ(e.category(), fault::Category::kNoConvergence);
      EXPECT_NE(std::string(e.what()).find("every grid evaluation failed"),
                std::string::npos);
    }
  }
}

TEST_F(FaultInjectionTest, ArchitectureSpaceDegradesFailedCandidates) {
  fault::Injector::global().set(fault::Site::kAlloc, 1.0, 0);
  core::ArchitectureSpaceExplorer::Options options;
  options.max_versions = 4;
  options.max_faulty = 1;
  const auto results = core::ArchitectureSpaceExplorer(options).explore(
      core::SystemParameters::paper_four_version());
  ASSERT_FALSE(results.empty());
  for (const auto& result : results) {
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error.category, fault::Category::kResource);
  }
}

TEST_F(FaultInjectionTest, ArchitectureSpaceSolvesUnderTheCallersConfig) {
  // Every candidate runs the caller's whole solver config, not only its
  // backend: with the chain pinned to a killed mfree rung, plain (CSR) and
  // rejuvenating (operator) candidates alike degrade into envelopes.
  fault::Injector::global().set(fault::Site::kMatrixFree, 1.0, 37);
  core::ArchitectureSpaceExplorer::Options options;
  options.max_versions = 6;
  options.max_faulty = 1;
  options.max_rejuvenating = 1;
  options.solver = markov::SolverConfig::parse("backend=mfree,fallback=mfree");
  const auto results = core::ArchitectureSpaceExplorer(options).explore(
      core::SystemParameters::paper_six_version());
  ASSERT_FALSE(results.empty());
  bool saw_rejuvenation = false;
  for (const auto& result : results) {
    saw_rejuvenation = saw_rejuvenation || result.rejuvenation;
    EXPECT_FALSE(result.ok) << result.label();
    EXPECT_EQ(result.error.category, fault::Category::kNoConvergence)
        << result.label();
  }
  EXPECT_TRUE(saw_rejuvenation);
}

TEST_F(FaultInjectionTest, DegradedCandidateKeepsItsStateCount) {
  // The structure stage of every candidate succeeds; only its solve dies.
  // The envelope keeps the size of the model that failed.
  fault::Injector::global().set(fault::Site::kMatrixFree, 1.0, 37);
  core::ArchitectureSpaceExplorer::Options options;
  options.max_versions = 6;
  options.max_faulty = 1;
  options.max_rejuvenating = 1;
  options.solver = markov::SolverConfig::parse("backend=mfree,fallback=mfree");
  const auto results = core::ArchitectureSpaceExplorer(options).explore(
      core::SystemParameters::paper_six_version());
  std::size_t checked = 0;
  for (const auto& result : results) {
    EXPECT_FALSE(result.ok) << result.label();
    if (result.label() == "N=6 f=1 r=1 rejuv") {
      EXPECT_EQ(result.tangible_states, 70u);
      ++checked;
    }
    if (result.label() == "N=4 f=1 plain") {
      EXPECT_EQ(result.tangible_states, 15u);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2u);
}

TEST_F(FaultInjectionTest, DenseConversionSeriesNamesTheDenseBackend) {
  // A clock that is not enabled everywhere (state B enables none) takes
  // nu C from the operator's vector series, built on the dense backend's
  // behalf: decision 0 (exp(Q tau)) passes, decision 1 (the series) fires,
  // and the error names dense.
  petri::PetriNet net("sometimes_enabled");
  const auto a = net.add_place("A", 1);
  const auto b = net.add_place("B", 0);
  const auto tick = net.add_deterministic("tick", 2.0);
  net.add_input_arc(tick, a);
  net.add_output_arc(tick, b);
  const auto leave = net.add_exponential("leave", 0.3);
  net.add_input_arc(leave, a);
  net.add_output_arc(leave, b);
  const auto back = net.add_exponential("back", 1.0);
  net.add_input_arc(back, b);
  net.add_output_arc(back, a);
  const auto g = petri::TangibleReachabilityGraph::build(net);
  const double rate = 0.5;
  const auto draw = [](std::uint64_t seed, std::uint64_t k) {
    util::SplitMix64 mix(util::substream_seed(seed, k));
    return static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
  };
  std::uint64_t seed = 1;
  while (!(draw(seed, 0) >= rate && draw(seed, 1) < rate)) ++seed;
  fault::Injector::global().set(fault::Site::kUniformization, rate, seed);
  markov::DspnSteadyStateSolver::Options dense;
  dense.backend = markov::SolverBackend::kDense;
  try {
    markov::DspnSteadyStateSolver(dense).solve(g);
    FAIL() << "expected the injected series failure";
  } catch (const fault::Error& e) {
    EXPECT_EQ(e.context().site, "markov.sparse_uniformization");
    EXPECT_EQ(e.context().backend, "dense");
  }
}

TEST_F(FaultInjectionTest, DenseOneClockSolveSurvivesSingularPivots) {
  // Every LU pivot fails: the stationary vector of F Omega falls back to
  // power iteration and the identity system to the operator's series; the
  // answer stays the clean one.
  const auto g = petri::TangibleReachabilityGraph::build(
      core::PerceptionModelFactory::build(
          core::SystemParameters::paper_six_version())
          .net);
  markov::DspnSteadyStateSolver::Options dense;
  dense.backend = markov::SolverBackend::kDense;
  const auto clean = markov::DspnSteadyStateSolver(dense).solve(g);
  fault::Injector::global().set(fault::Site::kLuPivot, 1.0, 3);
  const auto degraded = markov::DspnSteadyStateSolver(dense).solve(g);
  ASSERT_EQ(degraded.probabilities.size(), clean.probabilities.size());
  for (std::size_t i = 0; i < clean.probabilities.size(); ++i)
    EXPECT_NEAR(degraded.probabilities[i], clean.probabilities[i], 1e-10);
}

TEST_F(FaultInjectionTest, UniformizationFaultNamesTheOperatorBackend) {
  // On a solve path only the matrix-free MRGP operator builds a sparse
  // uniformization, so an injected series failure there names mfree.
  fault::Injector::global().set(fault::Site::kUniformization, 1.0, 11);
  core::ReliabilityAnalyzer::Options options;
  options.use_cache = false;
  options.solver = markov::SolverConfig::parse("backend=mfree,fallback=mfree");
  auto params = core::SystemParameters::paper_six_version();
  params.rejuvenation_interval = 100.0;
  try {
    core::ReliabilityAnalyzer(options).analyze(params);
    FAIL() << "expected the injected series failure";
  } catch (const fault::Error& e) {
    EXPECT_EQ(e.context().site, "markov.sparse_uniformization");
    EXPECT_EQ(e.context().backend, "mfree");
    EXPECT_NE(std::string(e.what()).find("backend=mfree"), std::string::npos)
        << e.what();
  }
}

TEST_F(FaultInjectionTest, PoolFailureKeepsTheCallersPointOnly) {
  // analyze_points runs point 0 on the calling thread; a pool that fails
  // every dispatch degrades each other point into a resource envelope and
  // counts each one.
  const auto analyzer = cold_analyzer();
  const auto params = core::SystemParameters::paper_six_version();
  const auto values = core::linspace(200.0, 3000.0, 4);
  const auto clean = core::sweep_parameter(
      analyzer, params, core::set_rejuvenation_interval(), values);
  fault::Injector::global().set(fault::Site::kPool, 1.0, 0);
  const obs::Counter& degraded =
      obs::Registry::global().counter("fault.degraded_points");
  const std::uint64_t before = degraded.value();
  const auto points = core::sweep_parameter(
      analyzer, params, core::set_rejuvenation_interval(), values);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_TRUE(points[0].ok);
  EXPECT_EQ(points[0].expected_reliability, clean[0].expected_reliability);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_EQ(points[i].x, values[i]);
    EXPECT_FALSE(points[i].ok) << i;
    EXPECT_EQ(points[i].error.category, fault::Category::kResource) << i;
  }
  EXPECT_EQ(degraded.value() - before, 3u);

  // A one-point batch never touches the pool.
  const auto single = core::analyze_points(analyzer, {params}, {});
  ASSERT_EQ(single.size(), 1u);
  EXPECT_TRUE(single[0].ok);
  EXPECT_EQ(single[0].tangible_states, 70u);

  fault::Policy strict;
  strict.strict = true;
  EXPECT_THROW(core::sweep_parameter(analyzer, params,
                                     core::set_rejuvenation_interval(),
                                     values, strict),
               fault::Error);
}

TEST_F(FaultInjectionTest, PoolFailureKeepsTheFirstCandidateOnly) {
  fault::Injector::global().set(fault::Site::kPool, 1.0, 0);
  core::ArchitectureSpaceExplorer::Options options;
  options.max_versions = 6;
  options.max_faulty = 1;
  options.max_rejuvenating = 1;
  const auto results = core::ArchitectureSpaceExplorer(options).explore(
      core::SystemParameters::paper_six_version());
  ASSERT_EQ(results.size(), 4u);
  // The candidate that ran on the caller sorts first.
  EXPECT_TRUE(results[0].ok);
  EXPECT_EQ(results[0].label(), "N=4 f=1 plain");
  EXPECT_GT(results[0].expected_reliability, 0.0);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].ok) << results[i].label();
    EXPECT_EQ(results[i].error.category, fault::Category::kResource)
        << results[i].label();
  }
}

TEST_F(FaultInjectionTest, EngineReturnsErrorEnvelopeUnlessStrict) {
  fault::Injector::global().set(fault::Site::kAlloc, 1.0, 0);
  core::ReliabilityAnalyzer::Options analyzer_options;
  analyzer_options.use_cache = false;
  const core::Engine graceful(analyzer_options);
  const auto params = core::SystemParameters::paper_four_version();
  const auto result = graceful.analyze(params);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error.category, fault::Category::kResource);

  core::Engine::Options strict;
  strict.strict = true;
  const core::Engine failfast(analyzer_options, strict);
  EXPECT_THROW(failfast.analyze(params), markov::SolverError);
}

TEST_F(FaultInjectionTest, CacheInjectionNeverChangesResults) {
  const auto params = core::SystemParameters::paper_four_version();
  const core::ReliabilityAnalyzer analyzer;  // caches enabled
  fault::Injector::global().set(fault::Site::kCache, 1.0, 0);
  const auto injected = analyzer.analyze(params);
  fault::Injector::global().reset();
  const auto clean = analyzer.analyze(params);
  // Forced misses change only costs, never values: the recomputed result is
  // bit-identical to the cached one.
  EXPECT_EQ(injected.expected_reliability, clean.expected_reliability);
  EXPECT_EQ(injected.tangible_states, clean.tangible_states);
}

}  // namespace
