#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/linalg/poisson.hpp"
#include "src/markov/ctmc.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/markov/dtmc.hpp"
#include "src/markov/rewards.hpp"
#include "src/markov/transient.hpp"
#include "src/petri/reachability.hpp"
#include "src/util/rng.hpp"

namespace nvp::markov {
namespace {

using linalg::DenseMatrix;
using linalg::Vector;
using petri::PetriNet;
using petri::TangibleReachabilityGraph;

/// Two-state repairable system: up --(rate f)--> down --(rate r)--> up.
DenseMatrix two_state_generator(double fail, double repair) {
  DenseMatrix q(2, 2, 0.0);
  q(0, 0) = -fail;
  q(0, 1) = fail;
  q(1, 0) = repair;
  q(1, 1) = -repair;
  return q;
}

/// M/M/1/K queue net with arrival rate a and service rate s.
PetriNet mm1k(double a, double s, petri::TokenCount k) {
  PetriNet net("mm1k");
  const auto queue = net.add_place("q", 0);
  const auto arrive = net.add_exponential("arrive", a);
  net.add_output_arc(arrive, queue);
  net.add_inhibitor_arc(arrive, queue, k);
  const auto serve = net.add_exponential("serve", s);
  net.add_input_arc(serve, queue);
  return net;
}

// ---- CTMC steady state ----------------------------------------------------

TEST(CtmcSteadyState, TwoStateClosedForm) {
  // pi_up = r / (f + r).
  const auto pi = ctmc_steady_state(two_state_generator(0.2, 0.8));
  EXPECT_NEAR(pi[0], 0.8, 1e-12);
  EXPECT_NEAR(pi[1], 0.2, 1e-12);
}

TEST(CtmcSteadyState, SingularSystemFallsBackToPowerIteration) {
  // Two closed classes: 0 drains into absorbing 1, and 2 is absorbing on
  // its own. The normalized balance system is exactly singular, so the
  // direct solve gives way to power iteration, whose uniform start splits
  // the mass (0, 2/3, 1/3).
  DenseMatrix q(3, 3, 0.0);
  q(0, 0) = -1.0;
  q(0, 1) = 1.0;
  const auto pi = ctmc_steady_state(q);
  EXPECT_NEAR(pi[0], 0.0, 1e-9);
  EXPECT_NEAR(pi[1], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(pi[2], 1.0 / 3.0, 1e-9);
}

TEST(CtmcSteadyState, Mm1kMatchesClosedForm) {
  const double a = 1.0, s = 2.0;
  const int k = 6;
  const auto g = TangibleReachabilityGraph::build(mm1k(a, s, k));
  const auto chain = Ctmc::from_graph(g);
  const auto pi = ctmc_steady_state(chain.generator);
  // pi_n = rho^n (1-rho) / (1-rho^{K+1}) with rho = 1/2.
  const double rho = a / s;
  const double denom = 1.0 - std::pow(rho, k + 1);
  for (int n = 0; n <= k; ++n) {
    const auto idx = g.find({n});
    ASSERT_TRUE(idx.has_value());
    EXPECT_NEAR(pi[*idx], std::pow(rho, n) * (1.0 - rho) / denom, 1e-9)
        << "n = " << n;
  }
}

TEST(CtmcSteadyState, BirthDeathDetailedBalance) {
  // Birth-death chain of 5 states with arbitrary rates; verify pi satisfies
  // detailed balance pi_i b_i = pi_{i+1} d_{i+1}.
  const double births[] = {1.0, 2.0, 0.5, 1.5};
  const double deaths[] = {0.7, 1.1, 2.2, 0.4};
  DenseMatrix q(5, 5, 0.0);
  for (int i = 0; i < 4; ++i) {
    q(i, i + 1) += births[i];
    q(i, i) -= births[i];
    q(i + 1, i) += deaths[i];
    q(i + 1, i + 1) -= deaths[i];
  }
  const auto pi = ctmc_steady_state(q);
  for (int i = 0; i < 4; ++i)
    EXPECT_NEAR(pi[i] * births[i], pi[i + 1] * deaths[i], 1e-10);
}

TEST(CtmcSteadyState, FromGraphRejectsDeterministic) {
  PetriNet net;
  const auto p = net.add_place("P", 1);
  const auto d = net.add_deterministic("D", 1.0);
  net.add_input_arc(d, p);
  net.add_output_arc(d, p);
  const auto g = TangibleReachabilityGraph::build(net);
  EXPECT_THROW(Ctmc::from_graph(g), SolverError);
}

// ---- transient / matrix exponentials ----------------------------------------

TEST(Transient, TwoStateClosedFormOverTime) {
  const double f = 0.3, r = 0.7;
  const auto q = two_state_generator(f, r);
  const Vector pi0 = {1.0, 0.0};
  for (double t : {0.0, 0.1, 1.0, 5.0, 50.0}) {
    const auto pi = ctmc_transient(q, pi0, t);
    const double expected_up =
        r / (f + r) + f / (f + r) * std::exp(-(f + r) * t);
    EXPECT_NEAR(pi[0], expected_up, 1e-10) << "t = " << t;
    EXPECT_NEAR(pi[0] + pi[1], 1.0, 1e-10);
  }
}

TEST(Transient, MatrixPairMatchesVectorPropagation) {
  const auto q = two_state_generator(0.4, 0.9);
  const double tau = 3.7;
  const DenseMatrix omega = matrix_exponential(q, tau);
  const Vector pi0 = {0.25, 0.75};
  const auto direct = ctmc_transient(q, pi0, tau);
  const auto via_matrix = omega.left_multiply(pi0);
  EXPECT_NEAR(via_matrix[0], direct[0], 1e-9);
  EXPECT_NEAR(via_matrix[1], direct[1], 1e-9);
}

TEST(Transient, IntegralMatchesAccumulatedSojourn) {
  // Time in the up state over [0, tau] from up, in closed form:
  //   r/(f+r) tau + f/(f+r)^2 (1 - exp(-(f+r) tau)).
  const double f = 0.4, r = 0.9;
  const auto q = two_state_generator(f, r);
  const double tau = 2.5;
  const Vector pi0 = {1.0, 0.0};
  const auto acc = ctmc_accumulated_sojourn(q, pi0, tau);
  const double up = r / (f + r) * tau +
                    f / ((f + r) * (f + r)) * (1.0 - std::exp(-(f + r) * tau));
  EXPECT_NEAR(acc[0], up, 1e-8);
  EXPECT_NEAR(acc[1], tau - up, 1e-8);
  // Total accumulated time equals tau.
  EXPECT_NEAR(acc[0] + acc[1], tau, 1e-9);
}

TEST(Transient, LongHorizonApproachesSteadyState) {
  const auto q = two_state_generator(0.05, 0.2);
  const Vector pi0 = {0.0, 1.0};
  const auto pi = ctmc_transient(q, pi0, 1e4);
  EXPECT_NEAR(pi[0], 0.8, 1e-8);
}

TEST(Transient, StiffHorizonStaysStochastic) {
  // Large rates x long horizon exercises the doubling path.
  const auto q = two_state_generator(120.0, 80.0);
  const DenseMatrix omega = matrix_exponential(q, 100.0);
  for (std::size_t i = 0; i < 2; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_GE(omega(i, j), -1e-12);
      row += omega(i, j);
    }
    EXPECT_NEAR(row, 1.0, 1e-9);
  }
}

/// The textbook i-k-j product (zero skip included).
DenseMatrix reference_product(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix out(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  return out;
}

/// matrix_exponential computed the original way: full n^3 products for
/// every series term and every doubling. The production code multiplies the
/// series terms by P_u's nonzeros only and tiles the doublings; both must
/// reproduce these bits.
DenseMatrix reference_omega(const DenseMatrix& q, double tau) {
  const std::size_t n = q.rows();
  double lambda = 0.0;
  for (std::size_t i = 0; i < n; ++i) lambda = std::max(lambda, -q(i, i));
  int doublings = 0;
  double t0 = tau;
  while (lambda * t0 > 1.0) {
    t0 /= 2.0;
    ++doublings;
  }
  DenseMatrix p_u(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) p_u(i, j) = q(i, j) / lambda;
    p_u(i, i) += 1.0;
  }
  const auto terms = linalg::poisson_terms(lambda * t0, 1e-16);
  DenseMatrix omega(n, n, 0.0);
  DenseMatrix power = DenseMatrix::identity(n);
  for (std::size_t k = 0; k <= terms.truncation; ++k) {
    if (k > 0) power = reference_product(power, p_u);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        omega(i, j) += terms.pmf[k] * power(i, j);
  }
  for (int d = 0; d < doublings; ++d)
    omega = reference_product(omega, omega);
  return omega;
}

/// A sparse generator like the subordinated ones (n >= 2): up to four exits
/// per row, every fifth row absorbing.
DenseMatrix random_generator(std::size_t n, util::RandomStream& rng) {
  DenseMatrix q(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 5 == 4) continue;
    for (int e = 0; e < 4; ++e) {
      const std::size_t j = (i + 1 + rng.uniform_index(n - 1)) % n;
      const double rate = rng.uniform(0.01, 1.0);
      q(i, j) += rate;
      q(i, i) -= rate;
    }
  }
  return q;
}

bool same_bits(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.row_data(0), b.row_data(0),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

TEST(Transient, MatrixPairIsBitIdenticalToTheFullProductSeries) {
  util::RandomStream rng(5);
  for (const std::size_t n : {2u, 5u, 9u, 70u, 117u}) {
    const DenseMatrix q = random_generator(n, rng);
    for (const double tau : {0.5, 37.0, 3000.0})
      EXPECT_TRUE(same_bits(matrix_exponential(q, tau),
                            reference_omega(q, tau)))
          << n << " states, tau " << tau;
  }
}

TEST(Transient, ZeroGenerator) {
  DenseMatrix q(3, 3, 0.0);
  const DenseMatrix omega = matrix_exponential(q, 7.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(omega(i, i), 1.0);
    Vector pi0(3, 0.0);
    pi0[i] = 1.0;
    EXPECT_DOUBLE_EQ(ctmc_accumulated_sojourn(q, pi0, 7.0)[i], 7.0);
  }
}

// ---- DTMC ----------------------------------------------------------------------

TEST(Dtmc, StationaryOfKnownChain) {
  DenseMatrix p(3, 3, 0.0);
  p(0, 1) = 1.0;
  p(1, 0) = 0.4;
  p(1, 2) = 0.6;
  p(2, 0) = 1.0;
  const auto nu = dtmc_stationary(p);
  // Balance: nu0 = 0.4 nu1 + nu2; nu1 = nu0; nu2 = 0.6 nu1.
  EXPECT_NEAR(nu[0], nu[1], 1e-10);
  EXPECT_NEAR(nu[2], 0.6 * nu[1], 1e-10);
  EXPECT_NEAR(nu[0] + nu[1] + nu[2], 1.0, 1e-12);
}

TEST(Dtmc, RowSumCheck) {
  DenseMatrix p(2, 2, 0.0);
  p(0, 0) = 0.5;
  p(0, 1) = 0.5;
  p(1, 0) = 0.9;
  p(1, 1) = 0.2;  // bad row
  EXPECT_NEAR(max_row_sum_error(p), 0.1, 1e-12);
}

// ---- DSPN solver -----------------------------------------------------------------

/// A deterministic transition D (delay tau) cycles a token A -> B; an
/// exponential transition returns it. Always exactly one deterministic
/// enabled in state A, none in B. Closed form: the cycle alternates a
/// deterministic phase of exactly tau with an exponential phase of mean
/// 1/r, so pi_A = tau / (tau + 1/r).
TEST(DspnSolver, DeterministicExponentialCycle) {
  const double tau = 5.0, r = 0.4;
  PetriNet net;
  const auto a = net.add_place("A", 1);
  const auto b = net.add_place("B", 0);
  const auto d = net.add_deterministic("D", tau);
  net.add_input_arc(d, a);
  net.add_output_arc(d, b);
  const auto back = net.add_exponential("back", r);
  net.add_input_arc(back, b);
  net.add_output_arc(back, a);

  const auto g = TangibleReachabilityGraph::build(net);
  const auto result = DspnSteadyStateSolver().solve(g);
  EXPECT_FALSE(result.pure_ctmc);
  const auto sa = g.find({1, 0});
  const auto sb = g.find({0, 1});
  ASSERT_TRUE(sa && sb);
  const double expected_a = tau / (tau + 1.0 / r);
  EXPECT_NEAR(result.probabilities[*sa], expected_a, 1e-9);
  EXPECT_NEAR(result.probabilities[*sb], 1.0 - expected_a, 1e-9);
}

/// M/D/1/K-style queue: deterministic service, Poisson arrivals. Validated
/// against an Erlang-stage approximation of the deterministic service time
/// (k stages with rate k/tau each) — the Erlang chain converges to the DSPN
/// solution as k grows.
TEST(DspnSolver, MD1KAgreesWithErlangApproximation) {
  const double lambda = 0.08;
  const double tau = 5.0;
  const int cap = 4;

  // DSPN: arrivals bounded at cap; service deterministic tau, enabled while
  // queue non-empty (enabling memory restarts per departure since the
  // marking change disables/re-enables... the transition stays enabled when
  // queue > 1; this models a server that keeps its timer — the standard
  // M/D/1 queue).
  PetriNet net;
  const auto q = net.add_place("q", 0);
  const auto arrive = net.add_exponential("arrive", lambda);
  net.add_output_arc(arrive, q);
  net.add_inhibitor_arc(arrive, q, cap);
  const auto serve = net.add_deterministic("serve", tau);
  net.add_input_arc(serve, q);
  const auto g = TangibleReachabilityGraph::build(net);
  const auto dspn = DspnSteadyStateSolver().solve(g);

  // Erlang approximation with many stages.
  const int stages = 200;
  PetriNet erlang_net;
  const auto eq = erlang_net.add_place("q", 0);
  const auto stage = erlang_net.add_place("stage", 0);
  const auto earr = erlang_net.add_exponential("arrive", lambda);
  erlang_net.add_output_arc(earr, eq);
  erlang_net.add_inhibitor_arc(earr, eq, cap);
  // Stage progression: while q > 0, a stage token advances; after `stages`
  // advances one customer departs. Encode stage count in a counter place.
  const auto advance = erlang_net.add_exponential(
      "advance", static_cast<double>(stages) / tau);
  erlang_net.set_guard(advance, [eq](const petri::Marking& m) {
    return m[eq.index] >= 1;
  });
  erlang_net.add_output_arc(advance, stage);
  const auto depart = erlang_net.add_immediate("depart");
  erlang_net.add_input_arc(depart, stage, stages);
  erlang_net.add_input_arc(depart, eq);
  const auto ge = TangibleReachabilityGraph::build(erlang_net);
  const auto ctmc = Ctmc::from_graph(ge);
  const auto pi_e = ctmc_steady_state(ctmc.generator);

  // Compare queue-length marginals.
  for (int n = 0; n <= cap; ++n) {
    double dspn_mass = 0.0;
    for (std::size_t s = 0; s < g.size(); ++s)
      if (g.marking(s)[q.index] == n) dspn_mass += dspn.probabilities[s];
    double erlang_mass = 0.0;
    for (std::size_t s = 0; s < ge.size(); ++s)
      if (ge.marking(s)[eq.index] == n) erlang_mass += pi_e[s];
    EXPECT_NEAR(dspn_mass, erlang_mass, 0.01) << "queue length " << n;
  }
}

TEST(DspnSolver, PureCtmcFallsThrough) {
  const auto g = TangibleReachabilityGraph::build(mm1k(1.0, 2.0, 3));
  const auto result = DspnSteadyStateSolver().solve(g);
  EXPECT_TRUE(result.pure_ctmc);
  const auto direct = ctmc_steady_state(Ctmc::from_graph(g).generator);
  for (std::size_t s = 0; s < g.size(); ++s)
    EXPECT_NEAR(result.probabilities[s], direct[s], 1e-10);
}

TEST(DspnSolver, RejectsTwoConcurrentDeterministics) {
  PetriNet net;
  const auto a = net.add_place("A", 1);
  const auto b = net.add_place("B", 1);
  const auto d1 = net.add_deterministic("D1", 1.0);
  net.add_input_arc(d1, a);
  net.add_output_arc(d1, a);
  const auto d2 = net.add_deterministic("D2", 2.0);
  net.add_input_arc(d2, b);
  net.add_output_arc(d2, b);
  const auto g = TangibleReachabilityGraph::build(net);
  EXPECT_THROW(DspnSteadyStateSolver().solve(g), SolverError);
}

TEST(DspnSolver, RejectsAbsorbingStateInMrgpPath) {
  // Deterministic A -> B with B dead: the regenerative analysis has no
  // stationary distribution to offer.
  PetriNet net;
  const auto a = net.add_place("A", 1);
  const auto b = net.add_place("B", 0);
  const auto d = net.add_deterministic("D", 2.0);
  net.add_input_arc(d, a);
  net.add_output_arc(d, b);  // B is absorbing
  const auto g = TangibleReachabilityGraph::build(net);
  EXPECT_THROW(DspnSteadyStateSolver().solve(g), SolverError);
}

TEST(DspnSolver, PureCtmcAbsorbingChainConvergesToAbsorber) {
  // Without deterministic transitions the solver delegates to the CTMC
  // path, where an absorbing chain has the degenerate stationary
  // distribution concentrated on the absorber.
  PetriNet net;
  const auto a = net.add_place("A", 1);
  const auto b = net.add_place("B", 0);
  const auto t = net.add_exponential("T", 1.0);
  net.add_input_arc(t, a);
  net.add_output_arc(t, b);
  const auto g = TangibleReachabilityGraph::build(net);
  const auto result = DspnSteadyStateSolver().solve(g);
  const auto sb = g.find({0, 1});
  ASSERT_TRUE(sb.has_value());
  EXPECT_NEAR(result.probabilities[*sb], 1.0, 1e-9);
}

TEST(DspnSolver, DeterministicDisabledByCompetition) {
  // Deterministic D (delay 10) competes with a fast exponential E (rate 2)
  // for the same token; E almost always wins, and each E-firing resets D's
  // timer (regeneration on disabling). State A should dominate but both
  // solver and closed form agree: from A, P(D fires first) = exp(-2*10).
  const double tau = 10.0, e_rate = 2.0, back_rate = 0.5;
  PetriNet net;
  const auto a = net.add_place("A", 1);
  const auto b = net.add_place("B", 0);
  const auto c = net.add_place("C", 0);
  const auto d = net.add_deterministic("D", tau);
  net.add_input_arc(d, a);
  net.add_output_arc(d, b);
  const auto e = net.add_exponential("E", e_rate);
  net.add_input_arc(e, a);
  net.add_output_arc(e, c);
  const auto back_b = net.add_exponential("backB", back_rate);
  net.add_input_arc(back_b, b);
  net.add_output_arc(back_b, a);
  const auto back_c = net.add_exponential("backC", back_rate);
  net.add_input_arc(back_c, c);
  net.add_output_arc(back_c, a);

  const auto g = TangibleReachabilityGraph::build(net);
  const auto result = DspnSteadyStateSolver().solve(g);

  // Semi-Markov closed form: from A, the sojourn is min(Exp(e), tau);
  // P(to B) = exp(-e_rate * tau); expected sojourn in A =
  // (1 - exp(-e_rate tau)) / e_rate; B and C sojourns are 1/back_rate.
  const double p_b = std::exp(-e_rate * tau);
  const double sojourn_a = (1.0 - p_b) / e_rate;
  const double cycle = sojourn_a + 1.0 / back_rate;  // B or C, same mean
  const double pi_a = sojourn_a / cycle;
  const double pi_b = p_b / back_rate / cycle;
  const double pi_c = (1.0 - p_b) / back_rate / cycle;
  const auto sa = g.find({1, 0, 0});
  const auto sb = g.find({0, 1, 0});
  const auto sc = g.find({0, 0, 1});
  ASSERT_TRUE(sa && sb && sc);
  EXPECT_NEAR(result.probabilities[*sa], pi_a, 1e-9);
  EXPECT_NEAR(result.probabilities[*sb], pi_b, 1e-9);
  EXPECT_NEAR(result.probabilities[*sc], pi_c, 1e-9);
}

// ---- rewards -------------------------------------------------------------------

TEST(Rewards, ExpectedRewardAndVector) {
  const auto g = TangibleReachabilityGraph::build(mm1k(1.0, 2.0, 2));
  const auto chain = Ctmc::from_graph(g);
  const auto pi = ctmc_steady_state(chain.generator);
  const MarkingReward queue_len = [](const petri::Marking& m) {
    return static_cast<double>(m[0]);
  };
  const double expected = expected_reward(g, pi, queue_len);
  // rho = 0.5, K = 2: pi = (4/7, 2/7, 1/7); E[N] = 4/7.
  EXPECT_NEAR(expected, 4.0 / 7.0, 1e-9);
  const auto rv = reward_vector(g, queue_len);
  EXPECT_EQ(rv.size(), g.size());
}

TEST(Rewards, MassByFeature) {
  const auto g = TangibleReachabilityGraph::build(mm1k(1.0, 2.0, 2));
  const auto pi =
      ctmc_steady_state(Ctmc::from_graph(g).generator);
  const auto mass = mass_by_feature(
      g, pi, [](const petri::Marking& m) { return m[0] > 0 ? 1 : 0; });
  ASSERT_EQ(mass.size(), 2u);
  EXPECT_NEAR(mass[0].second + mass[1].second, 1.0, 1e-12);
  EXPECT_NEAR(mass[0].second, 4.0 / 7.0, 1e-9);
}

}  // namespace
}  // namespace nvp::markov
