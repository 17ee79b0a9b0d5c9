#include "src/markov/dspn_solver.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "src/fault/error.hpp"
#include "src/fault/injector.hpp"
#include "src/linalg/lu.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/dtmc.hpp"
#include "src/markov/matrix_free.hpp"
#include "src/markov/sparse_assembly.hpp"
#include "src/markov/transient.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/contracts.hpp"
#include "src/util/string_util.hpp"

namespace nvp::markov {

using linalg::DenseMatrix;
using linalg::SparseMatrixCsr;
using linalg::Vector;

namespace {

/// Normalizes the conversion-weighted stationary vector into the result,
/// clamping round-off below 1e-15 to zero first.
Vector finish_stationary(Vector pi) {
  for (double& x : pi)
    if (x < 1e-15) x = 0.0;
  const double total = linalg::sum(pi);
  if (!(total > 0.0))
    throw SolverError("DSPN solver: zero total expected cycle time");
  for (double& x : pi) x /= total;
  return pi;
}

// ---------------------------------------------------------------------------
// Dense backend: each group's exp(Q_d tau) by uniformization with doubling,
// LU (with power fallback) for the stationary vectors; never C itself.

/// The embedded chain's rows must sum to 1 within max(1e-8, 1e-15 lambda
/// tau): the rounding drift of exp(Q tau)'s row sums about doubles with each
/// squaring (2^doublings is within 2x of lambda tau). On the 6v model at
/// 25-31 doublings (tau = 3e7 .. 3.2e9 s) it measured 1.9-2.5e-16 per series
/// term (1.3e-8 at 1e8 s); a malformed chain is off by far more.
void check_row_sums(const DenseMatrix& p, double series_terms) {
  const double row_err = max_row_sum_error(p);
  if (row_err > std::max(1e-8, 1e-15 * series_terms))
    throw SolverError(util::format(
        "DSPN solver: embedded chain rows are off by %g", row_err));
}

/// exp(Q_d tau) of one group. Q_d holds the exponential dynamics inside the
/// enabling set; rows of states outside the set are zero (absorbing).
DenseMatrix group_exponential(const petri::TangibleReachabilityGraph& g,
                              const AssemblyPlan::Group& group, double tau) {
  const std::size_t n = g.size();
  DenseMatrix q(n, n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    if (!group.in_set[s]) continue;
    for (const petri::RateEdge& e : g.exponential_edges(s)) {
      q(s, e.target) += e.rate;
      q(s, s) -= e.rate;
    }
  }
  const obs::ScopedSpan uniform_span("markov.uniformization");
  return matrix_exponential(std::move(q), tau);
}

/// True if some column of omega has no zero: a state every state reaches
/// (omega sums nonnegative terms), so Q has one closed class.
bool has_common_target(const DenseMatrix& omega) {
  for (std::size_t r = 0, s = 0; r < omega.cols(); ++r, s = 0) {
    while (s < omega.rows() && omega(s, r) > 0.0) ++s;
    if (s == omega.rows()) return true;
  }
  return false;
}

Vector dense_stationary(const DenseMatrix& p) {
  const obs::ScopedSpan stationary_span("markov.dtmc_stationary");
  return dtmc_stationary(p);
}

/// One clock enabled in every state: Omega = exp(Q tau) for the whole
/// exponential generator Q, F the firing distribution, P = Omega F. By
/// C Q = Omega - I, x = nu C follows from Omega alone: mu = nu Omega is
/// stationary for P' = F Omega, nu = mu F, and x Q = mu - nu, whose last
/// equation gives way to sum x = tau sum nu (C's rows sum to tau); with one
/// closed class that system is nonsingular. Holds two n x n matrices.
Vector one_clock_dense(const petri::TangibleReachabilityGraph& g,
                       const AssemblyPlan& plan, DenseMatrix omega, double tau,
                       double series_terms) {
  const std::size_t n = g.size();
  DenseMatrix p_prime(n, n, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    double* row = p_prime.row_data(u);
    for (const petri::ProbEdge& e : g.deterministics(u)[0].edges) {
      const double* from = omega.row_data(e.target);
      for (std::size_t j = 0; j < n; ++j) row[j] += e.prob * from[j];
    }
  }
  omega = DenseMatrix();
  check_row_sums(p_prime, series_terms);
  const Vector mu = dense_stationary(p_prime);
  p_prime = DenseMatrix();
  Vector nu(n, 0.0);
  for (std::size_t u = 0; u < n; ++u)
    for (const petri::ProbEdge& e : g.deterministics(u)[0].edges)
      nu[e.target] += mu[u] * e.prob;
  // Q^T x = (mu - nu)^T, the last row replaced by the sum.
  DenseMatrix a(n, n, 0.0);
  for (std::size_t s = 0; s < n; ++s)
    for (const petri::RateEdge& e : g.exponential_edges(s)) {
      a(e.target, s) += e.rate;
      a(s, s) -= e.rate;
    }
  Vector b(n);
  for (std::size_t j = 0; j < n; ++j) b[j] = mu[j] - nu[j];
  std::fill(a.row_data(n - 1), a.row_data(n - 1) + n, 1.0);
  b[n - 1] = tau * linalg::sum(nu);
  try {
    return finish_stationary(linalg::LuDecomposition(std::move(a)).solve(b));
  } catch (const linalg::SingularMatrixError&) {
    // A zero pivot: the operator's vector series below.
  }
  return finish_stationary(
      EmbeddedChainOperator(g, plan, "dense").conversion_apply(nu));
}

Vector solve_mrgp_dense(const petri::TangibleReachabilityGraph& g,
                        const AssemblyPlan& plan, double series_terms) {
  const std::size_t n = g.size();
  NVP_ASSERT(!plan.groups.empty());
  const obs::ScopedSpan embed_span("markov.embedded_chain");

  // Embedded Markov chain P: each group's exponential turns into its rows of
  // P in place; the first group's becomes P, later groups add theirs.
  DenseMatrix p;
  Vector omega_row(n);
  for (const AssemblyPlan::Group& group : plan.groups) {
    const std::vector<char>& in_set = group.in_set;
    const double tau = g.deterministics(group.members[0])[0].delay;
    for (std::size_t s : group.members)
      NVP_ASSERT(g.deterministics(s)[0].delay == tau);
    DenseMatrix omega = group_exponential(g, group, tau);
    if (group.members.size() == n && has_common_target(omega))
      return one_clock_dense(g, plan, std::move(omega), tau, series_terms);

    // Row s of omega becomes row s of P; rows outside the group are cleared.
    for (std::size_t s = 0; s < n; ++s) {
      double* p_row = omega.row_data(s);
      if (!in_set[s]) {
        std::fill(p_row, p_row + n, 0.0);
        continue;
      }
      std::copy(p_row, p_row + n, omega_row.begin());
      std::fill(p_row, p_row + n, 0.0);
      for (std::size_t u = 0; u < n; ++u) {
        const double reach = omega_row[u];
        if (reach <= 0.0) continue;
        if (in_set[u]) {
          // Still enabled at tau: the deterministic transition fires in u.
          for (const petri::ProbEdge& e : g.deterministics(u)[0].edges)
            p_row[e.target] += reach * e.prob;
        } else {
          // Absorbed before tau: regeneration at the moment of entering u.
          p_row[u] += reach;
        }
      }
    }
    if (p.rows() == 0)
      p = std::move(omega);
    else
      p += omega;
  }

  // Exponential-only states: one firing ends the period.
  for (std::size_t s = 0; s < n; ++s) {
    if (!g.deterministics(s).empty()) continue;
    const double exit = g.exit_rate(s);
    NVP_ASSERT(exit > 0.0);
    for (const petri::RateEdge& e : g.exponential_edges(s))
      p(s, e.target) += e.rate / exit;
  }
  check_row_sums(p, series_terms);
  const Vector nu = dense_stationary(p);
  // pi(j) proportional to sum_s nu(s) C(s, j), by the operator's series.
  return finish_stationary(
      EmbeddedChainOperator(g, plan, "dense").conversion_apply(nu));
}

// ---------------------------------------------------------------------------
// Matrix-free backend: never assembles the embedded chain. The
// EmbeddedChainOperator answers x -> x P through one sparse-uniformization
// propagation per deterministic group (see matrix_free.hpp), and the
// stationary vector comes from unpreconditioned GMRES / power iteration on
// that operator.

Vector solve_mrgp_matrix_free(const petri::TangibleReachabilityGraph& g,
                              const AssemblyPlan& plan,
                              const FallbackOptions& fallback,
                              std::size_t& nonzeros_out) {
  const std::size_t n = g.size();

  const obs::ScopedSpan embed_span("markov.embedded_chain_mfree");
  const EmbeddedChainOperator chain(g, plan);
  nonzeros_out = chain.stored_nonzeros();

  const BalanceOperator balance(chain);
  const TransferOperator transfer(chain);
  Vector rhs(n, 0.0);
  rhs[n - 1] = 1.0;

  StationaryProblem problem;
  problem.rhs = &rhs;
  problem.balance_op = &balance;
  problem.transfer_op = &transfer;
  problem.states = n;
  problem.what = "matrix-free MRGP stationary solve";

  // Only the operator-capable rungs can run here; keep their configured
  // order and make sure the mfree stage leads when the user's chain never
  // mentions it (the default chain predates the stage).
  FallbackOptions mfree_chain = fallback;
  mfree_chain.stages.clear();
  for (const FallbackStage stage : fallback.stages)
    if (stage == FallbackStage::kMatrixFree ||
        stage == FallbackStage::kPowerIteration)
      mfree_chain.stages.push_back(stage);
  if (std::find(mfree_chain.stages.begin(), mfree_chain.stages.end(),
                FallbackStage::kMatrixFree) == mfree_chain.stages.end())
    mfree_chain.stages.insert(mfree_chain.stages.begin(),
                              FallbackStage::kMatrixFree);

  const Vector nu = [&] {
    const obs::ScopedSpan stationary_span("markov.dtmc_stationary_mfree");
    return solve_stationary_chain(problem, mfree_chain);
  }();

  return finish_stationary(chain.conversion_apply(nu));
}

const char* backend_span(SolverBackend backend) {
  switch (backend) {
    case SolverBackend::kSparse:
      return "markov.solve.sparse";
    case SolverBackend::kMatrixFree:
      return "markov.solve.mfree";
    default:
      return "markov.solve.dense";
  }
}

// kAuto's MRGP cost rule. A matrix-free solve propagates sum_g lambda_g
// tau_g series terms per Krylov iteration; a dense solve costs about
// log2(lambda tau) n^3 products per group plus two n^3 LUs, so dense wins
// once the series terms reach this many per state. Per family (staged_rates,
// caches bypassed, Release, best of 10 up to 330 states, else of 3; lambda =
// 0.668/s, tau = 50..6000 s, f = r = 1 but * f = r = 2), the largest lambda
// tau mfree won and the smallest dense won:
//
//   states   mfree won up to   dense won from   terms per state
//       70        100               134            1.43 - 1.91
//      117        267               334            2.28 - 2.85
//      176        401               534            2.28 - 3.03
//      247        401               534            1.62 - 2.16
//      330        668              1002            2.02 - 3.03
//      364*       668              1002            1.83 - 2.75
//      676*      4006                 -            5.93 -
//
// No constant separates every family. 3.0 is the smallest that holds kAuto
// within 1.5x of the faster backend on every bench_solver_grid cell (each
// has a rule in BENCH_solver.json; 676 states at tau = 3000 s has 2.96
// terms per state, and mfree wins it 1.5x). Up to 364 states kAuto stays
// within 1.59x (247 states, lambda tau = 668); at 676 states it was 2.1x
// slower at tau = 4000 s.
constexpr double kDenseSeriesTermsPerState = 3.0;

// kAuto's pure-CTMC rule: CSR + Krylov from this many tangible states, dense
// LU below it, where LU is faster (no Krylov setup) and the small paper
// configurations stay on the dense oracle path.
constexpr std::size_t kCtmcSparseStates = 128;

// Largest state count kAuto hands the dense MRGP backend, and the largest
// model a failed non-dense solve is retried on dense: a dense n^2 rebuild at
// 10^5 states would turn a failed solve into a stuck one.
constexpr std::size_t kDenseStateLimit = 4096;

}  // namespace

const char* to_string(DispatchReason reason) {
  switch (reason) {
    case DispatchReason::kForced:
      return "forced";
    case DispatchReason::kCtmcSize:
      return "ctmc-size";
    case DispatchReason::kCost:
      return "cost";
  }
  return "?";
}

Dispatch dispatch(const SolverConfig& config, std::size_t states,
                  bool has_deterministic, double series_terms) {
  Dispatch d;
  d.states = states;
  d.series_terms = series_terms;
  // A model class's sparse backend: CSR for a pure CTMC, the operator for
  // an MRGP (whose explicit embedded chain is near-dense).
  const SolverBackend sparse =
      has_deterministic ? SolverBackend::kMatrixFree : SolverBackend::kSparse;
  if (config.backend != SolverBackend::kAuto) {
    d.backend = config.backend == SolverBackend::kDense
                    ? SolverBackend::kDense
                    : sparse;
    d.reason = DispatchReason::kForced;
  } else if (!has_deterministic) {
    d.backend = states >= kCtmcSparseStates ? sparse : SolverBackend::kDense;
    d.reason = DispatchReason::kCtmcSize;
  } else {
    const bool dense =
        states <= kDenseStateLimit &&
        series_terms >=
            kDenseSeriesTermsPerState * static_cast<double>(states);
    d.backend = dense ? SolverBackend::kDense : sparse;
    d.reason = DispatchReason::kCost;
  }
  return d;
}

double series_terms(const petri::TangibleReachabilityGraph& g,
                    const AssemblyPlan& plan) {
  double total = 0.0;
  for (const AssemblyPlan::Group& group : plan.groups) {
    // lambda_g = max -Q_g(s, s): the largest rate out of a member state.
    double lambda = 0.0;
    for (std::size_t s : group.members) {
      double out = 0.0;
      for (const petri::RateEdge& e : g.exponential_edges(s))
        if (e.target != s) out += e.rate;
      lambda = std::max(lambda, out);
    }
    total += lambda * g.deterministics(group.members[0])[0].delay;
  }
  return total;
}

AssemblyPlan build_assembly_plan(const petri::TangibleReachabilityGraph& g) {
  static obs::Counter& plans =
      obs::Registry::global().counter("markov.assembly.plan_builds");
  const obs::ScopedSpan span("markov.assembly_plan");
  plans.add();

  AssemblyPlan plan;
  plan.states = g.size();
  plan.has_deterministic = g.has_deterministic();
  if (!plan.has_deterministic) {
    plan.generator = sparse_generator_pattern(g);
    return plan;
  }

  // Group states by the deterministic transition they enable; std::map
  // iteration gives the transition-index order the fused solver used.
  std::map<std::size_t, std::vector<std::size_t>> groups;
  for (std::size_t s = 0; s < g.size(); ++s)
    if (!g.deterministics(s).empty())
      groups[g.deterministics(s)[0].transition].push_back(s);

  plan.groups.reserve(groups.size());
  for (auto& [transition, members] : groups) {
    AssemblyPlan::Group group;
    group.transition = transition;
    group.in_set.assign(g.size(), 0);
    for (std::size_t s : members) group.in_set[s] = 1;
    group.subordinated = sparse_subordinated_pattern(g, group.in_set);
    group.members = std::move(members);
    plan.groups.push_back(std::move(group));
  }
  return plan;
}

DspnSteadyStateResult DspnSteadyStateSolver::solve(
    const petri::TangibleReachabilityGraph& g) const {
  return solve(g, build_assembly_plan(g));
}

DspnSteadyStateResult DspnSteadyStateSolver::solve(
    const petri::TangibleReachabilityGraph& g, const AssemblyPlan& plan) const {
  const std::size_t n = g.size();
  NVP_EXPECTS(n > 0);
  NVP_EXPECTS(plan.states == n);
  NVP_EXPECTS(plan.has_deterministic == g.has_deterministic());

  if (fault::fire(fault::Site::kAlloc)) {
    fault::Context context;
    context.site = "markov.solver";
    context.states = n;
    context.detail = "injected";
    throw SolverError("DSPN solver: injected matrix-allocation failure",
                      fault::Category::kResource, std::move(context));
  }

  DspnSteadyStateResult result;
  result.states = n;
  result.dispatch =
      dispatch(options_, n, g.has_deterministic(), series_terms(g, plan));
  result.backend_used = result.dispatch.backend;
  if (result.dispatch.reason == DispatchReason::kCost) {
    static obs::Counter& cost_dense =
        obs::Registry::global().counter("markov.dispatch.dense");
    static obs::Counter& cost_mfree =
        obs::Registry::global().counter("markov.dispatch.mfree");
    (result.backend_used == SolverBackend::kDense ? cost_dense : cost_mfree)
        .add();
  }

  static obs::Counter& ctmc_solves =
      obs::Registry::global().counter("markov.solver.ctmc_solves");
  static obs::Counter& mrgp_solves =
      obs::Registry::global().counter("markov.solver.mrgp_solves");
  static obs::Counter& dense_solves =
      obs::Registry::global().counter("markov.solver.dense_solves");
  static obs::Counter& sparse_solves =
      obs::Registry::global().counter("markov.solver.sparse_solves");
  static obs::Counter& mfree_solves =
      obs::Registry::global().counter("markov.solver.mfree_solves");
  static obs::Histogram& states_hist =
      obs::Registry::global().histogram("markov.solver.states");
  static obs::Histogram& nnz_hist =
      obs::Registry::global().histogram("markov.solver.matrix_nonzeros");
  const auto backend_counter = [&](SolverBackend backend) -> obs::Counter& {
    switch (backend) {
      case SolverBackend::kSparse:
        return sparse_solves;
      case SolverBackend::kMatrixFree:
        return mfree_solves;
      default:
        return dense_solves;
    }
  };
  const obs::ScopedSpan span(backend_span(result.backend_used));
  states_hist.observe(static_cast<double>(n));
  backend_counter(result.backend_used).add();

  if (!g.has_deterministic()) {
    ctmc_solves.add();
    result.pure_ctmc = true;
  } else {
    mrgp_solves.add();
    // Sanity: at most one deterministic transition enabled per marking, and
    // no fully absorbing tangible state.
    for (std::size_t s = 0; s < n; ++s) {
      if (g.deterministics(s).size() > 1)
        throw SolverError(
            "DSPN solver: marking " + petri::to_string(g.marking(s)) +
            " enables " + std::to_string(g.deterministics(s).size()) +
            " deterministic transitions (at most one is supported)");
      if (g.deterministics(s).empty() && g.exponential_edges(s).empty())
        throw SolverError("DSPN solver: absorbing tangible marking " +
                          petri::to_string(g.marking(s)) +
                          " has no stationary distribution");
    }
  }

  const auto solve_with = [&](SolverBackend backend) {
    if (result.pure_ctmc) {
      if (backend == SolverBackend::kDense) {
        result.matrix_nonzeros = n * n;
        const Ctmc chain = Ctmc::from_graph(g);
        const obs::ScopedSpan ctmc_span("markov.ctmc_steady_state");
        result.probabilities = ctmc_steady_state(chain.generator);
      } else {
        // The CSR generator: genuinely sparse, so there is nothing for an
        // operator to avoid materializing (the mfree *fallback stage* still
        // runs matrix-free Krylov over it when configured).
        const SparseMatrixCsr q =
            plan.generator.pour(sparse_generator_values(g));
        result.matrix_nonzeros = q.nonzeros();
        const obs::ScopedSpan ctmc_span("markov.ctmc_steady_state_sparse");
        result.probabilities =
            ctmc_steady_state_sparse(q, options_.fallback);
      }
    } else if (backend == SolverBackend::kMatrixFree) {
      result.probabilities = solve_mrgp_matrix_free(
          g, plan, options_.fallback, result.matrix_nonzeros);
    } else {
      result.matrix_nonzeros = n * n;  // the dense P, or Omega
      result.probabilities =
          solve_mrgp_dense(g, plan, result.dispatch.series_terms);
    }
  };

  const SolverBackend primary = result.backend_used;
  if (primary == SolverBackend::kDense) {
    solve_with(primary);
  } else {
    try {
      solve_with(primary);
    } catch (const std::exception& primary_error) {
      // Whole-solve degradation: if the chain keeps the dense oracle as its
      // last resort and the model is small enough to densify, rebuild on
      // the dense backend before giving up.
      const auto& stages = options_.fallback.stages;
      if (std::find(stages.begin(), stages.end(), FallbackStage::kDenseLu) ==
              stages.end() ||
          n > kDenseStateLimit)
        throw;
      static obs::Counter& backend_fallbacks =
          obs::Registry::global().counter("markov.solver.backend_fallbacks");
      backend_fallbacks.add();
      dense_solves.add();
      const char* primary_name = to_string(primary);
      result.backend_used = SolverBackend::kDense;
      try {
        const obs::ScopedSpan retry_span("markov.solve.backend_fallback");
        solve_with(SolverBackend::kDense);
      } catch (const std::exception& dense_error) {
        fault::Context context;
        context.site = "markov.solver";
        context.states = n;
        context.causes = {
            std::string(primary_name) + ": " + primary_error.what(),
            std::string("dense: ") + dense_error.what()};
        throw SolverError(
            "DSPN solver: " + std::string(primary_name) +
                " backend failed and the dense retry failed",
            fault::category_of(dense_error), std::move(context));
      }
    }
  }

  nnz_hist.observe(static_cast<double>(result.matrix_nonzeros));
  return result;
}

}  // namespace nvp::markov
