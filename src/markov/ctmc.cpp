#include "src/markov/ctmc.hpp"

#include <cmath>

#include "src/linalg/iterative.hpp"
#include "src/linalg/lu.hpp"
#include "src/markov/sparse_assembly.hpp"
#include "src/util/contracts.hpp"

namespace nvp::markov {

using linalg::DenseMatrix;
using linalg::Vector;

Ctmc Ctmc::from_graph(const petri::TangibleReachabilityGraph& g) {
  const std::size_t n = g.size();
  NVP_EXPECTS(n > 0);
  Ctmc chain;
  chain.generator = DenseMatrix(n, n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    if (!g.deterministics(s).empty())
      throw SolverError(
          "Ctmc::from_graph: state " + std::to_string(s) +
          " enables a deterministic transition; use the DSPN solver");
    for (const petri::RateEdge& e : g.exponential_edges(s)) {
      chain.generator(s, e.target) += e.rate;
      chain.generator(s, s) -= e.rate;
    }
  }
  chain.initial.assign(n, 0.0);
  for (const petri::ProbEdge& e : g.initial_distribution())
    chain.initial[e.target] = e.prob;
  return chain;
}

namespace {

Vector steady_state_direct(const DenseMatrix& q) {
  const std::size_t n = q.rows();
  // Solve pi Q = 0 with sum(pi) = 1: transpose to Q^T pi^T = 0 and replace
  // the last balance equation by the normalization constraint.
  DenseMatrix a = q.transposed();
  for (std::size_t c = 0; c < n; ++c) a(n - 1, c) = 1.0;
  Vector b(n, 0.0);
  b[n - 1] = 1.0;
  Vector pi = linalg::LuDecomposition(std::move(a)).solve(b);
  // Clean tiny negative round-off and renormalize.
  for (double& x : pi) x = std::max(x, 0.0);
  linalg::normalize_l1(pi);
  return pi;
}

Vector steady_state_power(const DenseMatrix& q) {
  const std::size_t n = q.rows();
  double lambda = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    lambda = std::max(lambda, -q(i, i));
  NVP_EXPECTS_MSG(lambda > 0.0, "steady state of an all-absorbing chain");
  lambda *= 1.02;
  DenseMatrix p(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) p(i, j) = q(i, j) / lambda;
    p(i, i) += 1.0;
  }
  auto res = linalg::stationary_power_iteration(p);
  if (!res.converged)
    throw SolverError("power iteration did not converge (residual " +
                      std::to_string(res.residual) + ")");
  return res.x;
}

}  // namespace

const char* to_string(SolverBackend backend) {
  switch (backend) {
    case SolverBackend::kAuto:
      return "auto";
    case SolverBackend::kDense:
      return "dense";
    case SolverBackend::kSparse:
      return "sparse";
    case SolverBackend::kMatrixFree:
      return "mfree";
  }
  return "?";
}

std::optional<SolverBackend> parse_backend(std::string_view name) {
  if (name == "auto") return SolverBackend::kAuto;
  if (name == "dense") return SolverBackend::kDense;
  if (name == "sparse") return SolverBackend::kSparse;
  if (name == "mfree") return SolverBackend::kMatrixFree;
  return std::nullopt;
}

Vector ctmc_steady_state_sparse(const linalg::SparseMatrixCsr& generator,
                                const FallbackOptions& fallback) {
  NVP_EXPECTS(generator.rows() == generator.cols());
  const std::size_t n = generator.rows();
  NVP_EXPECTS(n > 0);

  // A = Q^T with the last balance equation replaced by sum(pi) = 1 — the
  // same system the dense direct method factors, assembled in CSR.
  std::vector<linalg::Triplet> triplets;
  triplets.reserve(generator.nonzeros() + n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = generator.row_begin(r); k < generator.row_end(r);
         ++k)
      if (generator.col_index(k) != n - 1)
        triplets.push_back({generator.col_index(k), r, generator.value(k)});
  for (std::size_t c = 0; c < n; ++c) triplets.push_back({n - 1, c, 1.0});
  const linalg::SparseMatrixCsr a(n, n, std::move(triplets));
  Vector b(n, 0.0);
  b[n - 1] = 1.0;

  StationaryProblem problem;
  problem.balance = &a;
  problem.rhs = &b;
  problem.states = n;
  problem.what = "ctmc_steady_state_sparse";
  // The power stage runs on the uniformized DTMC (built only when a Krylov
  // stage stalled or produced garbage on a reducible chain).
  problem.stochastic = [&generator] {
    double lambda = sparse_uniformization_rate(generator);
    NVP_EXPECTS_MSG(lambda > 0.0, "steady state of an all-absorbing chain");
    lambda *= 1.02;
    return sparse_uniformized_dtmc(generator, lambda);
  };
  return solve_stationary_chain(problem, fallback);
}

Vector ctmc_steady_state(const DenseMatrix& generator) {
  NVP_EXPECTS(generator.rows() == generator.cols());
  NVP_EXPECTS(generator.rows() > 0);
  try {
    return steady_state_direct(generator);
  } catch (const linalg::SingularMatrixError&) {
    // Reducible chain: the power method still converges to a stationary
    // distribution (dependent on the uniform start).
    return steady_state_power(generator);
  }
}

}  // namespace nvp::markov
