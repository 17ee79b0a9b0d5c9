// A stationary solver for tests that shares no arithmetic with the
// production backends: every quantity is a long double (80-bit on x86-64
// with GCC and Clang), the transient quantities come from the plain
// uniformization series (no doubling, no tiling, no early exit), the
// Poisson weights from log space (e^-2004, the first weight at tau = 3000 s
// on the 6v family, underflows a double), and the linear systems from its
// own Gaussian elimination with partial pivoting. It reads nothing but the
// tangible reachability graph. A pure CTMC goes straight to the balance
// equations; an MRGP builds the embedded chain P and the conversion
// factors C from each group's series, solves nu P = nu and normalizes
// nu C — the textbook method, at a cost no production path would pay.

#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/staged.hpp"
#include "src/petri/reachability.hpp"

namespace nvp::reference {

using Real = long double;
using RVector = std::vector<Real>;
using RMatrix = std::vector<RVector>;  // rows

/// Solves a x = b by Gaussian elimination with partial pivoting.
inline RVector solve(RMatrix a, RVector b) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    if (a[pivot][col] == 0.0L)
      throw std::runtime_error("reference: singular system");
    std::swap(a[pivot], a[col]);
    std::swap(b[pivot], b[col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const Real f = a[r][col] / a[col][col];
      if (f == 0.0L) continue;
      for (std::size_t c = col; c < n; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  RVector x(n);
  for (std::size_t i = n; i-- > 0;) {
    Real acc = b[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= a[i][j] * x[j];
    x[i] = acc / a[i][i];
  }
  return x;
}

/// Stationary vector of a balance system given as its transpose `at`
/// (at = Q^T for a generator, P^T - I for a stochastic matrix): the last
/// equation gives way to sum x = 1.
inline RVector stationary(RMatrix at) {
  const std::size_t n = at.size();
  at[n - 1].assign(n, 1.0L);
  RVector b(n, 0.0L);
  b[n - 1] = 1.0L;
  return solve(std::move(at), std::move(b));
}

/// One group's Omega = exp(Q tau) and integral C = \int_0^tau exp(Q t) dt,
/// row by row over the plain series
///   Omega = sum_k pmf_k P_u^k,  C = sum_k P(N > k) / lambda P_u^k,
/// with P_u = I + Q / lambda and N ~ Poisson(lambda tau). Rows of states
/// outside the group stay zero.
inline void group_series(const petri::TangibleReachabilityGraph& g,
                         const std::vector<char>& in_set, Real tau,
                         RMatrix& omega, RMatrix& integral) {
  const std::size_t n = g.size();
  RMatrix q(n, RVector(n, 0.0L));
  Real lambda = 0.0L;
  for (std::size_t s = 0; s < n; ++s) {
    if (!in_set[s]) continue;
    for (const petri::RateEdge& e : g.exponential_edges(s)) {
      q[s][e.target] += e.rate;
      q[s][s] -= e.rate;
    }
    lambda = std::max(lambda, -q[s][s]);
  }
  omega.assign(n, RVector(n, 0.0L));
  integral.assign(n, RVector(n, 0.0L));
  if (lambda == 0.0L) {
    for (std::size_t s = 0; s < n; ++s) {
      omega[s][s] = 1.0L;
      integral[s][s] = in_set[s] ? tau : 0.0L;
    }
    return;
  }
  // Poisson weights from log space, truncated 12 standard deviations (and
  // 50 terms) past the mean; tails as suffix sums, free of cancellation.
  const Real mean = lambda * tau;
  const auto terms = static_cast<std::size_t>(
      mean + 12.0L * std::sqrt(mean) + 50.0L);
  RVector pmf(terms + 1), tail(terms + 2, 0.0L);
  for (std::size_t k = 0; k <= terms; ++k)
    pmf[k] = std::exp(-mean + static_cast<Real>(k) * std::log(mean) -
                      std::lgamma(static_cast<Real>(k) + 1.0L));
  for (std::size_t k = terms + 1; k-- > 0;) tail[k] = tail[k + 1] + pmf[k];
  // P_u as (column, value) lists per row.
  std::vector<std::vector<std::pair<std::size_t, Real>>> p_u(n);
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t t = 0; t < n; ++t) {
      const Real v = q[s][t] / lambda + (s == t ? 1.0L : 0.0L);
      if (v != 0.0L) p_u[s].push_back({t, v});
    }
  for (std::size_t s = 0; s < n; ++s) {
    if (!in_set[s]) continue;
    RVector v(n, 0.0L), next(n);
    v[s] = 1.0L;
    for (std::size_t k = 0; k <= terms; ++k) {
      if (k > 0) {
        std::fill(next.begin(), next.end(), 0.0L);
        for (std::size_t u = 0; u < n; ++u)
          if (v[u] != 0.0L)
            for (const auto& [t, value] : p_u[u]) next[t] += v[u] * value;
        v.swap(next);
      }
      const Real weight = tail[k + 1] / lambda;
      for (std::size_t u = 0; u < n; ++u) {
        omega[s][u] += pmf[k] * v[u];
        integral[s][u] += weight * v[u];
      }
    }
  }
}

/// Stationary distribution over the graph's tangible states.
inline RVector stationary_distribution(
    const petri::TangibleReachabilityGraph& g) {
  const std::size_t n = g.size();
  RMatrix at(n, RVector(n, 0.0L));
  if (!g.has_deterministic()) {
    for (std::size_t s = 0; s < n; ++s)
      for (const petri::RateEdge& e : g.exponential_edges(s)) {
        at[e.target][s] += e.rate;
        at[s][s] -= e.rate;
      }
    return stationary(std::move(at));
  }
  // Embedded chain P (transposed into `at`) and conversion factors C.
  RMatrix c(n, RVector(n, 0.0L));
  std::vector<bool> done(n, false);
  for (std::size_t s0 = 0; s0 < n; ++s0) {
    if (g.deterministics(s0).empty() || done[s0]) continue;
    const std::size_t transition = g.deterministics(s0)[0].transition;
    std::vector<char> in_set(n, 0);
    for (std::size_t s = 0; s < n; ++s)
      if (!g.deterministics(s).empty() &&
          g.deterministics(s)[0].transition == transition)
        in_set[s] = 1;
    RMatrix omega, integral;
    group_series(g, in_set, g.deterministics(s0)[0].delay, omega, integral);
    for (std::size_t s = 0; s < n; ++s) {
      if (!in_set[s]) continue;
      done[s] = true;
      for (std::size_t u = 0; u < n; ++u) {
        if (in_set[u]) {
          for (const petri::ProbEdge& e : g.deterministics(u)[0].edges)
            at[e.target][s] += omega[s][u] * e.prob;
          c[s][u] = integral[s][u];
        } else {
          at[u][s] += omega[s][u];
        }
      }
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (!g.deterministics(s).empty()) continue;
    Real exit = 0.0L;
    for (const petri::RateEdge& e : g.exponential_edges(s)) exit += e.rate;
    for (const petri::RateEdge& e : g.exponential_edges(s))
      at[e.target][s] += e.rate / exit;
    c[s][s] = 1.0L / exit;
  }
  for (std::size_t s = 0; s < n; ++s) at[s][s] -= 1.0L;
  const RVector nu = stationary(std::move(at));
  RVector pi(n, 0.0L);
  Real total = 0.0L;
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t u = 0; u < n; ++u) pi[u] += nu[s] * c[s][u];
  for (const Real x : pi) total += x;
  for (Real& x : pi) x /= total;
  return pi;
}

/// E[R] of the reference distribution under the analyzer's default reward
/// model: the paper-verbatim convention, rewards on operational states only.
inline Real expected_reliability(const core::SystemParameters& params) {
  const auto structure = core::staged_structure(params, /*use_cache=*/false);
  const auto table = core::staged_reward_table(
      params, core::RewardConvention::kPaperVerbatim, *structure,
      /*use_cache=*/false);
  const RVector pi = stationary_distribution(structure->graph);
  Real total = 0.0L;
  for (std::size_t s = 0; s < pi.size(); ++s) {
    const core::StructureArtifact::StateClass& sc = structure->state_class[s];
    if (sc.down == 0 && sc.voter_up)
      total += pi[s] * (*table)[structure->class_of_state[s]];
  }
  return total;
}

}  // namespace nvp::reference
