#include "src/markov/absorption.hpp"

#include <limits>

#include "src/linalg/lu.hpp"
#include "src/markov/ctmc.hpp"
#include "src/markov/transient.hpp"
#include "src/util/contracts.hpp"

namespace nvp::markov {

using linalg::DenseMatrix;
using linalg::Vector;

namespace {

/// Indices of states that can reach the target set (graph search on the
/// reversed transition structure).
std::vector<bool> can_reach(const DenseMatrix& q,
                            const std::vector<bool>& target) {
  const std::size_t n = q.rows();
  std::vector<bool> reach = target;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (reach[i]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j && q(i, j) > 0.0 && reach[j]) {
          reach[i] = true;
          changed = true;
          break;
        }
      }
    }
  }
  return reach;
}

}  // namespace

AbsorptionResult mean_time_to_absorption(const DenseMatrix& generator,
                                         const std::vector<bool>& target) {
  const std::size_t n = generator.rows();
  NVP_EXPECTS(generator.cols() == n);
  NVP_EXPECTS(target.size() == n);
  bool any_target = false;
  for (bool t : target) any_target |= t;
  NVP_EXPECTS_MSG(any_target, "target set must be non-empty");

  const auto reachable = can_reach(generator, target);

  // A state has a finite expected hitting time only when absorption is
  // almost sure: it must not be able to reach a state from which the
  // target is unreachable.
  std::vector<bool> dead(n, false);
  for (std::size_t i = 0; i < n; ++i) dead[i] = !target[i] && !reachable[i];
  const auto uncertain = can_reach(generator, dead);

  std::vector<std::size_t> transient;
  for (std::size_t i = 0; i < n; ++i)
    if (!target[i] && reachable[i] && !uncertain[i])
      transient.push_back(i);

  AbsorptionResult result;
  result.expected_time.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    if (!target[i] && (!reachable[i] || uncertain[i]))
      result.expected_time[i] = std::numeric_limits<double>::infinity();
  if (transient.empty()) return result;

  // Solve Q_TT h = -1 (h = expected hitting times of transient states).
  // By construction, transient states only flow into other transient
  // states or the target.
  const std::size_t m = transient.size();
  DenseMatrix a(m, m, 0.0);
  Vector b(m, -1.0);
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t i = transient[r];
    for (std::size_t c = 0; c < m; ++c) a(r, c) = generator(i, transient[c]);
  }
  const Vector h = linalg::LuDecomposition(std::move(a)).solve(b);
  for (std::size_t r = 0; r < m; ++r)
    result.expected_time[transient[r]] = h[r];
  return result;
}

Vector absorption_probability_by(const DenseMatrix& generator,
                                 const std::vector<bool>& target,
                                 double t) {
  const std::size_t n = generator.rows();
  NVP_EXPECTS(generator.cols() == n);
  NVP_EXPECTS(target.size() == n);
  NVP_EXPECTS(t >= 0.0);

  // Make target states absorbing and propagate each unit vector; cheaper:
  // one matrix exponential and read columns. For moderate n the full
  // matrix is fine.
  DenseMatrix q = generator;
  for (std::size_t i = 0; i < n; ++i)
    if (target[i])
      for (std::size_t j = 0; j < n; ++j) q(i, j) = 0.0;

  const DenseMatrix omega = matrix_exponential(std::move(q), t);
  Vector out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double mass = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      if (target[j]) mass += omega(i, j);
    out[i] = mass;
  }
  return out;
}

}  // namespace nvp::markov
