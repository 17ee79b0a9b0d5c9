#include "src/markov/dtmc.hpp"

#include <cmath>

#include "src/linalg/iterative.hpp"
#include "src/linalg/lu.hpp"
#include "src/markov/ctmc.hpp"
#include "src/util/contracts.hpp"

namespace nvp::markov {

using linalg::DenseMatrix;
using linalg::Vector;

Vector dtmc_stationary(const DenseMatrix& p) {
  NVP_EXPECTS(p.rows() == p.cols());
  const std::size_t n = p.rows();
  NVP_EXPECTS(n > 0);
  // Solve (P^T - I) nu = 0 with the last equation replaced by sum nu = 1.
  DenseMatrix a = p.transposed();
  for (std::size_t i = 0; i < n; ++i) a(i, i) -= 1.0;
  for (std::size_t c = 0; c < n; ++c) a(n - 1, c) = 1.0;
  Vector b(n, 0.0);
  b[n - 1] = 1.0;
  try {
    Vector nu = linalg::LuDecomposition(std::move(a)).solve(b);
    bool plausible = true;
    for (double x : nu)
      if (!std::isfinite(x) || x < -1e-8) plausible = false;
    if (plausible) {
      for (double& x : nu) x = std::max(x, 0.0);
      linalg::normalize_l1(nu);
      return nu;
    }
  } catch (const linalg::SingularMatrixError&) {
    // fall through to power iteration
  }
  auto res = linalg::stationary_power_iteration(p);
  if (!res.converged)
    throw SolverError("dtmc_stationary: power iteration stalled (residual " +
                      std::to_string(res.residual) + ")");
  return res.x;
}

double max_row_sum_error(const DenseMatrix& p) {
  double worst = 0.0;
  for (std::size_t i = 0; i < p.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < p.cols(); ++j) s += p(i, j);
    worst = std::max(worst, std::fabs(s - 1.0));
  }
  return worst;
}

}  // namespace nvp::markov
