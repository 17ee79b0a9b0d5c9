#pragma once

#include "src/linalg/dense_matrix.hpp"

namespace nvp::markov {

/// Stationary distribution nu of a row-stochastic matrix P
/// (nu P = nu, sum nu = 1). Tries the direct linear system first and falls
/// back to power iteration when it is singular beyond the expected rank-1
/// deficiency. Throws SolverError if neither converges.
linalg::Vector dtmc_stationary(const linalg::DenseMatrix& p);

/// Verifies that each row of P sums to 1 within `tol`; returns the largest
/// deviation (useful for asserting EMC construction correctness).
double max_row_sum_error(const linalg::DenseMatrix& p);

}  // namespace nvp::markov
