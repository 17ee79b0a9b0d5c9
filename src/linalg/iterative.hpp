#pragma once

#include <optional>

#include "src/linalg/dense_matrix.hpp"
#include "src/linalg/operator.hpp"
#include "src/linalg/sparse_matrix.hpp"

namespace nvp::linalg {

/// Convergence controls shared by the iterative solvers.
struct IterativeOptions {
  std::size_t max_iterations = 100000;
  double tolerance = 1e-12;  // max-norm of successive-iterate difference
  /// Wall-clock bound in seconds; 0 = unbounded. A solve that overruns it
  /// stops at the next iteration boundary with `deadline_exceeded` set
  /// (and `converged` false), so a fallback chain can bound each attempt.
  double deadline_seconds = 0.0;
};

/// Result of an iterative solve.
struct IterativeResult {
  Vector x;
  std::size_t iterations = 0;
  double residual = 0.0;
  bool converged = false;
  bool deadline_exceeded = false;  ///< stopped by IterativeOptions deadline
};

/// Preconditioner applied inside gmres(). kIlu0 degrades to kJacobi when the
/// factorization hits a zero pivot, and kJacobi treats zero diagonal entries
/// as 1, so every choice is total.
enum class PreconditionerKind { kNone, kJacobi, kIlu0 };

/// Incomplete LU factorization with zero fill-in: L and U share A's sparsity
/// pattern exactly. Cheap (O(sum of row-length^2 overlaps)) and a strong
/// preconditioner for the generator/transition matrices of Markov chains,
/// which are diagonally dominated and mostly local.
class Ilu0 {
 public:
  /// Factors A's pattern. Returns std::nullopt when a structurally missing
  /// or numerically zero pivot makes the factorization undefined.
  static std::optional<Ilu0> factor(const SparseMatrixCsr& a);

  /// z = (L U)^{-1} v by forward then backward substitution.
  Vector apply(const Vector& v) const;

  std::size_t rows() const { return row_ptr_.size() - 1; }

 private:
  Ilu0() = default;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
  std::vector<std::size_t> diag_pos_;  // position of (i, i) in row i
};

/// Convergence controls for gmres(). The defaults target the stationary
/// solves of the sparse DSPN backend: near-machine-precision residuals so the
/// Krylov path agrees with the dense LU oracle to ~1e-12.
struct GmresOptions {
  std::size_t restart = 80;           ///< Krylov basis size per cycle
  std::size_t max_iterations = 5000;  ///< total Krylov steps across cycles
  double tolerance = 1e-14;           ///< relative residual ||b - Ax|| / ||b||
  PreconditionerKind preconditioner = PreconditionerKind::kIlu0;
  /// Wall-clock bound in seconds; 0 = unbounded (see IterativeOptions).
  double deadline_seconds = 0.0;
};

/// Restarted GMRES for sparse A x = b, right-preconditioned so the monitored
/// residual is the true residual of the original system. `converged` is set
/// from the final computed ||b - Ax|| / ||b||; callers with a robust fallback
/// (power iteration) should check it.
IterativeResult gmres(const SparseMatrixCsr& a, const Vector& b,
                      const GmresOptions& opts = {});

/// Matrix-free restarted GMRES: A is known only through its action y = A x,
/// so no entry-wise preconditioner can be built — `opts.preconditioner` is
/// ignored and the solve runs unpreconditioned.
IterativeResult gmres(const LinearOperator& a, const Vector& b,
                      const GmresOptions& opts = {});

/// Power iteration for the stationary distribution of a row-stochastic
/// matrix P (solves pi P = pi, pi >= 0, sum pi = 1). The matrix may be
/// reducible in theory; callers should pass an irreducible chain.
IterativeResult stationary_power_iteration(const SparseMatrixCsr& p,
                                           const IterativeOptions& opts = {});

/// Dense variant of stationary_power_iteration.
IterativeResult stationary_power_iteration(const DenseMatrix& p,
                                           const IterativeOptions& opts = {});

/// Matrix-free variant: `p_left` must implement the *left* action of the
/// chain, apply(x) = x^T P (the natural operation for probability-vector
/// propagation, matching what a transfer operator computes).
IterativeResult stationary_power_iteration(const LinearOperator& p_left,
                                           const IterativeOptions& opts = {});

}  // namespace nvp::linalg
