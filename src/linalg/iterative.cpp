#include "src/linalg/iterative.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "src/fault/injector.hpp"
#include "src/util/contracts.hpp"

namespace nvp::linalg {

namespace {

/// Iteration-boundary deadline check shared by the iterative solvers: zero
/// bound = never expires. The steady_clock read costs ~20ns against a
/// sparse matvec of at least microseconds, so checking every iteration is
/// free.
class Deadline {
 public:
  explicit Deadline(double seconds)
      : bounded_(seconds > 0.0),
        expiry_(std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds > 0.0 ? seconds
                                                                : 0.0))) {}

  bool expired() const {
    return bounded_ && std::chrono::steady_clock::now() >= expiry_;
  }

 private:
  bool bounded_;
  std::chrono::steady_clock::time_point expiry_;
};

}  // namespace

std::optional<Ilu0> Ilu0::factor(const SparseMatrixCsr& a) {
  NVP_EXPECTS(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Ilu0 f;
  f.row_ptr_.assign(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) f.row_ptr_[r + 1] = a.row_end(r);
  f.col_idx_.reserve(a.nonzeros());
  f.values_.reserve(a.nonzeros());
  for (std::size_t k = 0; k < a.nonzeros(); ++k) {
    f.col_idx_.push_back(a.col_index(k));
    f.values_.push_back(a.value(k));
  }
  f.diag_pos_.assign(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    bool found = false;
    for (std::size_t k = f.row_ptr_[r]; k < f.row_ptr_[r + 1]; ++k) {
      if (f.col_idx_[k] == r) {
        f.diag_pos_[r] = k;
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;  // structurally missing pivot
  }

  // IKJ variant on the fixed pattern: for each row i, eliminate its
  // below-diagonal entries with the already-factored rows above; updates
  // only touch positions that exist in row i (zero fill-in).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ki = f.row_ptr_[i]; ki < f.row_ptr_[i + 1]; ++ki) {
      const std::size_t k = f.col_idx_[ki];
      if (k >= i) break;  // columns are sorted; L part exhausted
      const double pivot = f.values_[f.diag_pos_[k]];
      if (pivot == 0.0) return std::nullopt;
      const double lik = f.values_[ki] / pivot;
      f.values_[ki] = lik;
      // Subtract lik * U-part of row k from row i (pattern intersection).
      std::size_t pi = ki + 1;
      for (std::size_t kk = f.diag_pos_[k] + 1; kk < f.row_ptr_[k + 1];
           ++kk) {
        const std::size_t j = f.col_idx_[kk];
        while (pi < f.row_ptr_[i + 1] && f.col_idx_[pi] < j) ++pi;
        if (pi == f.row_ptr_[i + 1]) break;
        if (f.col_idx_[pi] == j) f.values_[pi] -= lik * f.values_[kk];
      }
    }
    if (f.values_[f.diag_pos_[i]] == 0.0) return std::nullopt;
  }
  return f;
}

Vector Ilu0::apply(const Vector& v) const {
  const std::size_t n = rows();
  NVP_EXPECTS(v.size() == n);
  Vector z(v);
  // L y = v (unit lower triangular).
  for (std::size_t i = 0; i < n; ++i) {
    double acc = z[i];
    for (std::size_t k = row_ptr_[i]; k < diag_pos_[i]; ++k)
      acc -= values_[k] * z[col_idx_[k]];
    z[i] = acc;
  }
  // U z = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = z[ii];
    for (std::size_t k = diag_pos_[ii] + 1; k < row_ptr_[ii + 1]; ++k)
      acc -= values_[k] * z[col_idx_[k]];
    z[ii] = acc / values_[diag_pos_[ii]];
  }
  return z;
}

namespace {

/// The preconditioner actually used: ILU0 when requested and factorable,
/// else Jacobi (zero diagonals treated as 1), else identity.
struct Preconditioner {
  std::optional<Ilu0> ilu;
  Vector inv_diag;  // empty = identity

  static Preconditioner make(const SparseMatrixCsr& a,
                             PreconditionerKind kind) {
    Preconditioner m;
    if (kind == PreconditionerKind::kIlu0) {
      m.ilu = Ilu0::factor(a);
      if (m.ilu) return m;
      kind = PreconditionerKind::kJacobi;
    }
    if (kind == PreconditionerKind::kJacobi) {
      m.inv_diag = a.diagonal();
      for (double& d : m.inv_diag) d = d != 0.0 ? 1.0 / d : 1.0;
    }
    return m;
  }

  Vector apply(const Vector& v) const {
    if (ilu) return ilu->apply(v);
    if (inv_diag.empty()) return v;
    Vector z(v);
    for (std::size_t i = 0; i < z.size(); ++i) z[i] *= inv_diag[i];
    return z;
  }
};

/// The restarted-GMRES body, shared by the CSR and matrix-free entry points:
/// templated on the matvec (y = A x) and the preconditioner application so
/// the CSR instantiation compiles to exactly the code it was before the
/// operator seam existed (bit-identical results). The first cycle starts
/// from x = 0.
template <typename Matvec, typename Precond>
IterativeResult gmres_core(std::size_t n, const Matvec& matvec,
                           const Precond& precond, const Vector& b,
                           const GmresOptions& opts) {
  NVP_EXPECTS(b.size() == n);
  NVP_EXPECTS(opts.restart >= 1);
  const std::size_t m = opts.restart;

  IterativeResult res;
  res.x.assign(n, 0.0);
  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    res.converged = true;
    return res;
  }
  if (fault::fire(fault::Site::kGmres)) {
    // Injected non-convergence: report exactly what a stalled Krylov solve
    // reports so the caller's fallback path is the one exercised.
    res.residual = std::numeric_limits<double>::infinity();
    return res;
  }
  const Deadline deadline(opts.deadline_seconds);

  // Arnoldi basis V, preconditioned basis Z (flexible-GMRES storage so the
  // update x += Z y needs no extra preconditioner applications), Hessenberg
  // columns h, and the Givens-rotated residual g.
  std::vector<Vector> v(m + 1), z(m);
  std::vector<Vector> h(m, Vector(m + 1, 0.0));
  Vector cs(m, 0.0), sn(m, 0.0), g(m + 1, 0.0);

  double prev_cycle_residual = std::numeric_limits<double>::infinity();
  while (res.iterations < opts.max_iterations) {
    if (deadline.expired()) {
      res.deadline_exceeded = true;
      break;
    }
    Vector r = matvec(res.x);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
    const double beta = norm2(r);
    res.residual = beta / bnorm;
    if (res.residual <= opts.tolerance) {
      res.converged = true;
      return res;
    }
    // Stagnation across a full cycle: hand over to the caller's fallback.
    if (!(beta < prev_cycle_residual * 0.9)) break;
    prev_cycle_residual = beta;

    v[0] = r;
    for (double& x : v[0]) x /= beta;
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    std::size_t j = 0;
    bool breakdown = false;
    for (; j < m && res.iterations < opts.max_iterations; ++j) {
      if (deadline.expired()) {
        res.deadline_exceeded = true;
        break;
      }
      ++res.iterations;
      z[j] = precond(v[j]);
      Vector w = matvec(z[j]);
      for (std::size_t i = 0; i <= j; ++i) {  // modified Gram-Schmidt
        const double hij = dot(w, v[i]);
        h[j][i] = hij;
        for (std::size_t t = 0; t < n; ++t) w[t] -= hij * v[i][t];
      }
      const double hnext = norm2(w);
      h[j][j + 1] = hnext;
      for (std::size_t i = 0; i < j; ++i) {  // apply stored rotations
        const double tmp = cs[i] * h[j][i] + sn[i] * h[j][i + 1];
        h[j][i + 1] = -sn[i] * h[j][i] + cs[i] * h[j][i + 1];
        h[j][i] = tmp;
      }
      const double denom = std::hypot(h[j][j], h[j][j + 1]);
      if (denom == 0.0) {
        breakdown = true;
        ++j;
        break;
      }
      cs[j] = h[j][j] / denom;
      sn[j] = h[j][j + 1] / denom;
      h[j][j] = denom;
      h[j][j + 1] = 0.0;
      g[j + 1] = -sn[j] * g[j];
      g[j] *= cs[j];
      if (hnext > 0.0) {
        v[j + 1] = std::move(w);
        for (double& x : v[j + 1]) x /= hnext;
      } else {
        breakdown = true;  // invariant subspace reached: solution is exact
        ++j;
        break;
      }
      if (std::fabs(g[j + 1]) / bnorm <= opts.tolerance) {
        ++j;
        break;
      }
    }

    // Back-substitute H y = g and accumulate x += Z y.
    Vector y(j, 0.0);
    for (std::size_t ii = j; ii-- > 0;) {
      double acc = g[ii];
      for (std::size_t k = ii + 1; k < j; ++k) acc -= h[k][ii] * y[k];
      const double diag = h[ii][ii];
      y[ii] = diag != 0.0 ? acc / diag : 0.0;
    }
    for (std::size_t k = 0; k < j; ++k)
      for (std::size_t t = 0; t < n; ++t) res.x[t] += y[k] * z[k][t];
    if (breakdown) {
      prev_cycle_residual = std::numeric_limits<double>::infinity();
      Vector check = matvec(res.x);
      double num = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        num += (b[i] - check[i]) * (b[i] - check[i]);
      res.residual = std::sqrt(num) / bnorm;
      res.converged = res.residual <= opts.tolerance;
      if (res.converged) return res;
      break;
    }
  }

  Vector check = matvec(res.x);
  double num = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    num += (b[i] - check[i]) * (b[i] - check[i]);
  res.residual = std::sqrt(num) / bnorm;
  res.converged = res.residual <= opts.tolerance;
  return res;
}

}  // namespace

IterativeResult gmres(const SparseMatrixCsr& a, const Vector& b,
                      const GmresOptions& opts) {
  NVP_EXPECTS(a.rows() == a.cols());
  NVP_EXPECTS(b.size() == a.rows());
  const Preconditioner precond = Preconditioner::make(a, opts.preconditioner);
  return gmres_core(
      a.rows(), [&](const Vector& v) { return a.multiply(v); },
      [&](const Vector& v) { return precond.apply(v); }, b, opts);
}

IterativeResult gmres(const LinearOperator& a, const Vector& b,
                      const GmresOptions& opts) {
  NVP_EXPECTS(a.rows() == a.cols());
  NVP_EXPECTS(b.size() == a.rows());
  return gmres_core(
      a.rows(), [&](const Vector& v) { return a.apply(v); },
      [](const Vector& v) { return v; }, b, opts);
}

namespace {

/// Power-iteration body shared by the matrix and matrix-free entry points:
/// `step` computes the left action x -> x^T P; the iteration starts from the
/// uniform distribution.
template <typename Step>
IterativeResult stationary_core(std::size_t n, const Step& step,
                                const IterativeOptions& opts) {
  NVP_EXPECTS(n > 0);
  IterativeResult res;
  res.x.assign(n, 1.0 / static_cast<double>(n));
  if (fault::fire(fault::Site::kPowerIteration)) {
    res.residual = std::numeric_limits<double>::infinity();
    return res;
  }
  const Deadline deadline(opts.deadline_seconds);
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    if (deadline.expired()) {
      res.deadline_exceeded = true;
      break;
    }
    Vector next = step(res.x);
    normalize_l1(next);
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      delta = std::max(delta, std::fabs(next[i] - res.x[i]));
    res.x = std::move(next);
    res.iterations = it + 1;
    res.residual = delta;
    if (delta < opts.tolerance) {
      res.converged = true;
      break;
    }
  }
  return res;
}

template <typename Matrix>
IterativeResult stationary_impl(const Matrix& p,
                                const IterativeOptions& opts) {
  NVP_EXPECTS(p.rows() == p.cols());
  return stationary_core(
      p.rows(), [&](const Vector& x) { return p.left_multiply(x); }, opts);
}

}  // namespace

IterativeResult stationary_power_iteration(const SparseMatrixCsr& p,
                                           const IterativeOptions& opts) {
  return stationary_impl(p, opts);
}

IterativeResult stationary_power_iteration(const DenseMatrix& p,
                                           const IterativeOptions& opts) {
  return stationary_impl(p, opts);
}

IterativeResult stationary_power_iteration(const LinearOperator& p_left,
                                           const IterativeOptions& opts) {
  NVP_EXPECTS(p_left.rows() == p_left.cols());
  return stationary_core(
      p_left.rows(), [&](const Vector& x) { return p_left.apply(x); }, opts);
}

}  // namespace nvp::linalg
