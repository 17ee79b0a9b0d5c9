#include "src/markov/transient.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/fault/error.hpp"
#include "src/fault/injector.hpp"
#include "src/linalg/poisson.hpp"
#include "src/markov/ctmc.hpp"
#include "src/markov/sparse_assembly.hpp"
#include "src/util/contracts.hpp"

namespace nvp::markov {

using linalg::DenseMatrix;
using linalg::Vector;

namespace {

double uniformization_rate(const DenseMatrix& q) {
  double lambda = 0.0;
  for (std::size_t i = 0; i < q.rows(); ++i)
    lambda = std::max(lambda, -q(i, i));
  return lambda;
}

/// P_u = I + Q / lambda, overwriting Q.
void uniformize_in_place(DenseMatrix& q, double lambda) {
  for (std::size_t i = 0; i < q.rows(); ++i) {
    double* row = q.row_data(i);
    for (std::size_t j = 0; j < q.cols(); ++j) row[j] = row[j] / lambda;
    row[i] += 1.0;
  }
}

/// The nonzeros of a dense matrix, row by row in ascending column order.
linalg::SparseMatrixCsr nonzeros_of(const DenseMatrix& m) {
  std::vector<linalg::Triplet> triplets;
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (m(i, j) != 0.0) triplets.push_back({i, j, m(i, j)});
  return linalg::SparseMatrixCsr(m.rows(), m.cols(), std::move(triplets));
}

/// Base-step exponential via the uniformization series; requires lambda * t
/// small (<= ~1) so a short series reaches machine precision. `power` ends
/// up holding the last series term, a buffer the caller may reuse.
///
/// P_u has a handful of nonzeros per row, so each term multiplies by those
/// alone, row by row: power(i, j) gains power(i, k) * P_u(k, j) for k
/// ascending, the order of the dense i-k-j product. The products skipped
/// are +-0 and would not change the sum, so the terms are bit-identical to
/// full n^3 products.
DenseMatrix base_exponential(const linalg::SparseMatrixCsr& p_u,
                             double lambda, double t, DenseMatrix& power) {
  const std::size_t n = p_u.rows();
  const auto terms = linalg::poisson_terms(lambda * t, 1e-16);
  DenseMatrix omega(n, n, 0.0);
  power = DenseMatrix::identity(n);
  Vector next(n);
  for (std::size_t k = 0; k <= terms.truncation; ++k) {
    if (k > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        double* prow = power.row_data(i);
        std::fill(next.begin(), next.end(), 0.0);
        for (std::size_t m = 0; m < n; ++m) {
          const double pim = prow[m];
          if (pim == 0.0) continue;
          for (std::size_t e = p_u.row_begin(m); e < p_u.row_end(m); ++e)
            next[p_u.col_index(e)] += pim * p_u.value(e);
        }
        std::copy(next.begin(), next.end(), prow);
      }
    }
    const double pmf = terms.pmf[k];
    for (std::size_t i = 0; i < n; ++i) {
      const double* prow = power.row_data(i);
      double* orow = omega.row_data(i);
      for (std::size_t j = 0; j < n; ++j) orow[j] += pmf * prow[j];
    }
  }
  return omega;
}

/// pi0 exp(Q t) and pi0 \int_0^t exp(Q s) ds by one dense vector series.
TransientRowPair dense_row_pair(const DenseMatrix& generator, const Vector& pi0,
                                double t) {
  NVP_EXPECTS(generator.rows() == generator.cols());
  NVP_EXPECTS(pi0.size() == generator.rows());
  NVP_EXPECTS(t >= 0.0);
  TransientRowPair out{pi0, Vector(pi0.size(), 0.0)};
  const double lambda = uniformization_rate(generator);
  if (t == 0.0) return out;
  if (lambda == 0.0) {
    for (std::size_t i = 0; i < pi0.size(); ++i) out.sojourn[i] = pi0[i] * t;
    return out;
  }
  DenseMatrix p_u = generator;
  uniformize_in_place(p_u, lambda);
  const auto terms = linalg::poisson_terms(lambda * t, 1e-14);
  out.omega.assign(pi0.size(), 0.0);
  Vector v = pi0;
  double cdf = 0.0;
  for (std::size_t k = 0; k <= terms.truncation; ++k) {
    if (k > 0) v = p_u.left_multiply(v);
    cdf += terms.pmf[k];
    const double ccdf = std::max(0.0, 1.0 - cdf);
    for (std::size_t i = 0; i < v.size(); ++i) {
      out.omega[i] += terms.pmf[k] * v[i];
      out.sojourn[i] += (ccdf / lambda) * v[i];
    }
  }
  return out;
}

}  // namespace

DenseMatrix matrix_exponential(DenseMatrix generator, double tau) {
  NVP_EXPECTS(generator.rows() == generator.cols());
  NVP_EXPECTS(tau >= 0.0);
  const std::size_t n = generator.rows();
  if (fault::fire(fault::Site::kUniformization)) {
    fault::Context context;
    context.site = "markov.uniformization";
    context.backend = "dense";
    context.states = n;
    context.detail = "injected";
    throw fault::Error(fault::Category::kNoConvergence,
                       "matrix_exponential: injected series failure",
                       std::move(context));
  }
  const double lambda = uniformization_rate(generator);
  if (tau == 0.0 || lambda == 0.0) return DenseMatrix::identity(n);

  // Halve tau until lambda * t0 <= 1, run the series there, double back up.
  int doublings = 0;
  double t0 = tau;
  while (lambda * t0 > 1.0) {
    t0 /= 2.0;
    ++doublings;
  }
  // Only P_u's nonzeros survive the generator, so at most two n x n
  // matrices are live from here on: omega and one scratch.
  uniformize_in_place(generator, lambda);
  const linalg::SparseMatrixCsr p_u = nonzeros_of(generator);
  generator = DenseMatrix();
  DenseMatrix scratch;
  DenseMatrix omega = base_exponential(p_u, lambda, t0, scratch);
  for (int d = 0; d < doublings; ++d) {
    omega.multiply_into(omega, scratch);
    std::swap(omega, scratch);
  }
  NVP_ENSURES(omega.all_finite());
  return omega;
}

Vector ctmc_transient(const DenseMatrix& generator, const Vector& pi0,
                      double t) {
  return dense_row_pair(generator, pi0, t).omega;
}

Vector ctmc_accumulated_sojourn(const DenseMatrix& generator,
                                const Vector& pi0, double t) {
  return dense_row_pair(generator, pi0, t).sojourn;
}

SparseUniformization::SparseUniformization(
    const linalg::SparseMatrixCsr& generator, double tau, const char* backend,
    double epsilon)
    : tau_(tau), size_(generator.rows()) {
  NVP_EXPECTS(generator.rows() == generator.cols());
  NVP_EXPECTS(tau >= 0.0);
  if (fault::fire(fault::Site::kUniformization)) {
    fault::Context context;
    context.site = "markov.sparse_uniformization";
    context.backend = backend;
    context.states = size_;
    context.detail = "injected";
    throw fault::Error(fault::Category::kNoConvergence,
                       "SparseUniformization: injected series failure",
                       std::move(context));
  }
  lambda_ = sparse_uniformization_rate(generator);
  if (lambda_ > 0.0 && tau > 0.0) {
    p_u_ = sparse_uniformized_dtmc(generator, lambda_);
    terms_ = linalg::poisson_terms(lambda_ * tau, epsilon);
    const std::size_t count = terms_.truncation + 1;
    weights_.resize(count);
    double cdf = 0.0;
    for (std::size_t k = 0; k < count; ++k) {
      cdf += terms_.pmf[k];
      weights_[k] = std::max(0.0, 1.0 - cdf) / lambda_;
    }
    pmf_suffix_.assign(count + 1, 0.0);
    weight_suffix_.assign(count + 1, 0.0);
    for (std::size_t k = count; k-- > 0;) {
      pmf_suffix_[k] = pmf_suffix_[k + 1] + terms_.pmf[k];
      weight_suffix_[k] = weight_suffix_[k + 1] + weights_[k];
    }
  }
}

TransientRowPair SparseUniformization::row_pair(std::size_t state) const {
  NVP_EXPECTS(state < size_);
  Vector pi0(size_, 0.0);
  pi0[state] = 1.0;
  return row_pair(pi0);
}

TransientRowPair SparseUniformization::row_pair(const Vector& pi0) const {
  NVP_EXPECTS(pi0.size() == size_);
  TransientRowPair out;
  if (lambda_ == 0.0 || tau_ == 0.0) {
    // No activity (or zero horizon): exp(Q tau) = I.
    out.omega = pi0;
    out.sojourn = pi0;
    for (double& x : out.sojourn) x *= tau_;
    return out;
  }
  out.omega.assign(size_, 0.0);
  out.sojourn.assign(size_, 0.0);
  // Ping-pong buffers so the series loop does no per-term allocation. After
  // each swap `next` holds the previous iterate, which doubles as the
  // quasi-stationarity test vector.
  Vector v = pi0;
  Vector next(size_, 0.0);
  for (std::size_t k = 0; k <= terms_.truncation; ++k) {
    if (k > 0) {
      p_u_.left_multiply_into(v, next);
      v.swap(next);
      // Once the uniformized chain has converged, every later term
      // contributes the same vector: add the whole Poisson tail in closed
      // form and stop. The per-entry drift below 1e-16 keeps the summed
      // truncation error well under the backends' 1e-10 agreement budget.
      // Tested every 16th term so the scan stays amortized against the
      // sparse multiply.
      double drift = 1.0;
      if (k % 16 == 0) {
        drift = 0.0;
        for (std::size_t i = 0; i < size_; ++i)
          drift = std::max(drift, std::fabs(v[i] - next[i]));
      }
      if (drift <= 1e-16) {
        const double pmf_tail = pmf_suffix_[k];
        const double weight_tail = weight_suffix_[k];
        for (std::size_t i = 0; i < size_; ++i) {
          const double vi = v[i];
          if (vi == 0.0) continue;
          out.omega[i] += pmf_tail * vi;
          out.sojourn[i] += weight_tail * vi;
        }
        return out;
      }
    }
    const double pmf = terms_.pmf[k];
    const double weight = weights_[k];
    for (std::size_t i = 0; i < size_; ++i) {
      const double vi = v[i];
      if (vi == 0.0) continue;  // mass spreads gradually; early terms are sparse
      out.omega[i] += pmf * vi;
      out.sojourn[i] += weight * vi;
    }
  }
  return out;
}

Vector SparseUniformization::omega_row(const Vector& pi0) const {
  NVP_EXPECTS(pi0.size() == size_);
  if (lambda_ == 0.0 || tau_ == 0.0) return pi0;  // exp(Q tau) = I
  Vector omega(size_, 0.0);
  // Same ping-pong series as row_pair, minus the sojourn accumulation (see
  // there for the quasi-stationarity early exit).
  Vector v = pi0;
  Vector next(size_, 0.0);
  for (std::size_t k = 0; k <= terms_.truncation; ++k) {
    if (k > 0) {
      p_u_.left_multiply_into(v, next);
      v.swap(next);
      double drift = 1.0;
      if (k % 16 == 0) {
        drift = 0.0;
        for (std::size_t i = 0; i < size_; ++i)
          drift = std::max(drift, std::fabs(v[i] - next[i]));
      }
      if (drift <= 1e-16) {
        const double pmf_tail = pmf_suffix_[k];
        for (std::size_t i = 0; i < size_; ++i) {
          const double vi = v[i];
          if (vi == 0.0) continue;
          omega[i] += pmf_tail * vi;
        }
        return omega;
      }
    }
    const double pmf = terms_.pmf[k];
    for (std::size_t i = 0; i < size_; ++i) {
      const double vi = v[i];
      if (vi == 0.0) continue;
      omega[i] += pmf * vi;
    }
  }
  return omega;
}

Vector ctmc_transient(const linalg::SparseMatrixCsr& generator,
                      const Vector& pi0, double t) {
  return SparseUniformization(generator, t, "sparse", 1e-14)
      .row_pair(pi0)
      .omega;
}

Vector ctmc_accumulated_sojourn(const linalg::SparseMatrixCsr& generator,
                                const Vector& pi0, double t) {
  return SparseUniformization(generator, t, "sparse", 1e-14)
      .row_pair(pi0)
      .sojourn;
}

}  // namespace nvp::markov
