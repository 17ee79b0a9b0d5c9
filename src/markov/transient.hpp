#pragma once

#include "src/linalg/dense_matrix.hpp"
#include "src/linalg/poisson.hpp"
#include "src/linalg/sparse_matrix.hpp"

namespace nvp::markov {

/// exp(Q * tau) for a CTMC generator Q (absorbing all-zero rows are fine):
/// uniformization on a small base step, then one squaring per doubling, so
/// the cost stays O(n^3 log(Lambda tau)) for stiff horizons. Uniformizes the
/// generator in place: a caller that moves it in holds at most two n x n
/// matrices during the call, the result and one scratch buffer.
linalg::DenseMatrix matrix_exponential(linalg::DenseMatrix generator,
                                       double tau);

/// Transient distribution pi(t) = pi0 * exp(Q t) by vector uniformization
/// (cheaper than the full matrix when only one initial vector is needed).
linalg::Vector ctmc_transient(const linalg::DenseMatrix& generator,
                              const linalg::Vector& pi0, double t);

/// Expected total time spent in each state over [0, t] starting from pi0:
/// L(t) = pi0 * \int_0^t exp(Q t) dt.
linalg::Vector ctmc_accumulated_sojourn(const linalg::DenseMatrix& generator,
                                        const linalg::Vector& pi0, double t);

/// One initial distribution propagated to the horizon:
///   omega   = pi0 * exp(Q tau)
///   sojourn = pi0 * \int_0^tau exp(Q t) dt
struct TransientRowPair {
  linalg::Vector omega;
  linalg::Vector sojourn;
};

/// Sparse vector uniformization at a fixed horizon. Uniformizes the
/// generator once (P = I + Q / lambda, truncated Poisson weights at
/// `epsilon` tail mass) and then answers per-initial-vector transient
/// queries in O(truncation * nnz) each — the sparse counterpart of
/// matrix_exponential, which materializes the full n x n exponential.
/// The matrix-free MRGP operator propagates one vector per deterministic
/// group through it; queries are independent, so callers may fan them out
/// in parallel (the object is immutable after construction). `backend`
/// labels a construction failure with the solver backend that asked for
/// the propagator ("sparse" for the CSR transient queries, "mfree" or
/// "dense" for the embedded-chain operator).
class SparseUniformization {
 public:
  SparseUniformization(const linalg::SparseMatrixCsr& generator, double tau,
                       const char* backend = "sparse",
                       double epsilon = 1e-16);

  /// omega/sojourn rows for the point-mass initial vector e_state.
  TransientRowPair row_pair(std::size_t state) const;

  /// omega/sojourn rows for an arbitrary initial distribution.
  TransientRowPair row_pair(const linalg::Vector& pi0) const;

  /// omega only: pi0 * exp(Q tau) without the sojourn accumulation — the
  /// inner loop of matrix-free embedded-chain actions, where the Krylov
  /// solver needs hundreds of propagations and the sojourn row just once.
  /// `pi0` may be any vector (Krylov iterates go negative); the series is
  /// linear in it.
  linalg::Vector omega_row(const linalg::Vector& pi0) const;

 private:
  linalg::SparseMatrixCsr p_u_;
  double lambda_ = 0.0;
  double tau_ = 0.0;
  std::size_t size_ = 0;
  linalg::PoissonTerms terms_;
  /// Per-term series weights and their suffix sums, precomputed so the
  /// propagation loop can stop at quasi-stationarity of the uniformized
  /// chain and add the remaining Poisson tail in closed form:
  ///   weights_[k]       = P(N >= k + 1) / lambda   (sojourn weight of term k)
  ///   pmf_suffix_[k]    = sum_{j >= k} pmf[j]
  ///   weight_suffix_[k] = sum_{j >= k} weights_[j]
  std::vector<double> weights_;
  std::vector<double> pmf_suffix_;
  std::vector<double> weight_suffix_;
};

/// Sparse overloads of the vector-uniformization transient solves.
linalg::Vector ctmc_transient(const linalg::SparseMatrixCsr& generator,
                              const linalg::Vector& pi0, double t);
linalg::Vector ctmc_accumulated_sojourn(
    const linalg::SparseMatrixCsr& generator, const linalg::Vector& pi0,
    double t);

}  // namespace nvp::markov
