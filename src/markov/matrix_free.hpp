#pragma once

#include <vector>

#include "src/linalg/operator.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/markov/transient.hpp"
#include "src/petri/reachability.hpp"

namespace nvp::markov {

/// Matrix-free view of one DSPN's embedded Markov chain P and conversion
/// factors C. The explicit embedded chain is near-dense — every member of a
/// deterministic group reaches most of the enabling set within the delay —
/// but its *action* on a vector is cheap: by linearity,
///
///   (x^T P)|group part = (x restricted to the group) * exp(Q_d tau) * F
///
/// is ONE sparse-uniformization propagation per deterministic group per
/// matvec (O(truncation * nnz(Q_d))), not one per member row. F
/// redistributes mass that survived to tau through the deterministic firing
/// distribution; mass absorbed outside the enabling set stays put
/// (regeneration on entry). Exponential-only states contribute their
/// competing-exponentials row through a stored CSR.
///
/// The operator stores only the subordinated generators, the firing
/// distributions, and the exponential rows — O(edges) — so MRGP solves
/// scale to state counts where the explicit chain would not even fit.
///
/// Holds references to the graph and plan: both must outlive the operator
/// (the solver builds it per solve). `backend` labels a failure of the
/// operator's propagators with the solver backend that built it: "mfree",
/// or "dense" where the dense backend asks only for conversion_apply.
class EmbeddedChainOperator {
 public:
  EmbeddedChainOperator(const petri::TangibleReachabilityGraph& g,
                        const AssemblyPlan& plan,
                        const char* backend = "mfree");

  std::size_t states() const { return n_; }

  /// y = x^T P (left action of the embedded chain).
  linalg::Vector transfer_apply(const linalg::Vector& x) const;

  /// y = x^T C: expected-sojourn conversion of an embedded-chain stationary
  /// vector (C(s, j) = expected time in j during a period starting in s).
  linalg::Vector conversion_apply(const linalg::Vector& x) const;

  /// Stored nonzeros of the operator's matrices (exponential rows,
  /// subordinated generators, firing distributions) — the memory the
  /// explicit embedded chain never pays.
  std::size_t stored_nonzeros() const;

 private:
  struct GroupData {
    const AssemblyPlan::Group* group;       ///< members + in_set mask
    linalg::SparseMatrixCsr subordinated;   ///< Q_d (absorbing outside set)
    linalg::SparseMatrixCsr firing;         ///< rows of in-set states: firing probs
    SparseUniformization uniformization;    ///< exp(Q_d tau) propagator
  };

  std::size_t n_ = 0;
  linalg::SparseMatrixCsr exp_rows_;  ///< competing-exponentials rows
  linalg::Vector inv_exit_;           ///< 1/exit-rate on exponential-only states
  std::vector<GroupData> groups_;
};

/// The embedded chain's left action x -> x^T P as a LinearOperator — what
/// the matrix-free power-iteration stage iterates.
class TransferOperator final : public linalg::LinearOperator {
 public:
  explicit TransferOperator(const EmbeddedChainOperator& chain)
      : chain_(&chain) {}

  std::size_t rows() const override { return chain_->states(); }
  std::size_t cols() const override { return chain_->states(); }
  void apply_into(const linalg::Vector& x, linalg::Vector& y) const override {
    y = chain_->transfer_apply(x);
  }

 private:
  const EmbeddedChainOperator* chain_;
};

/// The normalized stationary balance system of the embedded chain as a
/// LinearOperator: row t < n-1 is the balance equation (x^T P)[t] - x[t]
/// and the last row is the normalization constraint sum(x) — exactly the
/// system dtmc_stationary assembles explicitly, so GMRES on this operator
/// with rhs e_{n-1} solves nu P = nu, sum(nu) = 1 without materializing P.
class BalanceOperator final : public linalg::LinearOperator {
 public:
  explicit BalanceOperator(const EmbeddedChainOperator& chain)
      : chain_(&chain) {}

  std::size_t rows() const override { return chain_->states(); }
  std::size_t cols() const override { return chain_->states(); }
  void apply_into(const linalg::Vector& x, linalg::Vector& y) const override;

 private:
  const EmbeddedChainOperator* chain_;
};

}  // namespace nvp::markov
