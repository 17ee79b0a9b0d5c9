#include "src/markov/matrix_free.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/markov/sparse_assembly.hpp"
#include "src/obs/trace.hpp"
#include "src/util/contracts.hpp"

namespace nvp::markov {

using linalg::SparseMatrixCsr;
using linalg::Triplet;
using linalg::Vector;

EmbeddedChainOperator::EmbeddedChainOperator(
    const petri::TangibleReachabilityGraph& g, const AssemblyPlan& plan,
    const char* backend)
    : n_(g.size()) {
  NVP_EXPECTS(plan.states == n_);

  // Exponential-only states: the usual competing-exponentials row, stored
  // explicitly (these rows really are sparse), plus 1/exit for conversion.
  std::vector<Triplet> et;
  inv_exit_.assign(n_, 0.0);
  for (std::size_t s = 0; s < n_; ++s) {
    if (!g.deterministics(s).empty()) continue;
    const double exit = g.exit_rate(s);
    NVP_ASSERT(exit > 0.0);
    for (const petri::RateEdge& e : g.exponential_edges(s))
      et.push_back({s, e.target, e.rate / exit});
    inv_exit_[s] = 1.0 / exit;
  }
  exp_rows_ = SparseMatrixCsr(n_, n_, std::move(et));

  // Deterministic groups: keep Q_d, its uniformization, and the firing
  // distribution F — never the propagated rows they would generate.
  groups_.reserve(plan.groups.size());
  for (const AssemblyPlan::Group& group : plan.groups) {
    const std::vector<std::size_t>& members = group.members;
    const double tau = g.deterministics(members[0])[0].delay;
    for (std::size_t s : members)
      NVP_ASSERT(g.deterministics(s)[0].delay == tau);

    SparseMatrixCsr q =
        group.subordinated.pour(sparse_subordinated_values(g, group.in_set));
    SparseUniformization uniformization = [&] {
      const obs::ScopedSpan uniform_span("markov.sparse_uniformization");
      return SparseUniformization(q, tau, backend);
    }();

    std::vector<Triplet> ft;
    for (std::size_t u : members)
      for (const petri::ProbEdge& e : g.deterministics(u)[0].edges)
        ft.push_back({u, e.target, e.prob});

    groups_.push_back(GroupData{&group, std::move(q),
                                SparseMatrixCsr(n_, n_, std::move(ft)),
                                std::move(uniformization)});
  }
}

Vector EmbeddedChainOperator::transfer_apply(const Vector& x) const {
  NVP_EXPECTS(x.size() == n_);
  // Exponential-only rows act like any sparse chain.
  Vector y = exp_rows_.left_multiply(x);
  // Each group: propagate the restriction of x through exp(Q_d tau) ONCE —
  // linearity of the series makes one vector propagation equivalent to the
  // weighted sum of all member rows. Mass still inside the enabling set at
  // tau exits through the firing distribution; absorbed mass regenerated in
  // place when it left the set.
  for (const GroupData& data : groups_) {
    Vector restricted(n_, 0.0);
    for (std::size_t s : data.group->members) restricted[s] = x[s];
    const Vector omega = data.uniformization.omega_row(restricted);
    const Vector fired = data.firing.left_multiply(omega);
    const std::vector<char>& in_set = data.group->in_set;
    for (std::size_t u = 0; u < n_; ++u) {
      y[u] += fired[u];
      if (!in_set[u]) y[u] += omega[u];
    }
  }
  return y;
}

Vector EmbeddedChainOperator::conversion_apply(const Vector& x) const {
  NVP_EXPECTS(x.size() == n_);
  Vector y(n_, 0.0);
  // Exponential-only states: expected sojourn 1/exit, spent in place.
  for (std::size_t s = 0; s < n_; ++s) y[s] = x[s] * inv_exit_[s];
  // Groups: sojourn credit accrues only while the deterministic transition
  // stays enabled; again one propagation per group by linearity.
  for (const GroupData& data : groups_) {
    Vector restricted(n_, 0.0);
    for (std::size_t s : data.group->members) restricted[s] = x[s];
    const TransientRowPair pair = data.uniformization.row_pair(restricted);
    const std::vector<char>& in_set = data.group->in_set;
    for (std::size_t u = 0; u < n_; ++u)
      if (in_set[u]) y[u] += pair.sojourn[u];
  }
  return y;
}

std::size_t EmbeddedChainOperator::stored_nonzeros() const {
  std::size_t nnz = exp_rows_.nonzeros();
  for (const GroupData& data : groups_)
    nnz += data.subordinated.nonzeros() + data.firing.nonzeros();
  return nnz;
}

void BalanceOperator::apply_into(const linalg::Vector& x,
                                 linalg::Vector& y) const {
  const std::size_t n = chain_->states();
  NVP_EXPECTS(x.size() == n);
  NVP_EXPECTS(&x != &y);
  y = chain_->transfer_apply(x);
  double total = 0.0;
  for (std::size_t t = 0; t < n; ++t) total += x[t];
  for (std::size_t t = 0; t + 1 < n; ++t) y[t] -= x[t];
  y[n - 1] = total;
}

}  // namespace nvp::markov
