#include "src/markov/erlangization.hpp"

#include <limits>
#include <utility>
#include <vector>

#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/ctmc.hpp"
#include "src/obs/trace.hpp"
#include "src/util/contracts.hpp"

namespace nvp::markov {

using linalg::SparseMatrixCsr;
using linalg::Triplet;
using linalg::Vector;

Vector erlangization_stationary(const petri::TangibleReachabilityGraph& g,
                                const AssemblyPlan& plan, std::size_t stages) {
  const std::size_t n = g.size();
  NVP_EXPECTS(n > 0);
  NVP_EXPECTS(plan.states == n);
  NVP_EXPECTS(stages >= 1);
  const obs::ScopedSpan span("markov.erlangization");

  // Which deterministic group (index into plan.groups) each state belongs
  // to; npos for exponential-only states, which get a single phase copy.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> group_of(n, kNone);
  for (std::size_t gi = 0; gi < plan.groups.size(); ++gi)
    for (std::size_t s : plan.groups[gi].members) group_of[s] = gi;

  std::vector<std::size_t> offset(n, 0);
  std::size_t total = 0;
  for (std::size_t s = 0; s < n; ++s) {
    offset[s] = total;
    total += group_of[s] == kNone ? 1 : stages;
  }

  // Expanded generator over (state, phase). Duplicate slots sum, so
  // self-loops cancel against their diagonal compensation exactly as in
  // the subordinated-generator assembly.
  std::vector<Triplet> qt;
  const auto edge = [&qt](std::size_t row, std::size_t col, double rate) {
    qt.push_back({row, col, rate});
    qt.push_back({row, row, -rate});
  };
  for (std::size_t s = 0; s < n; ++s) {
    if (group_of[s] == kNone) {
      const std::size_t row = offset[s];
      for (const petri::RateEdge& e : g.exponential_edges(s))
        edge(row, offset[e.target], e.rate);
      continue;
    }
    const AssemblyPlan::Group& group = plan.groups[group_of[s]];
    const double tau = g.deterministics(s)[0].delay;
    NVP_EXPECTS(tau > 0.0);
    const double clock = static_cast<double>(stages) / tau;
    for (std::size_t p = 0; p < stages; ++p) {
      const std::size_t row = offset[s] + p;
      for (const petri::RateEdge& e : g.exponential_edges(s)) {
        // Enabling memory: the phase survives moves within the enabling
        // set; leaving it (or entering another group) resets to phase 0.
        const std::size_t col = group.in_set[e.target]
                                    ? offset[e.target] + p
                                    : offset[e.target];
        edge(row, col, e.rate);
      }
      if (p + 1 < stages) {
        edge(row, row + 1, clock);
      } else {
        for (const petri::ProbEdge& e : g.deterministics(s)[0].edges)
          edge(row, offset[e.target], clock * e.prob);
      }
    }
  }

  const SparseMatrixCsr q(total, total, std::move(qt));
  const Vector expanded = ctmc_steady_state_sparse(q);

  Vector pi(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t copies = group_of[s] == kNone ? 1 : stages;
    for (std::size_t p = 0; p < copies; ++p) pi[s] += expanded[offset[s] + p];
  }
  return pi;
}

}  // namespace nvp::markov
