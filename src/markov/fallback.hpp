#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/linalg/sparse_matrix.hpp"

namespace nvp::linalg {
class LinearOperator;
}

namespace nvp::markov {

/// One stage of the stationary-solve fallback chain, ordered from
/// cheapest/strongest to the exhaustive oracle:
///
///   gmres-ilu0 -> gmres-jacobi -> power -> dense
///
/// Each stage is attempted in chain order until one produces a plausible
/// distribution; a stage that stalls, exceeds its deadline, or throws is
/// recorded (obs counters + the aggregate error's causes) and the next
/// stage runs. `dense` densifies the balance system and LU-solves it — the
/// same arithmetic as the dense oracle backend, so a chain ending in
/// `dense` only fails on genuinely singular/invalid systems. `mfree` runs
/// unpreconditioned GMRES on the problem's LinearOperator (or on the
/// assembled balance matrix wrapped as one) — the stage matrix-free MRGP
/// solves start from, and a valid rung for explicit problems too.
enum class FallbackStage {
  kGmresIlu0,
  kGmresJacobi,
  kPowerIteration,
  kDenseLu,
  kMatrixFree,
};

/// "gmres-ilu0" / "gmres-jacobi" / "power" / "dense" / "mfree".
const char* to_string(FallbackStage stage);

/// Retry/fallback configuration of the sparse and matrix-free stationary
/// solves, set through SolverConfig (`fallback=` and `attempt-deadline=` in
/// a --solver-config spec). The default chain: GMRES+ILU0, GMRES+Jacobi,
/// power iteration, then the dense LU oracle. A matrix-free MRGP solve runs
/// only the operator-capable rungs of the chain (mfree, power), with mfree
/// leading; a chain that keeps `dense` also retries a failed non-dense
/// solve on the dense backend (see DspnSteadyStateSolver::solve).
struct FallbackOptions {
  std::vector<FallbackStage> stages = default_stages();
  /// Wall-clock bound per attempt in seconds; 0 = unbounded. Applied to the
  /// iterative stages (the dense LU oracle runs to completion).
  double attempt_deadline_seconds = 0.0;

  /// The full four-stage chain.
  static std::vector<FallbackStage> default_stages();
};

/// Parses a comma-separated chain spec, e.g. "gmres-ilu0,power,dense".
/// Throws std::invalid_argument on unknown stage names or an empty spec.
std::vector<FallbackStage> parse_fallback_stages(std::string_view spec);

/// Renders a chain back to its comma-separated spec form.
std::string to_string(const std::vector<FallbackStage>& stages);

/// A normalized stationary balance system for solve_stationary_chain():
/// `balance` x = `rhs` where the last balance row was replaced by the
/// normalization constraint (the system both the historic GMRES path and
/// the dense direct method solve). `stochastic` lazily builds the
/// row-stochastic matrix the power-iteration stage runs on — lazily,
/// because building it costs a matrix pass that the happy path never needs.
///
/// Matrix-free problems supply `balance_op` (the same balance system as an
/// operator) instead of `balance`, and `transfer_op` (left action
/// x -> x^T P) instead of `stochastic` for the power stage; stages that
/// need the assembled matrix (gmres-ilu0/gmres-jacobi/dense) then fail
/// over to the next rung instead of running.
struct StationaryProblem {
  const linalg::SparseMatrixCsr* balance = nullptr;
  const linalg::Vector* rhs = nullptr;
  std::function<linalg::SparseMatrixCsr()> stochastic;
  const linalg::LinearOperator* balance_op = nullptr;
  const linalg::LinearOperator* transfer_op = nullptr;
  std::size_t states = 0;
  const char* what = "stationary solve";  ///< label for spans and errors
};

/// Runs the fallback chain over the problem and returns the stationary
/// vector of the first stage that succeeds. Throws SolverError (category
/// kNoConvergence, or kDeadlineExceeded when every failure was the
/// deadline) with every attempted stage's failure in the context when the
/// chain is exhausted; the context names the backend the problem belongs
/// to: `mfree` for an operator-only problem, `sparse` for an assembled one.
/// Every Krylov stage runs with the linalg::GmresOptions defaults.
linalg::Vector solve_stationary_chain(const StationaryProblem& problem,
                                      const FallbackOptions& options);

}  // namespace nvp::markov
