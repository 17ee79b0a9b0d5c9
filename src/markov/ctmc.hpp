#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "src/fault/error.hpp"
#include "src/linalg/dense_matrix.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/fallback.hpp"
#include "src/petri/reachability.hpp"

namespace nvp::markov {

/// Thrown when a chain does not satisfy a solver's requirements (absorbing
/// states in a steady-state analysis, several concurrently enabled
/// deterministic transitions, ...) or when every numerical method in a
/// fallback chain failed. A fault::Error whose category distinguishes the
/// two: kInvalidModel (the default — a retry cannot fix the input) vs
/// kNoConvergence / kDeadlineExceeded from the solve paths.
class SolverError : public fault::Error {
 public:
  explicit SolverError(const std::string& what,
                       fault::Category category =
                           fault::Category::kInvalidModel,
                       fault::Context context = {})
      : fault::Error(category, what, std::move(context)) {}
};

/// Continuous-time Markov chain in dense-generator form. `generator(i, j)`
/// (i != j) is the rate from state i to j; diagonal entries make rows sum to
/// zero.
struct Ctmc {
  linalg::DenseMatrix generator;
  linalg::Vector initial;  // initial probability vector

  std::size_t size() const { return generator.rows(); }

  /// Extracts the CTMC of a reachability graph. Requires that no state
  /// enables a deterministic transition (use DspnSteadyStateSolver
  /// otherwise).
  static Ctmc from_graph(const petri::TangibleReachabilityGraph& g);
};

/// Matrix representation / algorithm family used by the stationary solvers:
///  * kDense      — materialized n x n matrices, LU and matrix-exponential
///    doubling (the original path; exact oracle for tests).
///  * kSparse     — a model class's sparse backend. For a pure CTMC: the
///    CSR generator straight from the reachability graph and a Krylov
///    (GMRES + ILU0, power-iteration fallback) stationary solve. For an
///    MRGP it names kMatrixFree (see dispatch() in dspn_solver.hpp).
///  * kMatrixFree — never assemble the embedded chain: Krylov solves over a
///    linalg::LinearOperator whose action runs one sparse-uniformization
///    propagation per deterministic group (see matrix_free.hpp). The MRGP
///    sparse backend; scales to 10^4-10^5 states. For a pure CTMC it names
///    kSparse.
///  * kAuto       — pick by model class: the state count for pure CTMCs,
///    a per-solve cost rule for MRGPs (see dispatch() in dspn_solver.hpp).
enum class SolverBackend { kAuto, kDense, kSparse, kMatrixFree };

/// "auto" / "dense" / "sparse" / "mfree".
const char* to_string(SolverBackend backend);

/// Inverse of to_string; nullopt on unknown names.
std::optional<SolverBackend> parse_backend(std::string_view name);

/// Stationary distribution of an irreducible CTMC from its sparse generator
/// (pi Q = 0, sum pi = 1): the transposed balance equations with the
/// normalization constraint replacing the last row — the Krylov counterpart
/// of ctmc_steady_state's direct LU — solved through the configurable
/// fallback chain (GMRES+ILU0 -> GMRES+Jacobi -> power iteration on the
/// uniformized chain -> dense LU oracle by default). Throws SolverError
/// with every attempted stage in the context when the chain is exhausted.
linalg::Vector ctmc_steady_state_sparse(
    const linalg::SparseMatrixCsr& generator,
    const FallbackOptions& fallback = {});

/// Stationary distribution pi of an irreducible CTMC (pi Q = 0, sum pi = 1)
/// by LU on the normalized balance equations; a singular system (a
/// reducible chain) falls back to power iteration on the uniformized chain.
/// Throws SolverError if that fallback does not converge.
linalg::Vector ctmc_steady_state(const linalg::DenseMatrix& generator);

}  // namespace nvp::markov
