#pragma once

#include "src/linalg/dense_matrix.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/ctmc.hpp"
#include "src/markov/solver_config.hpp"
#include "src/petri/reachability.hpp"

namespace nvp::markov {

/// Rate-independent skeleton of the solver's matrix assembly for one
/// reachability-graph structure: the deterministic-group partition (which
/// states enable which deterministic transition) and the CSR slot patterns
/// of the sparse generators. Building it costs one pass over the edges plus
/// the pattern sorts; solving with a cached plan skips exactly that work.
/// A plan is valid for any graph repoured() from the structure it was built
/// on — the edge topology, and hence every pattern and group, is identical.
struct AssemblyPlan {
  std::size_t states = 0;
  bool has_deterministic = false;
  /// Pure-CTMC structures only: slot pattern of sparse_generator().
  linalg::CsrPattern generator;

  /// One deterministic transition and the states that enable it; all
  /// members share the subordinated generator, delay, and transient.
  struct Group {
    std::size_t transition = 0;
    std::vector<std::size_t> members;
    std::vector<char> in_set;  ///< membership mask over all states
    linalg::CsrPattern subordinated;
  };
  /// Ordered by deterministic transition index (the iteration order the
  /// fused solver used).
  std::vector<Group> groups;
};

/// Builds the assembly plan of a graph's structure.
AssemblyPlan build_assembly_plan(const petri::TangibleReachabilityGraph& g);

/// Why a solve ran on its backend.
enum class DispatchReason {
  kForced,    ///< the config names a backend (`backend=`)
  kCtmcSize,  ///< kAuto, pure CTMC: the 128-state threshold
  kCost,      ///< kAuto, MRGP: the series-terms cost rule
};

/// "forced", "ctmc-size" or "cost".
const char* to_string(DispatchReason reason);

/// One dispatch decision and the inputs it was made from.
struct Dispatch {
  SolverBackend backend = SolverBackend::kDense;
  DispatchReason reason = DispatchReason::kForced;
  /// sum over deterministic groups g of lambda_g tau_g: the series terms one
  /// matrix-free propagation takes (0 for a pure CTMC).
  double series_terms = 0.0;
  /// Tangible states n.
  std::size_t states = 0;
};

/// The backend a solve runs on (never kAuto). Each model class has two
/// backends: dense, and a sparse one — kSparse (CSR + Krylov) for a pure
/// CTMC, kMatrixFree (the embedded-chain operator) for an MRGP. A forced
/// `dense` picks dense; a forced `sparse` or `mfree` picks the class's
/// sparse backend, so the result names the code that ran. kAuto picks the
/// sparse backend at/above 128 states for pure CTMCs (their generators are
/// O(n) sparse) and dense below it. For MRGPs kAuto picks dense iff
/// series_terms >= kappa * n and n <= 4096, and the operator otherwise;
/// kappa is a constant calibrated in dspn_solver.cpp. The choice depends on
/// the model alone, never on thread counts. `series_terms` defaults to 0,
/// which routes every MRGP to the operator: pass series_terms(g, plan) when
/// the graph is known.
Dispatch dispatch(const SolverConfig& config, std::size_t states,
                  bool has_deterministic, double series_terms = 0.0);

/// dispatch(...).backend.
inline SolverBackend dispatch_backend(const SolverConfig& config,
                                      std::size_t states,
                                      bool has_deterministic,
                                      double series_terms = 0.0) {
  return dispatch(config, states, has_deterministic, series_terms).backend;
}

/// sum over the plan's deterministic groups of lambda_g tau_g, where
/// lambda_g = max_s -Q_g(s, s) is the uniformization rate of the group's
/// subordinated generator and tau_g its delay.
double series_terms(const petri::TangibleReachabilityGraph& g,
                    const AssemblyPlan& plan);

/// Result of a stationary DSPN analysis.
struct DspnSteadyStateResult {
  /// Stationary probability of each tangible marking.
  linalg::Vector probabilities;
  /// True if the model degenerated to a plain CTMC (no deterministic
  /// transition enabled anywhere).
  bool pure_ctmc = false;
  /// Number of tangible states.
  std::size_t states = 0;
  /// The backend that actually solved (never kAuto). Differs from
  /// dispatch.backend only when a failed solve was retried on dense.
  SolverBackend backend_used = SolverBackend::kDense;
  /// What dispatch chose, and why.
  Dispatch dispatch;
  /// Stored nonzeros of the solver's main matrix — the embedded chain (or
  /// exp(Q tau)) for the MRGP path, the generator for the pure-CTMC path.
  /// The dense backend reports its full n^2, so sparse-vs-dense memory is
  /// directly comparable.
  std::size_t matrix_nonzeros = 0;
};

/// Stationary solver for DSPNs under the classical restriction that at most
/// one deterministic transition is enabled in any tangible marking
/// (Ajmone Marsan & Chiola; Lindemann; German). Implements the method of the
/// embedded Markov chain over regeneration points:
///
///  * In a tangible marking without an enabled deterministic transition the
///    regeneration period is the (exponential) sojourn; the embedded-chain
///    row is the usual competing-exponentials distribution.
///  * In a marking that enables deterministic transition d (constant delay
///    tau, enabling-memory policy), the subordinated CTMC runs over the
///    exponential transitions for up to tau time units. States in which d is
///    no longer enabled are absorbing: entering one resets d's timer and is
///    itself a regeneration point. If the process survives in the enabling
///    set until tau, d fires and the marking switches according to the
///    (vanishing-eliminated) firing distribution.
///
/// The stationary distribution is the embedded chain's stationary vector
/// nu weighted by the expected sojourn (conversion) factors
/// C = \int_0^tau exp(Q_d t) dt; no backend forms C (see dspn_solver.cpp).
///
/// Nets with no deterministic transition are solved directly as CTMCs, so
/// this is the single entry point used by the reliability analyzer for both
/// paper models.
///
/// Two backends per model class implement the same mathematics
/// (Options::backend): the original dense path (LU + matrix-exponential
/// doubling, the oracle) for either class; the CSR generator with Krylov
/// stationary solves for a pure CTMC; and for an MRGP a matrix-free path
/// that never assembles the embedded chain (see matrix_free.hpp). kAuto
/// switches on the model class, the state count and, for MRGPs, the series
/// terms per state — see dispatch().
class DspnSteadyStateSolver {
 public:
  /// The settable solver options live in the shared markov::SolverConfig
  /// value type (one canonical hash for cache and coalescing keys); the
  /// alias keeps the historic DspnSteadyStateSolver::Options spelling
  /// working.
  using Options = SolverConfig;

  DspnSteadyStateSolver() = default;
  explicit DspnSteadyStateSolver(Options options) : options_(options) {}

  /// Computes the stationary distribution over tangible markings.
  /// Throws SolverError if a tangible marking enables two or more
  /// deterministic transitions, or if a state is absorbing.
  DspnSteadyStateResult solve(const petri::TangibleReachabilityGraph& g) const;

  /// Same computation with a prebuilt (typically cached) assembly plan for
  /// the graph's structure, skipping the group partition and the CSR
  /// pattern sorts. Bit-identical to solve(g); the plan must come from
  /// build_assembly_plan() on this graph or on any graph sharing its
  /// structure (repoured() copies).
  DspnSteadyStateResult solve(const petri::TangibleReachabilityGraph& g,
                              const AssemblyPlan& plan) const;

 private:
  Options options_{};
};

}  // namespace nvp::markov
