#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/markov/ctmc.hpp"
#include "src/markov/fallback.hpp"

namespace nvp::markov {

/// Every knob of the stationary solvers in one value type: backend choice
/// and the pure-CTMC dispatch threshold, the dense-CTMC method, clamping,
/// the Krylov (GMRES) controls, the Erlangization cross-check, and the
/// retry/fallback chain. Three PRs of backend/fallback/threshold options had
/// scattered these across DspnSteadyStateSolver::Options, FallbackOptions,
/// and ad-hoc GmresOptions defaults; consolidating them means cache keys,
/// the nvpd coalescing key, and the CLI all describe a solve with the same
/// canonical value.
///
/// MRGP solves under kAuto have no threshold knob: dispatch compares the
/// series terms of a matrix-free propagation against the state count (see
/// dispatch() in dspn_solver.hpp), and `backend=` is the one override.
struct SolverConfig {
  /// Matrix representation / algorithm family (see SolverBackend).
  SolverBackend backend = SolverBackend::kAuto;
  /// Stationary method of the dense pure-CTMC path.
  SteadyStateMethod ctmc_method = SteadyStateMethod::kDirect;
  /// Probabilities below this are clamped to zero before normalizing.
  double clamp_epsilon = 1e-15;
  /// kAuto picks kSparse at or above this many tangible states for
  /// pure-CTMC models. Below it, dense LU is faster (no Krylov setup) and
  /// byte-identical to the original solver, which keeps the paper
  /// configurations on the oracle path.
  std::size_t sparse_threshold = 128;
  /// Largest state count a dense solve may take on: kAuto never picks the
  /// dense MRGP backend above it, and when a non-dense backend fails
  /// outright and the fallback chain keeps the dense-LU stage, the solve is
  /// retried on the dense backend only up to this many states (a dense n^2
  /// rebuild at 10^5 states would turn a failed solve into a stuck one).
  std::size_t dense_retry_limit = 4096;
  /// Krylov controls of every GMRES stage (sparse and matrix-free). The
  /// defaults mirror linalg::GmresOptions so default-config chains are
  /// bit-identical to the pre-SolverConfig behavior.
  std::size_t gmres_restart = 80;
  std::size_t gmres_max_iterations = 5000;
  double gmres_tolerance = 1e-14;
  /// Erlang phases of the independent matrix-free cross-check: 0 disables
  /// it; k > 0 re-solves the MRGP as a phase-expanded CTMC (each
  /// deterministic delay tau approximated by an Erlang(k) clock at rate
  /// k/tau) after a matrix-free solve and records the deviation in the
  /// `markov.erlang.crosscheck_deviation` histogram. Diagnostic only — the
  /// Erlang approximation converges as k grows but never bit-matches.
  std::size_t erlang_stages = 0;
  /// Retry/fallback chain of the sparse and matrix-free stationary solves
  /// (see fallback.hpp). Also governs whole-solve degradation (see
  /// dense_retry_limit).
  FallbackOptions fallback;

  /// Canonical FNV-1a hash over every field in schema order (tag
  /// "markov::SolverConfig/v2"). Two configs hash equal iff they solve
  /// identically, so cache keys and the nvpd coalescing key embed this one
  /// value instead of re-listing fields.
  std::uint64_t canonical_hash() const;

  /// Canonical spec string: parse(describe()) == *this for any config.
  std::string describe() const;

  /// Overlays a comma-separated spec onto this config. Grammar per entry:
  /// `key=value`, or a bare backend name (`auto|dense|sparse|mfree`) as
  /// shorthand for `backend=...`. Keys: backend, ctmc
  /// (direct|gauss-seidel|power), clamp, sparse-threshold,
  /// dense-retry-limit, gmres-restart, gmres-max-iters, gmres-tol,
  /// erlang-stages, fallback (`+`-separated stage names), and
  /// attempt-deadline (seconds). Throws std::invalid_argument on unknown
  /// keys or malformed values, leaving *this unchanged; the removed keys
  /// warm-start, mfree-threshold and mrgp-sparse-threshold throw with an
  /// error that names what replaced them.
  void apply(std::string_view spec);

  /// Default config with `spec` applied.
  static SolverConfig parse(std::string_view spec);
};

/// The GMRES knobs of a config in the form solve_stationary_chain takes.
inline ChainKnobs chain_knobs(const SolverConfig& config) {
  ChainKnobs knobs;
  knobs.gmres_restart = config.gmres_restart;
  knobs.gmres_max_iterations = config.gmres_max_iterations;
  knobs.gmres_tolerance = config.gmres_tolerance;
  return knobs;
}

}  // namespace nvp::markov
