#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/markov/ctmc.hpp"
#include "src/markov/fallback.hpp"

namespace nvp::markov {

/// The settable part of a stationary solve in one value type: the backend
/// choice and the retry/fallback chain. Everything else a solve uses (the
/// pure-CTMC dispatch threshold, the dense state cap, the GMRES controls,
/// the clamp) is a solver constant, the same on every path. Cache keys,
/// the nvpd coalescing key and the CLI all describe a solve with this one
/// canonical value.
///
/// kAuto picks per model class (see dispatch() in dspn_solver.hpp); a
/// forced `backend=` is the one override.
struct SolverConfig {
  /// Matrix representation / algorithm family (see SolverBackend).
  SolverBackend backend = SolverBackend::kAuto;
  /// Retry/fallback chain of the sparse and matrix-free stationary solves
  /// and its per-attempt deadline (see fallback.hpp). A chain that keeps
  /// the dense stage also retries a failed non-dense solve on the dense
  /// backend, up to 4096 states (see dispatch()).
  FallbackOptions fallback;

  /// Canonical FNV-1a hash over every field in schema order (tag
  /// "markov::SolverConfig/v3"). Two configs hash equal iff they solve
  /// identically, so cache keys and the nvpd coalescing key embed this one
  /// value instead of re-listing fields.
  std::uint64_t canonical_hash() const;

  /// Canonical spec string: parse(describe()) == *this for any config.
  std::string describe() const;

  /// Overlays a comma-separated spec onto this config. Grammar per entry:
  /// `key=value`, or a bare backend name (`auto|dense|sparse|mfree`) as
  /// shorthand for `backend=...`. Keys: backend, fallback (`+`-separated
  /// stage names), and attempt-deadline (finite seconds >= 0; 0 =
  /// unbounded). Throws std::invalid_argument on unknown keys or malformed
  /// values, leaving *this unchanged; a removed key throws with an error
  /// that names what replaced it.
  void apply(std::string_view spec);

  /// Default config with `spec` applied.
  static SolverConfig parse(std::string_view spec);
};

}  // namespace nvp::markov
