#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace nvp::fault {

/// Code locations that can be made to fail on demand. Each site guards the
/// entry of one failure-prone operation; when the injector fires there, the
/// operation fails exactly the way its real failure mode would (a singular
/// pivot, a non-converged Krylov solve, a cache miss, ...), so the fallback
/// chains and error envelopes are exercised end to end without crafting
/// pathological inputs.
enum class Site : std::size_t {
  kLuPivot,         ///< linalg LU factorization: forced singular pivot
  kGmres,           ///< linalg GMRES: forced non-convergence
  kPowerIteration,  ///< linalg power iteration: forced non-convergence
  kUniformization,  ///< markov transient pairs: forced series failure
  kCache,           ///< runtime LRU cache: forced lookup miss
  kPool,            ///< runtime thread pool: forced task-dispatch failure,
                    ///< one decision per parallel_for on the caller
  kAlloc,           ///< markov dense assembly: forced allocation failure
  kMatrixFree,      ///< markov matrix-free solve: forced operator failure
  kStoreRead,       ///< persistent store read: forced (counted) miss
  kStoreWrite,      ///< persistent store write: forced write failure
};
inline constexpr std::size_t kSiteCount = 10;

/// "lu" / "gmres" / "power" / "uniformization" / "cache" / "pool" / "alloc"
/// / "mfree" / "store-read" / "store-write".
const char* to_string(Site site);
std::optional<Site> parse_site(std::string_view name);

/// Deterministic fault injector. Disarmed (every decision false, one relaxed
/// atomic load) unless configured programmatically or through the
/// NVP_FAULT_INJECT environment variable, read once on first global()
/// access. Spec grammar, comma-separated per site:
///
///   NVP_FAULT_INJECT=<site>:<rate>[:<seed>][,<site>:<rate>[:<seed>]...]
///
/// e.g. "gmres:1.0:7" (every GMRES call fails, decision stream seeded with
/// 7) or "cache:0.25:42,lu:0.01:9". Decisions are deterministic: the k-th
/// decision at a site hashes (seed, k) through util::substream_seed, so a
/// run with the same spec and the same per-site decision order reproduces
/// the same fault pattern regardless of wall-clock or PRNG state elsewhere.
/// (Under the thread pool the *assignment* of decisions to loop indices can
/// vary with the schedule; rates 0.0 and 1.0 are schedule-independent. The
/// `pool` site itself draws once per parallel_for, on the calling thread.)
///
/// Every fired decision increments the obs counter `fault.injected.<site>`.
class Injector {
 public:
  /// Process-wide instance, armed from NVP_FAULT_INJECT on first access.
  static Injector& global();

  /// Parses a spec string and arms the named sites. Returns false and sets
  /// `*error` (when non-null) on malformed input, leaving the injector
  /// unchanged.
  bool configure(std::string_view spec, std::string* error = nullptr);

  /// Arms one site. `rate` in [0, 1]; 0 disarms the site.
  void set(Site site, double rate, std::uint64_t seed);

  /// Disarms every site and resets the decision counters (tests).
  void reset();

  /// True when any site is armed.
  bool active() const noexcept;

  double rate(Site site) const noexcept;

  /// Draws the next decision for the site: true = fail the operation here.
  bool fire(Site site) noexcept;

  /// Total decisions drawn / faults fired at the site since the last reset.
  std::uint64_t decisions(Site site) const noexcept;
  std::uint64_t fired(Site site) const noexcept;

 private:
  Injector();

  struct SiteState {
    std::atomic<double> rate{0.0};
    std::atomic<std::uint64_t> seed{0};
    std::atomic<std::uint64_t> counter{0};  ///< decisions drawn
    std::atomic<std::uint64_t> fired{0};
  };
  std::array<SiteState, kSiteCount> sites_;
  std::atomic<bool> any_{false};
};

/// Convenience for injection sites: Injector::global().fire(site).
inline bool fire(Site site) noexcept { return Injector::global().fire(site); }

}  // namespace nvp::fault
