#include "src/markov/solver_config.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "src/runtime/fnv.hpp"

namespace nvp::markov {

namespace {

/// Shortest decimal string that strtod's back to exactly `v` (tries 15, 16,
/// then 17 significant digits), so describe() round-trips bit-for-bit.
std::string format_double(double v) {
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// attempt-deadline: a finite number of seconds >= 0 (0 = unbounded). A
/// negative or non-finite bound would run unbounded like 0 but hash to a
/// different key, so it is refused, and -0 is read as 0 for the same reason.
double parse_deadline(const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(v) || v < 0.0)
    throw std::invalid_argument("solver config: attempt-deadline='" + value +
                                "' is not a finite number of seconds >= 0");
  return v == 0.0 ? 0.0 : v;
}

/// What replaced a removed key, or nullptr for any other key.
const char* removed_key_replacement(std::string_view key) {
  if (key == "warm-start")
    return "matrix-free solves always start cold (the lumped warm start "
           "was slower than a cold solve)";
  if (key == "mfree-threshold")
    return "kAuto picks dense or mfree per MRGP solve from the series terms "
           "per state; force one with backend=dense|mfree";
  if (key == "mrgp-sparse-threshold")
    return "the explicit-sparse MRGP assembly is gone; backend=sparse solves "
           "an MRGP on the matrix-free operator";
  if (key == "ctmc")
    return "dense CTMC solves always use LU, with power iteration on a "
           "singular system";
  if (key == "clamp")
    return "stationary probabilities below 1e-15 are always clamped to zero";
  if (key == "sparse-threshold")
    return "kAuto solves a pure CTMC sparse from 128 states; force one with "
           "backend=dense|sparse";
  if (key == "dense-retry-limit")
    return "kAuto and the dense retry densify at most 4096 states; force a "
           "backend with backend=dense|sparse|mfree";
  if (key == "gmres-restart" || key == "gmres-max-iters" || key == "gmres-tol")
    return "GMRES always runs with restart 80, at most 5000 iterations and "
           "tolerance 1e-14; bound an attempt with attempt-deadline";
  if (key == "erlang-stages")
    return "the in-solve Erlang cross-check is gone; "
           "markov::erlangization_stationary computes the Erlang reference";
  return nullptr;
}

/// Fallback chains use '+' between stages inside a spec (the ',' separates
/// config entries); translate to the comma form parse_fallback_stages takes.
std::vector<FallbackStage> parse_plus_stages(const std::string& value) {
  std::string commas = value;
  for (char& c : commas)
    if (c == '+') c = ',';
  return parse_fallback_stages(commas);
}

std::string plus_stages(const std::vector<FallbackStage>& stages) {
  std::string out;
  for (const FallbackStage stage : stages) {
    if (!out.empty()) out += '+';
    out += to_string(stage);
  }
  return out;
}

}  // namespace

std::uint64_t SolverConfig::canonical_hash() const {
  runtime::Fnv1a h;
  h.str("markov::SolverConfig/v3");
  h.i32(static_cast<int>(backend));
  h.u64(fallback.stages.size());
  for (const FallbackStage stage : fallback.stages)
    h.i32(static_cast<int>(stage));
  h.f64(fallback.attempt_deadline_seconds);
  return h.digest();
}

std::string SolverConfig::describe() const {
  std::string out;
  out += "backend=";
  out += markov::to_string(backend);
  out += ",fallback=" + plus_stages(fallback.stages);
  out += ",attempt-deadline=" + format_double(fallback.attempt_deadline_seconds);
  return out;
}

void SolverConfig::apply(std::string_view spec) {
  SolverConfig next = *this;  // all-or-nothing: commit only if every entry parses
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string_view entry = spec.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    pos = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    if (entry.empty()) continue;

    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      // Bare token: backend shorthand, matching the historic --solver values.
      const auto backend_value = parse_backend(entry);
      if (!backend_value)
        throw std::invalid_argument(
            "solver config: '" + std::string(entry) +
            "' is neither key=value nor a backend (auto|dense|sparse|mfree)");
      next.backend = *backend_value;
      continue;
    }
    const std::string_view key = entry.substr(0, eq);
    const std::string value(entry.substr(eq + 1));
    if (key == "backend") {
      const auto backend_value = parse_backend(value);
      if (!backend_value)
        throw std::invalid_argument(
            "solver config: unknown backend '" + value +
            "' (expected auto|dense|sparse|mfree)");
      next.backend = *backend_value;
    } else if (key == "fallback") {
      next.fallback.stages = parse_plus_stages(value);
    } else if (key == "attempt-deadline") {
      next.fallback.attempt_deadline_seconds = parse_deadline(value);
    } else if (const char* replacement = removed_key_replacement(key)) {
      throw std::invalid_argument("solver config: '" + std::string(key) +
                                  "' was removed; " + replacement);
    } else {
      throw std::invalid_argument("solver config: unknown key '" +
                                  std::string(key) + "'");
    }
  }
  *this = next;
}

SolverConfig SolverConfig::parse(std::string_view spec) {
  SolverConfig config;
  config.apply(spec);
  return config;
}

}  // namespace nvp::markov
