#include "src/markov/solver_config.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "src/runtime/fnv.hpp"

namespace nvp::markov {

namespace {

const char* to_string(SteadyStateMethod method) {
  switch (method) {
    case SteadyStateMethod::kDirect:
      return "direct";
    case SteadyStateMethod::kGaussSeidel:
      return "gauss-seidel";
    case SteadyStateMethod::kPowerIteration:
      return "power";
  }
  return "?";
}

SteadyStateMethod parse_method(std::string_view name) {
  if (name == "direct") return SteadyStateMethod::kDirect;
  if (name == "gauss-seidel") return SteadyStateMethod::kGaussSeidel;
  if (name == "power") return SteadyStateMethod::kPowerIteration;
  throw std::invalid_argument("unknown ctmc method '" + std::string(name) +
                              "' (expected direct|gauss-seidel|power)");
}

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

double parse_double(std::string_view key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0')
    throw std::invalid_argument("solver config: " + std::string(key) + "='" +
                                value + "' is not a number");
  return v;
}

std::size_t parse_size(std::string_view key, const std::string& value) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0')
    throw std::invalid_argument("solver config: " + std::string(key) + "='" +
                                value + "' is not an unsigned integer");
  return static_cast<std::size_t>(v);
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
    return "kAuto never picks the explicit-sparse MRGP assembly; force it "
           "with backend=sparse";
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
  h.str("markov::SolverConfig/v2");
  h.i32(static_cast<int>(backend));
  h.i32(static_cast<int>(ctmc_method));
  h.f64(clamp_epsilon);
  h.u64(sparse_threshold);
  h.u64(dense_retry_limit);
  h.u64(gmres_restart);
  h.u64(gmres_max_iterations);
  h.f64(gmres_tolerance);
  h.u64(erlang_stages);
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
  out += ",ctmc=";
  out += to_string(ctmc_method);
  out += ",clamp=" + format_double(clamp_epsilon);
  out += ",sparse-threshold=" + std::to_string(sparse_threshold);
  out += ",dense-retry-limit=" + std::to_string(dense_retry_limit);
  out += ",gmres-restart=" + std::to_string(gmres_restart);
  out += ",gmres-max-iters=" + std::to_string(gmres_max_iterations);
  out += ",gmres-tol=" + format_double(gmres_tolerance);
  out += ",erlang-stages=" + std::to_string(erlang_stages);
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
    } else if (key == "ctmc") {
      next.ctmc_method = parse_method(value);
    } else if (key == "clamp") {
      next.clamp_epsilon = parse_double(key, value);
    } else if (key == "sparse-threshold") {
      next.sparse_threshold = parse_size(key, value);
    } else if (key == "dense-retry-limit") {
      next.dense_retry_limit = parse_size(key, value);
    } else if (key == "gmres-restart") {
      next.gmres_restart = parse_size(key, value);
      if (next.gmres_restart == 0)
        throw std::invalid_argument("solver config: gmres-restart must be >= 1");
    } else if (key == "gmres-max-iters") {
      next.gmres_max_iterations = parse_size(key, value);
    } else if (key == "gmres-tol") {
      next.gmres_tolerance = parse_double(key, value);
    } else if (key == "erlang-stages") {
      next.erlang_stages = parse_size(key, value);
    } else if (key == "fallback") {
      next.fallback.stages = parse_plus_stages(value);
    } else if (key == "attempt-deadline") {
      next.fallback.attempt_deadline_seconds = parse_double(key, value);
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
