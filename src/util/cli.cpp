#include "src/util/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <utility>

namespace nvp::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[arg] = argv[++i];
    } else {
      kv_[arg] = "";
    }
  }
}

bool CliArgs::has(const std::string& key) const { return kv_.count(key) > 0; }

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  const std::optional<double> v = parse_finite(it->second);
  if (!v)
    throw std::invalid_argument("--" + key + " expects a finite number, got '" +
                                it->second + "'");
  return *v;
}

int CliArgs::get_int(const std::string& key, int fallback) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  const std::optional<int> v = parse_int(it->second);
  if (!v)
    throw std::invalid_argument("--" + key + " expects an integer, got '" +
                                it->second + "'");
  return *v;
}

std::vector<std::string> CliArgs::keys() const {
  std::vector<std::string> out;
  out.reserve(kv_.size());
  for (const auto& [k, _] : kv_) out.push_back(k);
  return out;
}

std::optional<double> parse_finite(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(v))
    return std::nullopt;
  return v;
}

std::optional<int> parse_int(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max())
    return std::nullopt;
  return static_cast<int>(v);
}

namespace {

/// Removed flag spellings and their replacements. CliArgs keeps unknown
/// flags and callers ignore them, so a removed spelling must fail loudly.
constexpr std::pair<const char*, const char*> kRemovedFlags[] = {
    {"threads", "--jobs"},
    {"rng-seed", "--seed"},
    {"csv", "--format csv"},
    {"json", "--format json"},
    {"out", "--output"},
    {"solver", "--solver-config backend=<name>"},
    {"fallback", "--solver-config fallback=<stage+stage+...>"},
};

}  // namespace

CommonOptions parse_common_options(const CliArgs& args) {
  for (const auto& [flag, replacement] : kRemovedFlags)
    if (args.has(flag))
      throw std::invalid_argument("--" + std::string(flag) +
                                  " was removed, use " + replacement);
  CommonOptions options;

  options.jobs = args.get_int("jobs", 0);
  if (options.jobs < 0)
    throw std::invalid_argument("--jobs must be >= 0 (0 = default)");

  const int seed = args.get_int("seed", 1);
  if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
  options.seed = static_cast<std::uint64_t>(seed);

  const std::string format = args.get("format", "");
  if (format.empty() || format == "table")
    options.format = OutputFormat::kTable;
  else if (format == "csv")
    options.format = OutputFormat::kCsv;
  else if (format == "json")
    options.format = OutputFormat::kJson;
  else
    throw std::invalid_argument("--format expects table|csv|json, got '" +
                                format + "'");

  options.output = args.get("output", "");
  options.metrics_json = args.get("metrics-json", "");
  options.trace = args.has("trace");
  options.metrics_dump = args.has("metrics");
  options.cache_stats = args.has("cache-stats");
  return options;
}

}  // namespace nvp::util
