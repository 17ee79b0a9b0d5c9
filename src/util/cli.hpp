#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace nvp::util {

/// Tiny command-line parser for the example/benchmark binaries. Accepts
/// `--key=value`, `--key value`, and boolean `--flag` forms. Unknown keys are
/// kept and can be listed so binaries can reject typos.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True if the flag was present (with or without a value).
  bool has(const std::string& key) const;

  /// String value, or `fallback` if absent.
  std::string get(const std::string& key, const std::string& fallback) const;

  /// Numeric value, or `fallback` if absent. Throws std::invalid_argument
  /// naming the flag on input parse_finite / parse_int refuse.
  double get_double(const std::string& key, double fallback) const;
  int get_int(const std::string& key, int fallback) const;

  /// All `--key` names seen, for validation.
  std::vector<std::string> keys() const;

  /// Positional (non `--`) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

/// `text` as a finite double, or nullopt when it is empty, has trailing
/// characters, spells inf or nan, or overflows.
std::optional<double> parse_finite(const std::string& text);

/// `text` as an int, or nullopt when it is not a whole number in int range.
std::optional<int> parse_int(const std::string& text);

/// Output rendering shared by every CLI subcommand and bench harness.
enum class OutputFormat { kTable, kCsv, kJson };

/// The flag surface every nvpcli subcommand and argument-taking bench
/// accepts, so there is exactly one way to spell the common knobs:
///
///   --jobs N            worker threads (0 = $NVP_JOBS or all cores)
///   --seed S            RNG seed for stochastic commands
///   --format table|csv|json
///   --output PATH       write the rendered result there instead of stdout
///   --metrics-json PATH write a run manifest (implies tracing)
///   --trace             collect spans; print the span tree on exit
///   --cache-stats       print the per-stage pipeline cache table
///                       (structure / rates / reward_table / rewards
///                       hit/miss/eviction counts) to stderr
///
/// Removed spellings (--threads, --rng-seed, --csv, --json, --out, --solver,
/// --fallback) are rejected with an error naming their replacement.
struct CommonOptions {
  int jobs = 0;
  std::uint64_t seed = 1;
  OutputFormat format = OutputFormat::kTable;
  std::string output;        ///< empty = stdout
  std::string metrics_json;  ///< empty = no manifest
  bool trace = false;
  bool metrics_dump = false;  ///< print counters to stderr on exit
  bool cache_stats = false;   ///< print per-stage cache table on exit
};

/// The flags parse_common_options reads.
inline constexpr const char* kCommonFlags[] = {
    "jobs", "seed", "format", "output", "metrics-json", "trace", "metrics",
    "cache-stats"};

/// Parses the shared quartet + observability flags from `args`. Throws
/// std::invalid_argument on malformed values (bad number, unknown format)
/// and on a removed flag spelling.
CommonOptions parse_common_options(const CliArgs& args);

}  // namespace nvp::util
