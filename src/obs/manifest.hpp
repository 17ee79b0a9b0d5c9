#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace nvp::obs {

/// Everything needed to reproduce and audit one invocation: what ran, with
/// which inputs, on which build, and where the time and probability mass
/// went. One JSON document per run (the CLI's --metrics-json output).
struct RunManifest {
  std::string tool;             ///< binary name ("nvpcli", bench id, ...)
  std::string command;          ///< reconstructed command line
  std::map<std::string, std::string> params;  ///< input provenance (stringly)
  std::uint64_t seed = 0;       ///< 0 = no stochastic component
  std::size_t jobs = 0;         ///< worker threads used (0 = default pool)

  /// Captured automatically by capture(): build + process facts.
  std::string git_sha;
  std::string timestamp_utc;
  long peak_rss_bytes = 0;

  MetricsSnapshot metrics;
  std::vector<SpanRecord> spans;

  /// Fills git_sha/timestamp/peak RSS and snapshots the global metrics
  /// registry and trace recorder into this manifest.
  void capture();

  /// The manifest as a JSON document.
  std::string to_json() const;

  /// Writes to_json() to `path`. Throws std::runtime_error on I/O failure.
  void write(const std::string& path) const;
};

/// Peak resident set size of this process in bytes (getrusage).
long peak_rss_bytes();

/// Git SHA the binary was built from: 12 hex digits, "-dirty" when a
/// tracked file differed from HEAD, "unknown" outside a git work tree.
/// Stamped on every build (src/obs/build_info.cmake).
const char* build_git_sha();

/// CMAKE_BUILD_TYPE of the build ("unknown" when none was set).
const char* build_type();

}  // namespace nvp::obs
