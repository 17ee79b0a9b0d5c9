#include "src/obs/manifest.hpp"

#include <sys/resource.h>

#include <ctime>
#include <fstream>
#include <stdexcept>

#include "src/obs/json.hpp"

namespace nvp::obs {

long peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss * 1024L;  // ru_maxrss is KiB on Linux
}

void RunManifest::capture() {
  git_sha = build_git_sha();
  peak_rss_bytes = obs::peak_rss_bytes();
  char buf[32];
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  timestamp_utc = buf;
  metrics = Registry::global().snapshot();
  spans = TraceRecorder::global().finished();
}

std::string RunManifest::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.kv("tool", tool);
  json.kv("command", command);
  json.kv("git_sha", git_sha);
  json.kv("timestamp_utc", timestamp_utc);
  json.kv("seed", seed);
  json.kv("jobs", std::uint64_t(jobs));
  json.kv("peak_rss_bytes", std::int64_t(peak_rss_bytes));

  json.key("params").begin_object();
  for (const auto& [name, value] : params) json.kv(name, value);
  json.end_object();

  json.key("metrics").begin_object();
  json.key("counters").begin_object();
  for (const auto& [name, value] : metrics.counters) json.kv(name, value);
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [name, value] : metrics.gauges) json.kv(name, value);
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& [name, h] : metrics.histograms) {
    json.key(name).begin_object();
    json.kv("count", h.count);
    json.kv("sum", h.sum);
    json.kv("mean", h.mean());
    json.kv("p50", h.p50);
    json.kv("p90", h.p90);
    json.kv("p99", h.p99);
    json.end_object();
  }
  json.end_object();
  json.end_object();

  json.key("spans");
  span_tree_json(spans, json);
  json.end_object();
  return json.str();
}

void RunManifest::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open manifest file: " + path);
  out << to_json() << "\n";
  if (!out) throw std::runtime_error("failed writing manifest: " + path);
}

}  // namespace nvp::obs
