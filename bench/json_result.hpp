#pragma once

// The one writer of recorded benchmark results (schema 2), shared by the
// bench binaries and tools/loadgen; it depends on src/obs only. A document
// is a provenance header plus rows:
//
//   {"schema_version": 2, "bench": <writer>, "git_sha", "build_type",
//    "cores", "recorded": "YYYY-MM-DD", "note",
//    "rows": [{"case", "layer", "metric", "unit", "value", "config"
//              [, "rule": {"op", "bound" | "ratio"}]}, ...]}
//
// `layer` is a module or span name (markov.solve, core.rates, core.analyze,
// petri.reachability, core.staged, store, service, monitor); `config` is
// the SolverConfig::describe() of the solve that ran, or the run's settings
// where no solve ran. A rule gates its row: value op bound, or value op
// ratio x the same (case, metric, config) row of the recorded baseline.
// tools/check_bench_regression.py evaluates every rule.

#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/manifest.hpp"

namespace nvp::bench {

/// A row's gate; an empty op means the row carries none.
struct Rule {
  std::string op;      ///< eq, ge, gt, le or lt
  double limit = 0.0;  ///< the bound, or the ratio to the recorded value
  bool ratio = false;
};

/// value op bound.
inline Rule bound(std::string op, double bound) {
  return {std::move(op), bound, false};
}
/// value op ratio x the recorded baseline's value of the same row.
inline Rule ratio(std::string op, double ratio) {
  return {std::move(op), ratio, true};
}

struct Row {
  std::string case_name;
  std::string layer;
  std::string metric;
  std::string unit;
  double value = 0.0;
  std::string config;
  Rule rule;
};

/// Today's UTC date, "YYYY-MM-DD".
inline std::string utc_date() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[16];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d", &tm);
  return buf;
}

class JsonResult {
 public:
  /// `bench` names the binary that writes the document; `note` holds the
  /// prose a reader needs (what was timed, and how).
  JsonResult(std::string bench, std::string note)
      : bench_(std::move(bench)), note_(std::move(note)) {}

  void add(Row row) { rows_.push_back(std::move(row)); }
  void add(std::string case_name, std::string layer, std::string metric,
           std::string unit, double value, std::string config,
           Rule rule = {}) {
    add(Row{std::move(case_name), std::move(layer), std::move(metric),
            std::move(unit), value, std::move(config), std::move(rule)});
  }

  /// The document, one row per line so that a re-recorded baseline diffs
  /// row by row.
  std::string to_json() const {
    obs::JsonWriter head;
    head.begin_object();
    head.kv("schema_version", 2);
    head.kv("bench", bench_);
    head.kv("git_sha", obs::build_git_sha());
    head.kv("build_type", obs::build_type());
    head.kv("cores", static_cast<std::uint64_t>(
                         std::thread::hardware_concurrency()));
    head.kv("recorded", utc_date());
    head.kv("note", note_);
    head.key("rows").begin_array();
    std::string out = head.str();
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      obs::JsonWriter json;
      json.begin_object();
      json.kv("case", row.case_name).kv("layer", row.layer);
      json.kv("metric", row.metric).kv("unit", row.unit);
      json.kv("value", row.value).kv("config", row.config);
      if (!row.rule.op.empty()) {
        json.key("rule").begin_object();
        json.kv("op", row.rule.op);
        json.kv(row.rule.ratio ? "ratio" : "bound", row.rule.limit);
        json.end_object();
      }
      json.end_object();
      out += (i == 0 ? "\n" : ",\n") + json.str();
    }
    return out + "\n]}\n";
  }

  /// Writes the document to `path` and logs it; false on an I/O failure.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << to_json();
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
      return false;
    }
    std::printf("[json written to %s]\n", path.c_str());
    return true;
  }

 private:
  std::string bench_;
  std::string note_;
  std::vector<Row> rows_;
};

}  // namespace nvp::bench
