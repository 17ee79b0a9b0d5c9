#pragma once

// Shared helpers for the experiment harnesses: consistent banner/printing,
// CSV dumps of every reproduced series (so figures can be re-plotted with
// external tools), terminal rendering of the paper's figures, and the
// schema-2 result documents of json_result.hpp.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "json_result.hpp"
#include "src/core/analyzer.hpp"
#include "src/core/sweep.hpp"
#include "src/markov/solver_config.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/util/ascii_chart.hpp"
#include "src/util/cli.hpp"
#include "src/util/csv.hpp"
#include "src/util/string_util.hpp"
#include "src/util/table.hpp"

namespace nvp::bench {

/// Prints the harness banner.
inline void banner(const std::string& experiment_id,
                   const std::string& description) {
  std::printf("=== %s — %s ===\n", experiment_id.c_str(),
              description.c_str());
}

/// Directory for CSV outputs (created on demand): $NVP_BENCH_OUT or
/// ./bench_results.
inline std::filesystem::path output_dir() {
  const char* env = std::getenv("NVP_BENCH_OUT");
  std::filesystem::path dir = env != nullptr ? env : "bench_results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

/// Writes named (x, series...) columns to CSV under output_dir().
inline void dump_csv(const std::string& filename,
                     const std::vector<std::string>& header,
                     const std::vector<std::vector<double>>& rows) {
  const auto path = (output_dir() / filename).string();
  util::CsvWriter csv(path, header);
  for (const auto& row : rows) csv.row(row);
  std::printf("[data written to %s]\n", path.c_str());
}

/// Renders one or more reliability-vs-x series as a terminal chart.
inline void chart(const std::string& x_label,
                  const std::vector<util::Series>& series,
                  std::optional<std::pair<double, double>> y_range = {}) {
  util::AsciiChart plot(72, 18);
  for (const auto& s : series) plot.add_series(s);
  plot.set_labels(x_label, "E[R_sys]");
  if (y_range) plot.set_y_range(y_range->first, y_range->second);
  std::printf("%s", plot.render().c_str());
}

/// Converts sweep points to a chart series.
inline util::Series to_series(const std::string& name,
                              const std::vector<core::SweepPoint>& points) {
  util::Series s;
  s.name = name;
  for (const auto& p : points) {
    s.x.push_back(p.x);
    s.y.push_back(p.expected_reliability);
  }
  return s;
}

/// The two reference configurations of the paper's evaluation.
inline core::SystemParameters four_version() {
  return core::SystemParameters::paper_four_version();
}
inline core::SystemParameters six_version() {
  return core::SystemParameters::paper_six_version();
}

/// Writes a result document under output_dir() as `filename`.
inline bool write_result(const JsonResult& result,
                         const std::string& filename) {
  return result.write((output_dir() / filename).string());
}

/// describe() of the default (kAuto) solver config: the `config` of every
/// row whose solves force no backend.
inline std::string default_config() {
  return markov::SolverConfig{}.describe();
}

/// Argument harness for the experiment binaries: the same shared option
/// surface as nvpcli (--jobs/--seed/--format/--output plus --metrics-json
/// and --trace), parsed by util/cli so the two front ends cannot drift.
/// Construct at the top of main(); the destructor (or an explicit finish())
/// emits the trace/manifest.
class Harness {
 public:
  Harness(int argc, const char* const* argv, const std::string& id,
          const std::string& description)
      : args_(argc, argv),
        common_(util::parse_common_options(args_)),
        id_(id) {
    obs::init_from_env();
    if (common_.trace || !common_.metrics_json.empty())
      obs::set_tracing(true);
    if (common_.jobs > 0)
      runtime::set_default_jobs(static_cast<std::size_t>(common_.jobs));
    banner(id, description);
  }
  ~Harness() { finish(); }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  const util::CliArgs& args() const { return args_; }
  const util::CommonOptions& common() const { return common_; }
  std::uint64_t seed() const { return common_.seed; }

  void finish() {
    if (finished_) return;
    finished_ = true;
    if (common_.trace)
      std::fprintf(
          stderr, "%s",
          obs::span_tree_text(obs::TraceRecorder::global().finished())
              .c_str());
    if (!common_.metrics_json.empty()) {
      obs::RunManifest manifest;
      manifest.tool = id_;
      manifest.seed = common_.seed;
      manifest.jobs = runtime::default_jobs();
      manifest.capture();
      manifest.write(common_.metrics_json);
      std::printf("[manifest written to %s]\n",
                  common_.metrics_json.c_str());
    }
  }

 private:
  util::CliArgs args_;
  util::CommonOptions common_;
  std::string id_;
  bool finished_ = false;
};

}  // namespace nvp::bench
