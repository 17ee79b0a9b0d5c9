#pragma once

// Shared plumbing of the benchmark: the command line, sample statistics,
// before/after probes of the program's own counters, span aggregation for
// the traced run, and the report every workload fills and prints.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/staged.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double ms_since(Clock::time_point start) {
  return 1e3 * seconds_since(start);
}

/// One benchmark invocation.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;     ///< scratch space inside the checkout
  std::string self;         ///< this binary (store_restart re-executes it)
  std::string restart_dir;  ///< set in the store_restart child process
};

/// Hardware threads of the machine (the `--jobs` every workload uses).
std::size_t nproc();

/// Linearly interpolated quantile (numpy's default), q in [0, 1]; 0 for an
/// empty sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Peak resident set (VmHWM) of this process, MiB.
double peak_rss_mib();

/// The program's exported state at one instant: the obs registry and the
/// staged pipeline's cache counters. Layers are measured as differences of
/// two probes around the calls the benchmark makes.
struct Probe {
  nvp::obs::MetricsSnapshot metrics;
  nvp::core::StageCacheStats caches;

  static Probe take();
  std::uint64_t counter(const std::string& name) const;
  nvp::obs::HistogramSnapshot histogram(const std::string& name) const;
};

/// Counter difference `after - before`.
double delta(const Probe& before, const Probe& after, const std::string& name);

/// A traced measurement window: probes around it, the spans the program
/// recorded inside it, and its wall time.
struct Window {
  Probe before;
  Probe after;
  std::vector<nvp::obs::SpanRecord> spans;
  double wall_s = 0.0;
};

/// Runs `body` with span recording on and returns the window around it.
template <typename Body>
Window traced(Body&& body) {
  nvp::obs::TraceRecorder::global().clear();
  Window window;
  window.before = Probe::take();
  nvp::obs::set_tracing(true);
  const auto start = Clock::now();
  body();
  window.wall_s = seconds_since(start);
  nvp::obs::set_tracing(false);
  window.after = Probe::take();
  window.spans = nvp::obs::TraceRecorder::global().finished();
  nvp::obs::TraceRecorder::global().clear();
  return window;
}

/// Per-span-name totals: count, busy (sum of wall) and self time (wall minus
/// the part covered by child spans).
struct SpanTotals {
  std::uint64_t count = 0;
  double busy_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, SpanTotals> aggregate_spans(
    const std::vector<nvp::obs::SpanRecord>& spans);

/// What one run reports. Every operation the workload attempts goes through
/// check(); end-to-end metrics (untraced run) or per-layer metrics (traced
/// run) are filled by name and printed at the end, followed by the
/// provenance line and, last, the one-line result object.
class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  /// Counts one operation; a false `ok` is a failure, printed with `what`.
  void check(bool ok, const std::string& what);

  /// An end-to-end metric; `basis` says what it was computed from.
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& basis);
  /// A workload-specific figure printed in the human-readable table only.
  void figure(const std::string& name, double value, const std::string& unit,
              const std::string& basis);
  /// A per-layer metric (traced run); `basis` states the ratio's base or
  /// the source of the number.
  void layer(const std::string& name, double value,
             const std::string& basis = "");

  /// Fills the layer metrics every workload derives the same way from a
  /// traced window: span totals of the core/petri/markov/monitor layers,
  /// counter deltas, and the staged cache hit ratios.
  void layers_from(const Window& window);

  /// Prints the per-span table of a traced window (count, busy, self).
  void span_table(const Window& window) const;

  /// Prints everything and returns the process exit code.
  int finish() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string basis;
  };

  Args args_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Entry> metrics_;
  std::vector<Entry> figures_;
  std::map<std::string, Entry> layers_;
};

/// Median warm `Engine::analyze` minus median warm `analyze_raw` of one
/// point, in microseconds: the cost of the result envelope.
double engine_envelope_us(const nvp::core::Engine& engine,
                          const nvp::core::SystemParameters& params);

/// Times the benchmark's own calls into the layers' public functions for
/// one configuration (cold, caches bypassed): staged_structure,
/// markov::dispatch_backend, DspnSteadyStateSolver::solve on the repoured
/// graph, staged_rates and staged_reward_table. Printed as one table row.
void probe_stages(const std::string& label,
                  const nvp::core::SystemParameters& params);

/// Workload entry points (one file each).
int run_design_study(const Args& args);
int run_nvpd_mixed(const Args& args);
int run_store_restart(const Args& args);
int run_store_restart_child(const Args& args);
int run_monitor_drift(const Args& args);

}  // namespace perfbench
