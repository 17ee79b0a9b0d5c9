// bench_solver_grid — one N x tau x backend grid over the stationary
// solvers: the measurement behind kAuto's dispatch rules (dspn_solver.cpp)
// and the solver rows of bench_results/BENCH_solver.json. Every cell runs
// the production staged_rates path (rate pour + solve) with the caches
// bypassed, on a structure built uncached for it.
//
//   mrgp     the eight rejuvenating families N = 6..16 (f = r = 1) and
//            N = 11, 15 (f = r = 2) at tau = 100, 600 and 3000 s, forced
//            dense and forced mfree, best of 3 each. Rows: the series terms
//            sum_g lambda_g tau_g, kAuto's pick, kAuto's time over the
//            faster backend (le 1.5), max|dpi| between the backends
//            (le 1e-10), and the operator's speedup, which must reach 1 at
//            tau = 600 from 256 states and 10 on the best tau = 600 cell.
//   ctmc     N = 10/20/40 with f = 2/5/13 and rejuvenation off (pure
//            CTMCs), forced dense and forced sparse, best of 3, with the
//            same agreement rule.
//   scaling  N = 40..100 (f = 2, r = 4; 10^4..10^5 states) under kAuto,
//            once: matrix-free, at most 64 stored nonzeros per state,
//            probability mass within 1e-9, and the smallest and largest
//            family above 10^4 and 5 x 10^4 states.
//   analyze  the uncached paper-6v analyze (ReliabilityAnalyzer with
//            use_cache = false), the median of kAnalyzeRepetitions runs,
//            with metrics on (at most 1.25x the recorded median), off, and
//            with tracing on.
//
// Every family also records its uncached structure build (one
// petri.reachability row). tools/check_bench_regression.py gates the rules.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "src/core/staged.hpp"
#include "src/markov/dspn_solver.hpp"

namespace {

using namespace nvp;
using Clock = std::chrono::steady_clock;

constexpr int kCellRepetitions = 3;
constexpr int kAnalyzeRepetitions = 201;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Family {
  int n, f, r;
};

core::SystemParameters family_params(const Family& family, bool rejuvenation,
                                     double tau) {
  auto params = core::SystemParameters::paper_six_version();
  params.n_versions = family.n;
  params.max_faulty = family.f;
  params.max_rejuvenating = family.r;
  params.rejuvenation = rejuvenation;
  params.rejuvenation_interval = tau;
  return params;
}

markov::SolverConfig forced(markov::SolverBackend backend) {
  markov::SolverConfig config;
  config.backend = backend;
  return config;
}

struct Timed {
  std::shared_ptr<const core::RatesArtifact> rates;
  double ms = 1e300;
};

/// One cell on the production path, best of `reps`.
Timed timed_rates(const core::SystemParameters& params,
                  const core::StructureArtifact& structure,
                  const markov::SolverConfig& config, int reps) {
  Timed timed;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    timed.rates =
        core::staged_rates(params, structure, config, /*use_cache=*/false);
    timed.ms = std::min(timed.ms, ms_since(t0));
  }
  return timed;
}

class Grid {
 public:
  explicit Grid(bench::JsonResult& json) : json_(json) {}

  /// The structure of `params`, built uncached; the first build of each
  /// family becomes the family's petri.reachability row.
  std::shared_ptr<const core::StructureArtifact> structure(
      const core::SystemParameters& params, const std::string& family) {
    const auto t0 = Clock::now();
    auto built = core::staged_structure(params, /*use_cache=*/false);
    const double ms = ms_since(t0);
    if (family != last_family_)
      json_.add(family, "petri.reachability", "explore_ms", "ms", ms,
                "use_cache=false");
    last_family_ = family;
    return built;
  }

  /// A cell solved by dense and by the model class's sparse backend (mfree
  /// for an MRGP, CSR for a CTMC). Returns dense_ms / sparse_ms.
  double two_backends(const std::string& name,
                      const core::SystemParameters& params,
                      const core::StructureArtifact& structure, bool mrgp,
                      bool gate_speedup) {
    const std::size_t states = structure.graph.size();
    const markov::Dispatch picked = markov::dispatch(
        markov::SolverConfig{}, states, mrgp,
        mrgp ? markov::series_terms(structure.graph, structure.plan) : 0.0);
    const markov::SolverConfig dense = forced(markov::SolverBackend::kDense);
    const markov::SolverConfig sparse =
        forced(mrgp ? markov::SolverBackend::kMatrixFree
                    : markov::SolverBackend::kSparse);
    const Timed d = timed_rates(params, structure, dense, kCellRepetitions);
    const Timed s = timed_rates(params, structure, sparse, kCellRepetitions);
    double diff = 0.0;
    for (std::size_t i = 0; i < states; ++i)
      diff = std::max(diff, std::fabs(d.rates->probabilities[i] -
                                      s.rates->probabilities[i]));
    const bool auto_dense = picked.backend == markov::SolverBackend::kDense;
    const double speedup = d.ms / s.ms;
    const std::string sparse_name = markov::to_string(sparse.backend);

    add(name, "markov.solve", "states", "count", static_cast<double>(states));
    if (mrgp)
      add(name, "markov.solve", "series_terms", "terms", picked.series_terms);
    add(name, "markov.solve", "auto_picks_dense", "bool",
        auto_dense ? 1.0 : 0.0);
    json_.add(name, "core.rates", "solve_ms", "ms", d.ms, dense.describe());
    json_.add(name, "core.rates", "solve_ms", "ms", s.ms, sparse.describe());
    json_.add(name, "markov.solve", "stored_nonzeros", "count",
              static_cast<double>(d.rates->matrix_nonzeros),
              dense.describe());
    json_.add(name, "markov.solve", "stored_nonzeros", "count",
              static_cast<double>(s.rates->matrix_nonzeros),
              sparse.describe());
    add(name, "core.rates", "auto_over_fastest", "ratio",
        (auto_dense ? d.ms : s.ms) / std::min(d.ms, s.ms),
        mrgp ? bench::bound("le", 1.5) : bench::Rule{});
    add(name, "core.rates", sparse_name + "_speedup", "ratio", speedup,
        gate_speedup ? bench::bound("ge", 1.0) : bench::Rule{});
    add(name, "markov.solve", "max_abs_diff", "prob", diff,
        bench::bound("le", 1e-10));
    std::printf("%-26s %4zu states  dense %8.2f ms  %-5s %8.2f ms  auto %-5s "
                "max|diff| %.2e\n",
                name.c_str(), states, d.ms,
                sparse_name.c_str(), s.ms,
                markov::to_string(picked.backend), diff);
    return speedup;
  }

  /// A large family under kAuto, solved once.
  std::size_t scaling(const std::string& name,
                      const core::SystemParameters& params,
                      const core::StructureArtifact& structure) {
    const std::size_t states = structure.graph.size();
    const markov::SolverConfig config;
    const markov::Dispatch picked = markov::dispatch(
        config, states, true,
        markov::series_terms(structure.graph, structure.plan));
    const Timed timed = timed_rates(params, structure, config, 1);
    double mass = 0.0;
    for (const double p : timed.rates->probabilities) mass += p;
    const double nonzeros =
        static_cast<double>(timed.rates->matrix_nonzeros);

    add(name, "markov.solve", "states", "count", static_cast<double>(states));
    add(name, "markov.solve", "series_terms", "terms", picked.series_terms);
    add(name, "markov.solve", "auto_picks_dense", "bool",
        timed.rates->backend_used == markov::SolverBackend::kDense ? 1.0
                                                                     : 0.0,
        bench::bound("eq", 0.0));
    add(name, "core.rates", "solve_ms", "ms", timed.ms,
        bench::bound("gt", 0.0));
    add(name, "markov.solve", "stored_nonzeros", "count", nonzeros);
    add(name, "markov.solve", "nonzeros_per_state", "ratio",
        nonzeros / static_cast<double>(states), bench::bound("le", 64.0));
    add(name, "markov.solve", "prob_mass_error", "prob",
        std::fabs(mass - 1.0), bench::bound("le", 1e-9));
    std::printf("%-26s %6zu states  %s  %9.1f ms  %8.0f nnz  |mass-1| "
                "%.2e\n",
                name.c_str(), states,
                markov::to_string(timed.rates->backend_used), timed.ms,
                nonzeros, std::fabs(mass - 1.0));
    return states;
  }

  /// A row under the default (kAuto) config.
  void add(const std::string& name, const char* layer,
           const std::string& metric, const char* unit, double value,
           bench::Rule rule = {}) {
    json_.add(name, layer, metric, unit, value, bench::default_config(),
              std::move(rule));
  }

 private:
  bench::JsonResult& json_;
  std::string last_family_;
};

/// Median wall time of the uncached paper-6v analyze.
double analyze_median_ms() {
  core::ReliabilityAnalyzer::Options options;
  options.use_cache = false;
  const core::ReliabilityAnalyzer analyzer(options);
  const auto params = core::SystemParameters::paper_six_version();
  analyzer.analyze(params);  // warm-up: first-touch allocations
  std::vector<double> ms(kAnalyzeRepetitions);
  for (double& sample : ms) {
    const auto t0 = Clock::now();
    analyzer.analyze(params);
    sample = ms_since(t0);
  }
  std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
  return ms[ms.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "solver_grid",
                         "stationary solvers over N x tau x backend on the "
                         "staged rates path");
  bench::JsonResult json(
      "bench_solver_grid",
      "cells run core::staged_rates with the caches bypassed on an uncached "
      "structure; two-backend cells (mrgp: dense vs mfree, ctmc: dense vs "
      "CSR sparse) take the best of 3 per backend, scaling cells one kAuto "
      "solve; <backend>_speedup is the dense solve_ms over the other "
      "backend's, auto_over_fastest kAuto's pick over the faster backend; "
      "analyze rows are the median of "
      "201 uncached paper-6v analyses");
  Grid grid(json);

  double best_speedup_600 = 0.0;
  for (const Family& family : {Family{6, 1, 1}, {8, 1, 1}, {10, 1, 1},
                               {12, 1, 1}, {14, 1, 1}, {16, 1, 1},
                               {11, 2, 2}, {15, 2, 2}}) {
    const std::string name = util::format("mrgp n=%d f=%d r=%d", family.n,
                                          family.f, family.r);
    for (const double tau : {100.0, 600.0, 3000.0}) {
      const auto params = family_params(family, true, tau);
      const auto structure = grid.structure(params, name);
      const bool at_600 = tau == 600.0;
      const double speedup = grid.two_backends(
          util::format("%s tau=%g", name.c_str(), tau), params, *structure,
          /*mrgp=*/true, at_600 && structure->graph.size() >= 256);
      if (at_600) best_speedup_600 = std::max(best_speedup_600, speedup);
    }
  }
  grid.add("mrgp tau=600", "core.rates", "best_mfree_speedup", "ratio",
           best_speedup_600, bench::bound("ge", 10.0));

  for (const Family& family : {Family{10, 2, 1}, {20, 5, 1}, {40, 13, 1}}) {
    const std::string name =
        util::format("ctmc n=%d f=%d", family.n, family.f);
    const auto params = family_params(family, false, 600.0);
    const auto structure = grid.structure(params, name);
    grid.two_backends(name, params, *structure, /*mrgp=*/false, false);
  }

  std::size_t min_states = ~std::size_t{0}, max_states = 0;
  for (const int n : {40, 64, 80, 100}) {
    const std::string name = util::format("scaling n=%d f=2 r=4", n);
    const auto params = family_params({n, 2, 4}, true, 600.0);
    const auto structure = grid.structure(params, name);
    const std::size_t states = grid.scaling(name, params, *structure);
    min_states = std::min(min_states, states);
    max_states = std::max(max_states, states);
  }
  grid.add("scaling", "markov.solve", "min_states", "count",
           static_cast<double>(min_states), bench::bound("ge", 1e4));
  grid.add("scaling", "markov.solve", "max_states", "count",
           static_cast<double>(max_states), bench::bound("ge", 5e4));

  // The cross-run timing gate, plus the obs overhead's two reference rows.
  const std::string analyze = "paper 6v analyze uncached";
  const double metrics_on = analyze_median_ms();
  grid.add(analyze, "core.analyze", "analyze_ms", "ms", metrics_on,
           bench::ratio("le", 1.25));
  const bool metrics_enabled = obs::enabled();
  obs::set_enabled(false);
  const double metrics_off = analyze_median_ms();
  obs::set_enabled(metrics_enabled);
  grid.add(analyze, "core.analyze", "analyze_ms_metrics_off", "ms",
           metrics_off);
  obs::set_tracing(true);
  const double tracing_on = analyze_median_ms();
  obs::set_tracing(false);
  obs::TraceRecorder::global().clear();
  grid.add(analyze, "core.analyze", "analyze_ms_tracing_on", "ms",
           tracing_on);
  std::printf("%s: %.3f ms (metrics off %.3f ms, tracing on %.3f ms)\n",
              analyze.c_str(), metrics_on, metrics_off, tracing_on);

  return bench::write_result(json, "BENCH_solver.json") ? 0 : 1;
}
