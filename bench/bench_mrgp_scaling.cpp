// Matrix-free MRGP solver scaling: the measurement behind kAuto's MRGP cost
// rule and the headline capability of the operator backend.
//
// Two series, one JSON artifact (bench_results/BENCH_mrgp_scaling.json):
//
//  * crossover — small rejuvenating families at rejuvenation intervals
//    tau = 100, 600 and 3000 s, each cell solved through staged_rates with
//    the caches bypassed, once forced dense and once forced matrix-free
//    (best of 3 each), with the max-abs difference between the two
//    stationary vectors. Each row records the series terms
//    sum_g lambda_g tau_g of the cell and the backend kAuto picks for it.
//    Dense costs O(n^3 log(lambda tau)); the operator costs
//    O(iterations x lambda tau x nnz), so the winner flips as tau grows —
//    this grid is where the cost rule's constant comes from.
//
//  * scaling — the 6-version-with-rejuvenation families grown to
//    N = 40..100 (rejuvenation budget r = 4), i.e. 10^4..10^5 tangible
//    states, where the dense embedded chain would need two n^2 matrices
//    (83 GB at N = 100) and is simply not representable. Solved through
//    the default kAuto dispatch once.
//
// Every row carries states, series_terms and auto_backend, so tests can
// hold today's dispatch to the published rows. tools/check_bench_regression.py
// --mrgp gates the artifact: agreement <= 1e-10 on every crossover row, the
// operator never slower than dense at/above 256 states at tau = 600, kAuto's
// backend at most 1.5x slower than the faster one on every crossover cell,
// and every scaling row solved matrix-free with sparse storage up to
// >= 5 x 10^4 states.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "src/core/staged.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/markov/solver_config.hpp"
#include "src/obs/json.hpp"
#include "src/obs/manifest.hpp"

namespace {

using namespace nvp;
using Clock = std::chrono::steady_clock;

struct CrossoverRow {
  int n = 0, f = 0, r = 0;
  double tau = 0.0;
  std::size_t states = 0;
  double series_terms = 0.0;
  std::string auto_backend;
  double dense_ms = 0.0;
  double mfree_ms = 0.0;
  double speedup = 0.0;
  double max_abs_diff = 0.0;
};

struct ScalingRow {
  int n = 0, f = 0, r = 0;
  std::size_t states = 0;
  double series_terms = 0.0;
  std::string auto_backend;
  double solve_ms = 0.0;
  std::size_t stored_nonzeros = 0;
  double prob_mass_error = 0.0;
};

core::SystemParameters family(int n, int f, int r, double tau) {
  auto params = core::SystemParameters::paper_six_version();
  params.n_versions = n;
  params.max_faulty = f;
  params.max_rejuvenating = r;
  params.rejuvenation_interval = tau;
  return params;
}

/// The production path for one point: staged_rates with the caches
/// bypassed (model build, repour, solve), best of `reps`.
std::shared_ptr<const core::RatesArtifact> timed_rates(
    const core::SystemParameters& params,
    const core::StructureArtifact& structure, markov::SolverConfig config,
    int reps, double& best_ms) {
  std::shared_ptr<const core::RatesArtifact> rates;
  best_ms = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    rates = core::staged_rates(params, structure, config, /*use_cache=*/false);
    const auto t1 = Clock::now();
    best_ms = std::min(
        best_ms, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "mrgp_scaling",
                         "matrix-free MRGP solves: dense crossover and "
                         "10^4..10^5-state scaling");
  const bool quick = harness.args().has("quick");

  // --- Crossover: dense oracle vs matrix-free on the small families. -----
  std::vector<CrossoverRow> crossover;
  for (const auto& [n, f, r] :
       {std::tuple{6, 1, 1}, {8, 1, 1}, {10, 1, 1}, {12, 1, 1}, {14, 1, 1},
        {16, 1, 1}, {11, 2, 2}, {15, 2, 2}}) {
    for (const double tau : {100.0, 600.0, 3000.0}) {
      const auto params = family(n, f, r, tau);
      const auto structure =
          core::staged_structure(params, /*use_cache=*/false);
      CrossoverRow row;
      row.n = n;
      row.f = f;
      row.r = r;
      row.tau = tau;
      row.states = structure->graph.size();
      // kAuto's pick for this cell (the structure carries its rates).
      const markov::Dispatch picked = markov::dispatch(
          markov::SolverConfig{}, row.states, /*has_deterministic=*/true,
          markov::series_terms(structure->graph, structure->plan));
      row.series_terms = picked.series_terms;
      row.auto_backend = markov::to_string(picked.backend);
      markov::SolverConfig dense;
      dense.backend = markov::SolverBackend::kDense;
      const auto dense_rates =
          timed_rates(params, *structure, dense, 3, row.dense_ms);
      markov::SolverConfig mfree;
      mfree.backend = markov::SolverBackend::kMatrixFree;
      const auto mfree_rates =
          timed_rates(params, *structure, mfree, 3, row.mfree_ms);
      row.speedup = row.dense_ms / row.mfree_ms;
      for (std::size_t s = 0; s < row.states; ++s)
        row.max_abs_diff = std::max(
            row.max_abs_diff, std::fabs(dense_rates->probabilities[s] -
                                        mfree_rates->probabilities[s]));
      std::printf(
          "crossover n=%2d f=%d r=%d tau=%4.0f  %4zu states  lambda*tau "
          "%6.0f  dense %8.1f ms  mfree %7.1f ms  auto %-5s  max|diff| "
          "%.2e\n",
          n, f, r, tau, row.states, row.series_terms, row.dense_ms,
          row.mfree_ms, row.auto_backend.c_str(), row.max_abs_diff);
      crossover.push_back(row);
    }
  }

  // --- Scaling: N = 40..100 rejuvenating families under kAuto. -----------
  std::vector<ScalingRow> scaling;
  for (const auto& [n, f, r] : {std::tuple{40, 2, 4}, {64, 2, 4}, {80, 2, 4},
                               {100, 2, 4}}) {
    if (quick && n > 64) continue;
    const auto params = family(n, f, r, 600.0);
    const auto structure = core::staged_structure(params, /*use_cache=*/false);
    ScalingRow row;
    row.n = n;
    row.f = f;
    row.r = r;
    row.states = structure->graph.size();
    const markov::DspnSteadyStateSolver solver;  // kAuto: the dispatch under test
    const auto t0 = Clock::now();
    const auto result = solver.solve(structure->graph, structure->plan);
    row.solve_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    row.series_terms = result.dispatch.series_terms;
    row.auto_backend = markov::to_string(result.backend_used);
    row.stored_nonzeros = result.matrix_nonzeros;
    double mass = 0.0;
    for (const double p : result.probabilities) mass += p;
    row.prob_mass_error = std::fabs(mass - 1.0);
    std::printf(
        "scaling   n=%3d f=%d r=%d  %6zu states  %s  %9.1f ms  "
        "%8zu nnz  |mass-1| %.2e\n",
        n, f, r, row.states, row.auto_backend.c_str(), row.solve_ms,
        row.stored_nonzeros, row.prob_mass_error);
    scaling.push_back(row);
  }

  // --- JSON artifact. ----------------------------------------------------
  obs::JsonWriter json;
  json.begin_object();
  json.kv("schema_version", 1);
  json.kv("recorded", bench::utc_date());
  json.kv("git_sha", obs::build_git_sha());
  json.kv("cores",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.kv("source", "bench_mrgp_scaling, CMAKE_BUILD_TYPE=Release");
  json.kv("note",
          "crossover rows solve each family at tau = 100, 600 and 3000 s "
          "through staged_rates with caches bypassed, forced dense and "
          "forced mfree (best of 3 each; both backends run on one thread); "
          "series_terms is sum_g lambda_g tau_g and auto_backend the backend "
          "kAuto picks. Scaling rows go through the default kAuto dispatch "
          "once; stored_nonzeros counts the operator's CSR slots "
          "(exponential rows + per-group subordinated and firing "
          "matrices).");
  json.key("crossover").begin_array();
  for (const auto& row : crossover) {
    json.begin_object();
    json.kv("n", row.n).kv("f", row.f).kv("r", row.r);
    json.kv("tau", row.tau);
    json.kv("states", static_cast<std::uint64_t>(row.states));
    json.kv("series_terms", row.series_terms);
    json.kv("auto_backend", row.auto_backend);
    json.kv("dense_ms", row.dense_ms);
    json.kv("mfree_ms", row.mfree_ms);
    json.kv("speedup", row.speedup);
    json.kv("max_abs_diff", row.max_abs_diff);
    json.end_object();
  }
  json.end_array();
  json.key("scaling").begin_array();
  for (const auto& row : scaling) {
    json.begin_object();
    json.kv("n", row.n).kv("f", row.f).kv("r", row.r);
    json.kv("states", static_cast<std::uint64_t>(row.states));
    json.kv("series_terms", row.series_terms);
    json.kv("auto_backend", row.auto_backend);
    json.kv("solve_ms", row.solve_ms);
    json.kv("stored_nonzeros", static_cast<std::uint64_t>(row.stored_nonzeros));
    json.kv("prob_mass_error", row.prob_mass_error);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  const auto path = (bench::output_dir() / "BENCH_mrgp_scaling.json").string();
  std::ofstream out(path);
  out << json.str() << "\n";
  std::printf("[json written to %s]\n", path.c_str());
  return 0;
}
