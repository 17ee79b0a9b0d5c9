// bench_sweep_throughput — throughput of parameter sweeps through the staged
// analysis pipeline (structure / rates / rewards) versus the fully cold
// per-point path, in the same binary.
//
// Two 50-point sweeps of increasing reuse:
//
//   alpha sweep, paper six-version model (MRGP): a *reward-only* sweep —
//     every point shares the structure AND the stationary distribution, so
//     the staged pipeline explores once, solves once, and re-evaluates only
//     the reward stage 50 times.
//
//   MTTC sweep, N=40 f=13 plain model (pure CTMC, sparse backend): a
//     *rate-only* sweep — every point shares the explored structure, the
//     assembly plan, and the per-class reward table, but needs its own
//     solve. The staged pipeline explores once and solves 50 times.
//
// For each sweep the harness times the cold path (a use_cache=false
// analyzer: explore + assemble + solve + rewards at every point) and the
// staged path (use_cache=true on freshly cleared stage caches), alternating,
// kRepetitions times each, and reports each side's median. Every repetition
// must give bit-identical 50-point curves and prove the reuse with obs
// counters: each staged run reports exactly one reachability exploration
// per sweep and, for the reward-only sweep, exactly one solve.
//
// Results go to bench_results/BENCH_sweep.json (or $NVP_BENCH_OUT) with
// their rules: the reward-only sweep >= 10x faster than cold, the rate-only
// one >= 2x, both bit-identical, one exploration per sweep and one solve
// for the reward-only sweep. tools/check_bench_regression.py gates them.
//
// Exit code: 0 on success, 1 if bit-identity or a reuse invariant fails
// (speedup floors are gated by the regression script, not here, so a noisy
// machine cannot turn a correct run into a hard failure).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "src/core/staged.hpp"
#include "src/obs/metrics.hpp"

namespace {

using namespace nvp;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snapshot,
                            const std::string& name) {
  for (const auto& [counter, value] : snapshot.counters)
    if (counter == name) return value;
  return 0;
}

struct SweepCase {
  std::string id;       ///< JSON section name
  std::string what;     ///< human description
  core::SystemParameters base;
  core::ParameterSetter setter;
  std::vector<double> values;
  bool reward_only = false;  ///< true: the staged run must solve exactly once
  double speedup_floor = 0.0;  ///< the gated cold/staged ratio
};

/// Timed repetitions per side; the report keeps each side's median, so one
/// noisy run on a shared machine cannot move the speedup.
constexpr int kRepetitions = 5;

struct CaseResult {
  double cold_ms = 0.0;    ///< median over kRepetitions
  double staged_ms = 0.0;  ///< median over kRepetitions
  bool bit_identical = true;
  std::uint64_t staged_explorations = 0;
  std::uint64_t staged_solves = 0;
  std::uint64_t cold_explorations = 0;
  std::uint64_t cold_solves = 0;
  core::StageCacheStats stats;
  bool reuse_ok = true;
};

std::uint64_t solves_in(const obs::MetricsSnapshot& snapshot) {
  return counter_value(snapshot, "markov.solver.mrgp_solves") +
         counter_value(snapshot, "markov.solver.ctmc_solves");
}

/// One timed sweep and the explorations and solves it caused.
struct TimedSweep {
  std::vector<core::SweepPoint> points;
  double ms = 0.0;
  std::uint64_t explorations = 0;
  std::uint64_t solves = 0;
};

TimedSweep timed_sweep(const SweepCase& c,
                       const core::ReliabilityAnalyzer& analyzer) {
  TimedSweep run;
  const auto before = obs::Registry::global().snapshot();
  const auto start = Clock::now();
  run.points = core::sweep_parameter(analyzer, c.base, c.setter, c.values);
  run.ms = ms_since(start);
  const auto after = obs::Registry::global().snapshot();
  run.explorations = counter_value(after, "petri.reachability.builds") -
                     counter_value(before, "petri.reachability.builds");
  run.solves = solves_in(after) - solves_in(before);
  return run;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

CaseResult run_case(const SweepCase& c,
                    const core::ReliabilityAnalyzer::Options& options) {
  CaseResult r;
  // Cold baseline: every point explores, assembles, solves, and attaches
  // rewards from scratch (no cache level is read or written). Staged path:
  // the same sweep with the same options apart from use_cache.
  core::ReliabilityAnalyzer::Options cold_options = options;
  cold_options.use_cache = false;
  const core::ReliabilityAnalyzer cold(cold_options);
  core::ReliabilityAnalyzer::Options staged_options = options;
  staged_options.use_cache = true;
  const core::ReliabilityAnalyzer staged(staged_options);

  std::vector<double> cold_ms, staged_ms;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const TimedSweep cold_run = timed_sweep(c, cold);
    // Freshly cleared stage caches, so the staged run pays its one
    // exploration (and one solve) again and the hit/miss stats are its own.
    core::clear_stage_caches();
    const TimedSweep staged_run = timed_sweep(c, staged);
    cold_ms.push_back(cold_run.ms);
    staged_ms.push_back(staged_run.ms);
    r.cold_explorations = cold_run.explorations;
    r.cold_solves = cold_run.solves;
    r.staged_explorations = staged_run.explorations;
    r.staged_solves = staged_run.solves;
    r.stats = core::stage_cache_stats();

    // The staged curve must be bit-identical to the cold curve.
    bool identical = staged_run.points.size() == cold_run.points.size();
    for (std::size_t i = 0; identical && i < cold_run.points.size(); ++i)
      identical = staged_run.points[i].x == cold_run.points[i].x &&
                  staged_run.points[i].expected_reliability ==
                      cold_run.points[i].expected_reliability;
    r.bit_identical = r.bit_identical && identical;

    // Reuse invariants: one exploration per sweep, and for a reward-only
    // sweep one solve; the cold run must have done the full work per point.
    r.reuse_ok = r.reuse_ok && staged_run.explorations == 1 &&
                 cold_run.explorations == c.values.size() &&
                 cold_run.solves == c.values.size() &&
                 (!c.reward_only || staged_run.solves == 1);
  }
  r.cold_ms = median(cold_ms);
  r.staged_ms = median(staged_ms);
  return r;
}

void report_case(const SweepCase& c, const CaseResult& r,
                 bench::JsonResult& json) {
  const double speedup = r.staged_ms > 0.0 ? r.cold_ms / r.staged_ms : 0.0;
  std::printf("\n%s — %s\n", c.id.c_str(), c.what.c_str());
  std::printf("  (times: median of %d runs per side)\n", kRepetitions);
  std::printf("  cold sweep     : %8.2f ms  (%llu explorations, %llu "
              "solves)\n",
              r.cold_ms, static_cast<unsigned long long>(r.cold_explorations),
              static_cast<unsigned long long>(r.cold_solves));
  std::printf("  staged         : %8.2f ms  (%llu exploration%s, %llu "
              "solve%s)\n",
              r.staged_ms,
              static_cast<unsigned long long>(r.staged_explorations),
              r.staged_explorations == 1 ? "" : "s",
              static_cast<unsigned long long>(r.staged_solves),
              r.staged_solves == 1 ? "" : "s");
  std::printf("  speedup        : %8.1fx\n", speedup);
  std::printf("  bit-identical  : %s   reuse invariants: %s\n",
              r.bit_identical ? "yes" : "NO", r.reuse_ok ? "ok" : "VIOLATED");
  std::printf("  stage caches   : structure %llu/%llu, rates %llu/%llu, "
              "reward_table %llu/%llu (hits/misses)\n",
              static_cast<unsigned long long>(r.stats.structure.hits),
              static_cast<unsigned long long>(r.stats.structure.misses),
              static_cast<unsigned long long>(r.stats.rates.hits),
              static_cast<unsigned long long>(r.stats.rates.misses),
              static_cast<unsigned long long>(r.stats.reward_table.hits),
              static_cast<unsigned long long>(r.stats.reward_table.misses));
  const std::string config = bench::default_config();
  const auto add = [&](const char* layer, const char* metric,
                       const char* unit, double value, bench::Rule rule = {}) {
    json.add(c.id, layer, metric, unit, value, config, std::move(rule));
  };
  add("core.staged", "points", "count", static_cast<double>(c.values.size()));
  add("core.staged", "cold_ms", "ms", r.cold_ms);
  add("core.staged", "staged_ms", "ms", r.staged_ms);
  add("core.staged", "speedup", "ratio", speedup,
      bench::bound("ge", c.speedup_floor));
  add("core.staged", "bit_identical_to_cold", "bool",
      r.bit_identical ? 1.0 : 0.0, bench::bound("eq", 1.0));
  add("petri.reachability", "staged_explorations", "count",
      static_cast<double>(r.staged_explorations), bench::bound("eq", 1.0));
  add("markov.solve", "staged_solves", "count",
      static_cast<double>(r.staged_solves),
      c.reward_only ? bench::bound("eq", 1.0) : bench::Rule{});
  add("petri.reachability", "cold_explorations", "count",
      static_cast<double>(r.cold_explorations));
  add("markov.solve", "cold_solves", "count",
      static_cast<double>(r.cold_solves));
  add("core.staged", "structure_cache_misses", "count",
      static_cast<double>(r.stats.structure.misses));
  add("core.staged", "rates_cache_misses", "count",
      static_cast<double>(r.stats.rates.misses));
  add("core.staged", "reward_table_cache_misses", "count",
      static_cast<double>(r.stats.reward_table.misses));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nvp;
  bench::Harness harness(argc, argv, "sweep_throughput",
                         "staged pipeline cross-point reuse vs cold "
                         "per-point sweeps");
  const auto points =
      static_cast<std::size_t>(harness.args().get_int("points", 50));

  std::vector<SweepCase> cases;
  {
    // Reward-only: alpha touches neither the structure nor the rates, so
    // the whole sweep shares one stationary distribution.
    SweepCase c;
    c.id = "alpha_sweep_6v";
    c.what = "reward-only alpha sweep, paper six-version model (MRGP): "
             "one exploration + one solve for the whole sweep";
    c.base = bench::six_version();
    c.setter = core::set_alpha();
    c.values = core::linspace(0.5, 0.999, points);
    c.reward_only = true;
    c.speedup_floor = 10.0;
    cases.push_back(c);
  }
  {
    // Rate-only: MTTC needs a solve per point, so the win is bounded by
    // the exploration/assembly share of the cold cost — which grows with
    // the state space. N=40 f=13 plain is the library's large pure-CTMC
    // regime (861 tangible states, sparse Krylov backend).
    SweepCase c;
    c.id = "mttc_sweep_n40";
    c.what = "rate-only MTTC sweep, N=40 f=13 plain model (861-state pure "
             "CTMC, sparse backend): one exploration, a solve per point";
    c.base = bench::six_version();
    c.base.n_versions = 40;
    c.base.max_faulty = 13;
    c.base.rejuvenation = false;
    c.setter = core::set_mean_time_to_compromise();
    c.values = core::linspace(500.0, 5000.0, points);
    c.speedup_floor = 2.0;
    cases.push_back(c);
  }

  bench::JsonResult json(
      "bench_sweep_throughput",
      "50-point sweeps: alpha_sweep_6v is reward-only (paper six-version "
      "MRGP, one exploration and one solve per sweep), mttc_sweep_n40 "
      "rate-only (N=40 f=13 plain, an 861-state pure CTMC on the sparse "
      "backend, one exploration and a solve per point); cold = a "
      "use_cache=false analyzer in the same binary; cold_ms and staged_ms "
      "are each the median of 5 timed whole sweeps, the staged ones on "
      "freshly cleared stage caches");
  bool ok = true;
  for (const auto& c : cases) {
    const CaseResult r = run_case(c, core::ReliabilityAnalyzer::Options{});
    report_case(c, r, json);
    ok = ok && r.bit_identical && r.reuse_ok;
  }
  bench::write_result(json, "BENCH_sweep.json");
  if (!ok) {
    std::printf("\nFAIL: staged sweep diverged from the cold path (see "
                "above)\n");
    return 1;
  }
  std::printf("\nOK: staged sweeps bit-identical to cold, reuse invariants "
              "hold\n");
  return 0;
}
