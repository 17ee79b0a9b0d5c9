// design_study: the analysis loop of the paper as `nvpcli sweep` /
// `nvpcli optimize` run it — one in-process caller of core::Engine with
// --jobs = nproc, kAuto dispatch, no store, every in-memory cache cleared at
// the start of each repetition.
//
// One repetition: a rejuvenation-interval sweep plus
// optimize_rejuvenation_interval on three rejuvenating architectures (the
// paper's 6v model, 70 states; N=8 f=1 r=1, 117 states; N=10 f=2 r=1, 176
// states), then an MTTC sweep of a non-rejuvenating N=20 f=6 family (231
// states, above the 128-state CTMC threshold). The intervals span ~100-3000
// s, so q_max*tau — which the matrix-free cost grows with — ranges over
// more than an order of magnitude on every MRGP size.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/util/rng.hpp"
#include "src/util/string_util.hpp"

namespace perfbench {

namespace {

namespace nc = nvp::core;

struct Architecture {
  std::string name;
  nc::SystemParameters base;
  std::vector<double> intervals;
  std::size_t grid_points = 0;
};

struct Study {
  std::vector<Architecture> rejuvenating;
  nc::SystemParameters mttc_base;
  std::vector<double> mttcs;
  std::size_t sweep_points = 0;
};

constexpr double kOptimizeLo = 100.0;
constexpr double kOptimizeHi = 3000.0;
constexpr double kOracleTolerance = 1e-10;

nc::SystemParameters architecture(nc::SystemParameters base, int n, int f,
                                  int r) {
  base.n_versions = n;
  base.max_faulty = f;
  base.max_rejuvenating = r;
  return base;
}

/// The study's inputs. The seed moves each sweep's end points by under one
/// second, so every seed solves distinct points while the work — which
/// grows with the interval — stays the same from seed to seed.
Study make_study(std::uint64_t seed) {
  nvp::util::RandomStream rng(nvp::util::substream_seed(seed, 1));
  const auto intervals = [&](std::size_t points) {
    const double lo = rng.uniform(100.0, 101.0);
    const double hi = rng.uniform(2999.0, 3000.0);
    return nc::linspace(lo, hi, points);
  };
  const nc::SystemParameters six = nc::SystemParameters::paper_six_version();
  Study study;
  study.rejuvenating.push_back({"6v N=6 f=1 r=1", six, intervals(20), 12});
  study.rejuvenating.push_back(
      {"N=8 f=1 r=1", architecture(six, 8, 1, 1), intervals(12), 8});
  study.rejuvenating.push_back(
      {"N=10 f=2 r=1", architecture(six, 10, 2, 1), intervals(8), 8});
  study.mttc_base = architecture(nc::SystemParameters::paper_four_version(),
                                 20, 6, 1);
  study.mttcs =
      nc::linspace(rng.uniform(500.0, 501.0), rng.uniform(4999.0, 5000.0), 10);
  for (const Architecture& a : study.rejuvenating)
    study.sweep_points += a.intervals.size();
  study.sweep_points += study.mttcs.size();
  return study;
}

/// Dense-oracle reliability of every sweep point, in sweep order (the
/// MTTC sweep last): caches bypassed, dense backend forced.
nc::ReliabilityAnalyzer dense_oracle() {
  nc::ReliabilityAnalyzer::Options options;
  options.use_cache = false;
  options.solver.backend = nvp::markov::SolverBackend::kDense;
  return nc::ReliabilityAnalyzer(options);
}

std::vector<std::vector<double>> solve_oracle(const Study& study) {
  const nc::ReliabilityAnalyzer oracle = dense_oracle();
  std::vector<nc::SystemParameters> points;
  for (const Architecture& a : study.rejuvenating)
    for (double x : a.intervals) {
      nc::SystemParameters p = a.base;
      p.rejuvenation_interval = x;
      points.push_back(p);
    }
  for (double x : study.mttcs) {
    nc::SystemParameters p = study.mttc_base;
    p.mean_time_to_compromise = x;
    points.push_back(p);
  }
  // Serial on purpose: set-up time is a gated metric, and a fixed serial
  // sequence of solves varies far less from run to run than a pool does.
  std::vector<double> flat;
  for (const nc::SystemParameters& p : points)
    flat.push_back(oracle.analyze(p).expected_reliability);
  std::vector<std::vector<double>> out;
  std::size_t next = 0;
  for (const Architecture& a : study.rejuvenating) {
    out.emplace_back(flat.begin() + next,
                     flat.begin() + next + a.intervals.size());
    next += a.intervals.size();
  }
  out.emplace_back(flat.begin() + next, flat.end());
  return out;
}

struct Repetition {
  double wall_s = 0.0;
  std::vector<double> call_ms;  ///< one per Engine call
  std::vector<std::vector<nc::SweepPoint>> sweeps;
  std::vector<nc::Optimum> optima;
  std::size_t analyses = 0;  ///< sweep points + optimizer evaluations
};

/// One repetition; the caller clears the caches first.
Repetition run_repetition(const nc::Engine& engine, const Study& study) {
  Repetition rep;
  const auto start = Clock::now();
  for (const Architecture& a : study.rejuvenating) {
    auto call = Clock::now();
    rep.sweeps.push_back(engine.sweep(
        a.base, nc::set_rejuvenation_interval(), a.intervals));
    rep.call_ms.push_back(ms_since(call));
    call = Clock::now();
    rep.optima.push_back(engine.optimize_rejuvenation_interval(
        a.base, kOptimizeLo, kOptimizeHi, a.grid_points));
    rep.call_ms.push_back(ms_since(call));
  }
  const auto call = Clock::now();
  rep.sweeps.push_back(engine.sweep(
      study.mttc_base, nc::set_mean_time_to_compromise(), study.mttcs));
  rep.call_ms.push_back(ms_since(call));
  rep.wall_s = seconds_since(start);
  rep.analyses = study.sweep_points;
  for (const nc::Optimum& o : rep.optima) rep.analyses += o.evaluations;
  return rep;
}

/// Every sweep point against the dense oracle, and every optimum's value
/// against a dense solve at the optimum's interval.
void check_repetition(Report& report, const Study& study,
                      const Repetition& rep,
                      const std::vector<std::vector<double>>& oracle) {
  for (std::size_t s = 0; s < rep.sweeps.size(); ++s)
    for (std::size_t i = 0; i < rep.sweeps[s].size(); ++i) {
      const nc::SweepPoint& p = rep.sweeps[s][i];
      const double want = oracle[s][i];
      report.check(p.ok && std::abs(p.expected_reliability - want) <=
                               kOracleTolerance,
                   nvp::util::format("design_study sweep %zu point x=%.17g: "
                                     "%.17g vs dense oracle %.17g",
                                     s, p.x, p.expected_reliability, want));
    }
  const nc::ReliabilityAnalyzer oracle_analyzer = dense_oracle();
  for (std::size_t a = 0; a < rep.optima.size(); ++a) {
    nc::SystemParameters p = study.rejuvenating[a].base;
    p.rejuvenation_interval = rep.optima[a].x;
    const double want = oracle_analyzer.analyze(p).expected_reliability;
    report.check(
        std::abs(rep.optima[a].expected_reliability - want) <=
            kOracleTolerance,
        nvp::util::format("design_study optimum of %s at %.6g: %.17g vs "
                          "dense oracle %.17g",
                          study.rejuvenating[a].name.c_str(), rep.optima[a].x,
                          rep.optima[a].expected_reliability, want));
  }
}

/// The paper's headline values still reproduce (bench_results/headline.csv
/// rounded to six places).
void check_headline(Report& report, const nc::Engine& engine) {
  const double four =
      engine.analyze(nc::SystemParameters::paper_four_version())
          .analysis.expected_reliability;
  const double six = engine.analyze(nc::SystemParameters::paper_six_version())
                         .analysis.expected_reliability;
  report.check(std::abs(four - 0.821456) <= 5e-7,
               nvp::util::format("headline 4v %.9f != 0.821456", four));
  report.check(std::abs(six - 0.937481) <= 5e-7,
               nvp::util::format("headline 6v %.9f != 0.937481", six));
}

}  // namespace

int run_design_study(const Args& args) {
  Report report(args);
  const std::size_t jobs = nproc();
  nvp::runtime::set_default_jobs(jobs);

  // Set-up: the inputs and their dense-oracle answers, made three times;
  // setup_s is the median.
  std::vector<double> setups;
  Study study;
  std::vector<std::vector<double>> oracle;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    nc::clear_stage_caches();
    study = make_study(args.seed);
    oracle = solve_oracle(study);
    setups.push_back(seconds_since(start));
  }
  const nc::Engine engine;

  if (!args.trace) {
    std::vector<double> walls, walls_ms, calls, rates;
    const auto start = Clock::now();
    do {
      nc::clear_stage_caches();
      const Repetition rep = run_repetition(engine, study);
      walls.push_back(rep.wall_s);
      walls_ms.push_back(1e3 * rep.wall_s);
      calls.insert(calls.end(), rep.call_ms.begin(), rep.call_ms.end());
      rates.push_back(double(rep.analyses) / rep.wall_s);
      check_repetition(report, study, rep, oracle);
    } while (seconds_since(start) < args.seconds);
    check_headline(report, engine);

    report.metric("setup_s", median(setups), "s",
                  "median of 3 set-ups (inputs + dense oracle)");
    report.metric("wall_s", median(walls), "s",
                  nvp::util::format("median of %zu repetitions",
                                    walls.size()));
    const std::string reps =
        nvp::util::format("study latency, %zu repetitions", walls.size());
    report.metric("p50_ms", quantile(walls_ms, 0.5), "ms", reps);
    report.metric("p99_ms", quantile(walls_ms, 0.99), "ms", reps);
    report.figure("analyses_per_s", median(rates), "1/s",
                  "sweep points + optimizer evaluations, median repetition");
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB", "VmHWM");
    report.figure("call_p50_ms", quantile(calls, 0.5), "ms",
                  nvp::util::format("per Engine call, %zu calls",
                                    calls.size()));
    report.figure("call_max_ms", quantile(calls, 1.0), "ms",
                  "slowest Engine call");
    return report.finish();
  }

  // Traced run: alternate untraced and traced repetitions (the overhead is
  // the ratio of their medians), then one repetition at --jobs 1.
  std::vector<double> untraced, traced_walls;
  Window window;
  const auto start = Clock::now();
  do {
    nc::clear_stage_caches();
    const Repetition plain = run_repetition(engine, study);
    untraced.push_back(plain.wall_s);
    check_repetition(report, study, plain, oracle);
    Repetition rep;
    nc::clear_stage_caches();
    window = traced([&] { rep = run_repetition(engine, study); });
    traced_walls.push_back(rep.wall_s);
    check_repetition(report, study, rep, oracle);
  } while (seconds_since(start) < args.seconds);
  nvp::runtime::set_default_jobs(1);
  nc::clear_stage_caches();
  const Repetition serial = run_repetition(engine, study);
  check_repetition(report, study, serial, oracle);
  nvp::runtime::set_default_jobs(jobs);

  report.span_table(window);
  report.layers_from(window);
  const double parallel_wall = median(untraced);
  report.layer("runtime.parallel_efficiency",
               serial.wall_s / (parallel_wall * double(jobs)),
               nvp::util::format("wall(jobs=1) / (wall(jobs=%zu) x %zu) = "
                                 "%.3f / (%.3f x %zu)",
                                 jobs, jobs, serial.wall_s, parallel_wall,
                                 jobs));
  report.layer("obs.trace_overhead_pct",
               100.0 * (median(traced_walls) / parallel_wall - 1.0),
               nvp::util::format("median traced / untraced wall, %zu pairs",
                                 untraced.size()));
  report.layer("core.engine.envelope_us",
               engine_envelope_us(engine,
                                  nc::SystemParameters::paper_six_version()),
               "median Engine::analyze - median analyze_raw, warm 6v");
  for (const Architecture& a : study.rejuvenating)
    probe_stages(a.name, a.base);
  probe_stages("N=20 f=6 (CTMC)", study.mttc_base);
  return report.finish();
}

}  // namespace perfbench
