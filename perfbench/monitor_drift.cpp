// monitor_drift: one monitor::run_monitor_session per repetition, the path
// `nvpcli monitor` takes — the paper's 6v model, a step drift in the
// compromise rate at mid-session, the hysteresis policy and the default
// controller configuration, caches cleared before each session. The only
// workload where the Monte-Carlo perception runtime and the monitor's
// estimators run, and the solver sees many rates-only re-solves of one
// cached structure at intervals the controller picks.
//
// The session seed is fixed rather than drawn from the workload seed: the
// controller's re-solve count follows the simulated verdict stream, and
// across session seeds one session's wall time ranged from 0.9 s to 2.2 s,
// a spread no regression bound could hold.

#include <cmath>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "src/monitor/session.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/util/string_util.hpp"

namespace perfbench {

namespace {

namespace nc = nvp::core;
namespace nmon = nvp::monitor;

constexpr double kHorizon = 20000.0;
constexpr std::uint64_t kSessionSeed = 2024;
/// The session's reliability is a Monte-Carlo frame count; the kAuto
/// session must reproduce the dense-backend reference session exactly up
/// to this tolerance (it is exact unless a controller decision flips).
constexpr double kReliabilityTolerance = 1e-9;

nmon::SessionConfig make_config() {
  nmon::SessionConfig config;
  config.params = nc::SystemParameters::paper_six_version();
  config.schedule.kind = nmon::DriftSchedule::Kind::kStep;
  config.schedule.period = kHorizon / 2.0;
  config.duration = kHorizon;
  config.seed = kSessionSeed;
  config.policy = "hysteresis";
  // As nvpcli monitor: the policy clamp matches the optimizer's range.
  config.hysteresis.min_interval = config.controller.interval_lo;
  config.hysteresis.max_interval = config.controller.interval_hi;
  return config;
}

struct Session {
  nmon::SessionResult result;
  double wall_s = 0.0;
  double builds = 0.0;
};

/// One session; the caller clears the caches first.
Session run_session(const nc::Engine& engine,
                    const nmon::SessionConfig& config) {
  Session s;
  const Probe before = Probe::take();
  const auto start = Clock::now();
  s.result = nmon::run_monitor_session(engine, config);
  s.wall_s = seconds_since(start);
  s.builds = delta(before, Probe::take(), "petri.reachability.builds");
  return s;
}

void check_session(Report& report, const Session& s, double reference) {
  report.check(s.builds == 1.0,
               nvp::util::format("monitor session did %.0f reachability "
                                 "builds (expected 1)",
                                 s.builds));
  report.check(s.result.degraded_updates == 0,
               "monitor session had degraded updates");
  report.check(std::abs(s.result.reliability - reference) <=
                   kReliabilityTolerance,
               nvp::util::format("monitor reliability %.12f vs reference "
                                 "%.12f",
                                 s.result.reliability, reference));
}

}  // namespace

int run_monitor_drift(const Args& args) {
  Report report(args);
  nvp::runtime::set_default_jobs(nproc());
  const nmon::SessionConfig config = make_config();

  // Set-up: the same session on the dense backend (the reference), run
  // three times; setup_s is the median.
  nc::ReliabilityAnalyzer::Options dense;
  dense.solver.backend = nvp::markov::SolverBackend::kDense;
  const nc::Engine reference_engine(dense);
  std::vector<double> setups;
  double reference = 0.0;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    nc::clear_stage_caches();
    reference = run_session(reference_engine, config).result.reliability;
    setups.push_back(seconds_since(start));
  }
  const nc::Engine engine;

  if (!args.trace) {
    std::vector<double> walls;
    const auto start = Clock::now();
    Session last;
    do {
      nc::clear_stage_caches();
      last = run_session(engine, config);
      walls.push_back(last.wall_s);
      check_session(report, last, reference);
    } while (seconds_since(start) < args.seconds);
    std::vector<double> walls_ms;
    for (double w : walls) walls_ms.push_back(1e3 * w);
    const std::string basis =
        nvp::util::format("%zu sessions of %.0f s simulated time",
                          walls.size(), kHorizon);
    report.metric("setup_s", median(setups), "s",
                  "median of 3 dense-backend reference sessions");
    report.metric("wall_s", median(walls), "s", basis);
    report.metric("p50_ms", quantile(walls_ms, 0.5), "ms", basis);
    report.metric("p99_ms", quantile(walls_ms, 0.99), "ms", basis);
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB", "VmHWM");
    report.figure("reliability", last.result.reliability, "ratio",
                  nvp::util::format("session E[R]; reference %.12f",
                                    reference));
    report.figure("resolves", double(last.result.resolves), "count",
                  "controller re-solves per session");
    return report.finish();
  }

  std::vector<double> untraced, traced_walls;
  Window window;
  const auto start = Clock::now();
  do {
    nc::clear_stage_caches();
    const Session plain = run_session(engine, config);
    untraced.push_back(plain.wall_s);
    check_session(report, plain, reference);
    Session s;
    nc::clear_stage_caches();
    window = traced([&] { s = run_session(engine, config); });
    traced_walls.push_back(s.wall_s);
    check_session(report, s, reference);
  } while (seconds_since(start) < args.seconds);

  report.span_table(window);
  report.layers_from(window);
  report.layer("obs.trace_overhead_pct",
               100.0 * (median(traced_walls) / median(untraced) - 1.0),
               nvp::util::format("median traced / untraced session, %zu "
                                 "pairs",
                                 untraced.size()));
  report.layer("core.engine.envelope_us",
               engine_envelope_us(engine, config.params),
               "median Engine::analyze - median analyze_raw, warm 6v");
  // The perception runtime alone: the same campaign at the nominal
  // interval, no controller.
  const auto campaign_start = Clock::now();
  const auto campaign =
      nmon::run_static_campaign(config, config.params.rejuvenation_interval);
  const double campaign_s = seconds_since(campaign_start);
  report.layer("perception.campaign.ms", 1e3 * campaign_s,
               "run_static_campaign, same horizon and seed");
  report.layer("perception.frames_per_s", double(campaign.frames) / campaign_s,
               nvp::util::format("%llu frames / campaign wall",
                                 static_cast<unsigned long long>(
                                     campaign.frames)));
  probe_stages("6v N=6 f=1 r=1", config.params);
  return report.finish();
}

}  // namespace perfbench
