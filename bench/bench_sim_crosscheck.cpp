// Validation (not a paper artifact): three independent estimates of the
// same quantity must agree — the analytic MRGP/CTMC solution, the
// discrete-event DSPN simulation, and the executable Monte-Carlo
// perception system. This is the evidence that the reproduction's numbers
// are not an artifact of one implementation.

#include <chrono>

#include "bench_common.hpp"
#include "src/core/model_factory.hpp"
#include "src/core/staged.hpp"
#include "src/perception/system.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/sim/dspn_simulator.hpp"

namespace {

double seconds_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  using namespace nvp;
  bench::banner("validation", "analytic vs DSPN-simulated vs Monte-Carlo");

  util::TextTable table({"architecture", "analytic (Eq. 1)",
                         "DSPN simulation (95% CI)", "Monte-Carlo system"});

  for (const bool rejuvenation : {false, true}) {
    const auto params =
        rejuvenation ? bench::six_version() : bench::four_version();

    // All three columns use the appendix attachment + generalized rewards:
    // that's the convention the executable system realizes (inconclusive
    // frames in degraded states are safe).
    core::ReliabilityAnalyzer::Options opts;
    opts.convention = core::RewardConvention::kGeneralized;
    opts.attachment = core::RewardAttachment::kAppendixMatrices;
    const auto analytic =
        core::ReliabilityAnalyzer(opts).analyze(params);

    const auto model = core::PerceptionModelFactory::build(params);
    sim::DspnSimulator simulator(model.net);
    sim::SimulationOptions sim_opts;
    sim_opts.warmup_time = 2e4;
    sim_opts.horizon = 1.5e6;
    sim_opts.seed = 12345;
    const auto est = simulator.estimate(core::marking_reward(params, opts),
                                        sim_opts, 8);

    perception::NVersionPerceptionSystem::Config cfg;
    cfg.params = params;
    cfg.seed = 999;
    cfg.frame_interval = 2.0;
    perception::NVersionPerceptionSystem system(cfg);
    const auto campaign = system.run(3e6);

    table.row({rejuvenation ? "6-version, rejuvenation"
                            : "4-version, no rejuvenation",
               util::format("%.5f", analytic.expected_reliability),
               util::format("%.5f [%.5f, %.5f]", est.mean, est.ci.lo,
                            est.ci.hi),
               util::format("%.5f", campaign.paper_reliability())});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nall three columns estimate the same steady-state quantity; "
      "agreement within the CI validates solver and model factory.\n");

  // Runtime cross-check: the parallel replication path must reproduce the
  // serial estimate bit-for-bit (per-replication RNG substreams, ordered
  // reduction), and the wall-clock ratio is the replication speedup.
  {
    const auto params = bench::six_version();
    const auto model = core::PerceptionModelFactory::build(params);
    sim::DspnSimulator simulator(model.net);
    core::ReliabilityAnalyzer::Options opts;
    opts.convention = core::RewardConvention::kGeneralized;
    opts.attachment = core::RewardAttachment::kAppendixMatrices;
    const markov::MarkingReward reward = core::marking_reward(params, opts);
    sim::SimulationOptions sim_opts;
    sim_opts.warmup_time = 1e4;
    sim_opts.horizon = 4e5;
    sim_opts.seed = 4242;

    runtime::set_default_jobs(1);
    auto start = std::chrono::steady_clock::now();
    const auto serial = simulator.estimate(reward, sim_opts, 8);
    const double serial_s = seconds_since(start);

    runtime::set_default_jobs(0);  // auto: NVP_JOBS or all cores
    const std::size_t jobs = runtime::default_jobs();
    start = std::chrono::steady_clock::now();
    const auto parallel = simulator.estimate(reward, sim_opts, 8);
    const double parallel_s = seconds_since(start);

    const bool identical = serial.mean == parallel.mean &&
                           serial.std_error == parallel.std_error;
    std::printf(
        "\nreplication runtime (8 reps, horizon %.0e): serial %.2fs, "
        "%zu-job %.2fs -> %.2fx speedup; parallel estimate %s serial\n",
        sim_opts.horizon, serial_s, jobs, parallel_s,
        parallel_s > 0.0 ? serial_s / parallel_s : 0.0,
        identical ? "bit-identical to" : "DIVERGES from");
    if (!identical) return 1;
  }
  return 0;
}
