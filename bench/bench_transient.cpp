// Extension — transient (mission-time) reliability: how E[R(t)] evolves
// from an all-healthy start, analytic uniformization for the four-version
// system and replicated simulation for the Markov-regenerative six-version
// system; plus first-loss-of-availability statistics. The paper analyzes
// steady state only; this answers the mission-oriented question.

#include "bench_common.hpp"
#include "src/core/model_factory.hpp"
#include "src/core/staged.hpp"
#include "src/core/transient.hpp"
#include "src/sim/transient_profile.hpp"

int main() {
  using namespace nvp;
  bench::banner("extension", "transient reliability E[R(t)] and first loss "
                             "of availability");

  const core::TransientReliabilityAnalyzer transient;
  std::vector<double> times;
  for (double t = 0.0; t <= 14400.0; t += 600.0) times.push_back(t);

  const auto four_curve =
      transient.reliability_curve(bench::four_version(), times);

  // Six-version (rejuvenating) transients by simulation, with the
  // analyzer's default reward.
  const auto six_params = bench::six_version();
  const auto model = core::PerceptionModelFactory::build(six_params);
  const sim::DspnSimulator simulator(model.net);
  const markov::MarkingReward reward = core::marking_reward(six_params, {});
  const auto six_profile =
      sim::transient_profile(simulator, reward, 14400.0, 24, 48, 77);

  util::TextTable table({"t (s)", "E[R_4v(t)] analytic",
                         "E[R_6v(t)] simulated (95% CI half-width)"});
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < four_curve.size(); ++i) {
    std::string six_cell = "-";
    double six_value = 0.0;
    if (i > 0) {
      // Bucket i-1 covers [t_{i-1}, t_i]; report it at the bucket end.
      const auto& bucket = six_profile[(i - 1) * six_profile.size() /
                                       (four_curve.size() - 1)];
      six_value = bucket.mean;
      six_cell = util::format("%.5f (+-%.5f)", bucket.mean,
                              bucket.ci.half_width());
    }
    table.row({util::format("%.0f", four_curve[i].time),
               util::format("%.5f", four_curve[i].expected_reliability),
               six_cell});
    rows.push_back({four_curve[i].time,
                    four_curve[i].expected_reliability, six_value});
  }
  std::printf("%s", table.render().c_str());

  std::printf(
      "\nfirst loss of decidability (fewer than 2f+1 = %d operational "
      "modules), 4-version:\n",
      bench::four_version().voting_threshold());
  std::printf("  mean time: %.0f s (~%.1f h)\n",
              transient.mean_time_to_unavailability(bench::four_version()),
              transient.mean_time_to_unavailability(bench::four_version()) /
                  3600.0);
  for (double deadline : {3600.0, 24.0 * 3600.0, 7.0 * 24.0 * 3600.0})
    std::printf("  P(lost within %.0f h) = %.6f\n", deadline / 3600.0,
                transient.unavailability_probability_by(
                    bench::four_version(), deadline));

  bench::dump_csv("transient.csv",
                  {"t_s", "e_r_4v_analytic", "e_r_6v_simulated"}, rows);
  return 0;
}
