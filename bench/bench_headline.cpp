// E1 — §V-B headline numbers: expected output reliability of the
// four-version system without rejuvenation vs the six-version system with
// the time-based rejuvenation mechanism, at the default parameters of
// Table II. Paper: 0.8233477 vs 0.93464665 (~13% improvement).

#include "bench_common.hpp"
#include "src/core/engine.hpp"

int main(int argc, char** argv) {
  using namespace nvp;
  const bench::Harness harness(argc, argv, "E1 (SecV-B)",
                               "headline expected reliability, defaults");

  const core::Engine engine;
  const auto four = engine.analyze_raw(bench::four_version());
  const auto six = engine.analyze_raw(bench::six_version());

  util::TextTable table(
      {"architecture", "voting", "E[R] (paper)", "E[R] (measured)",
       "deviation"});
  table.row({"4-version, no rejuvenation", "3-out-of-4", "0.8233477",
             util::format("%.7f", four.expected_reliability),
             util::format("%+.2f%%",
                          (four.expected_reliability / 0.8233477 - 1.0) *
                              100.0)});
  table.row({"6-version, rejuvenation", "4-out-of-6", "0.93464665",
             util::format("%.7f", six.expected_reliability),
             util::format("%+.2f%%",
                          (six.expected_reliability / 0.93464665 - 1.0) *
                              100.0)});
  std::printf("%s", table.render().c_str());

  const double improvement =
      (six.expected_reliability / four.expected_reliability - 1.0) * 100.0;
  std::printf(
      "\nrejuvenation improvement: measured %+.2f%% (paper reports ~13%%, "
      "i.e. %+.2f%%)\n",
      improvement, (0.93464665 / 0.8233477 - 1.0) * 100.0);

  std::printf("\nsix-version stationary distribution (top classes):\n");
  for (std::size_t i = 0; i < six.state_distribution.size() && i < 6; ++i) {
    const auto& sp = six.state_distribution[i];
    std::printf("  (H=%d, C=%d, down=%d)  pi = %.6f  R = %.6f\n",
                sp.healthy, sp.compromised, sp.down, sp.probability,
                sp.reliability);
  }

  bench::dump_csv(
      "headline.csv",
      {"architecture", "paper", "measured"},
      {{4.0, 0.8233477, four.expected_reliability},
       {6.0, 0.93464665, six.expected_reliability}});
  bench::JsonResult result(
      "bench_headline",
      "E[R] at the Table II defaults: four_version is 3-out-of-4 voting "
      "without rejuvenation, six_version 4-out-of-6 voting with time-based "
      "rejuvenation");
  const std::string config = bench::default_config();
  result.add("four_version", "core.analyze", "e_r_paper", "prob",
             0.8233477, config);
  result.add("four_version", "core.analyze", "e_r_measured", "prob",
             four.expected_reliability, config);
  result.add("six_version", "core.analyze", "e_r_paper", "prob",
             0.93464665, config);
  result.add("six_version", "core.analyze", "e_r_measured", "prob",
             six.expected_reliability, config);
  result.add("six_version", "core.analyze", "improvement_pct", "pct",
             improvement, config);
  bench::write_result(result, "headline.json");
  return 0;
}
