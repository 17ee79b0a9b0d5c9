// E5 — Fig. 4(c): influence of the healthy-module inaccuracy p over
// expected reliability. Paper: 6v above 4v everywhere; degradation from
// p = 0.01 to 0.2 is ~13% for 6v and ~5% for 4v.

#include "bench_common.hpp"
#include "src/core/engine.hpp"

int main(int argc, char** argv) {
  using namespace nvp;
  const bench::Harness harness(argc, argv, "E5 (Fig. 4c)",
                               "E[R] vs healthy inaccuracy p");

  const core::Engine engine;
  std::vector<double> values = {0.01, 0.025, 0.05, 0.075, 0.08,
                                0.1,  0.125, 0.15, 0.175, 0.2};
  const auto four =
      engine.sweep(bench::four_version(), core::set_p(), values);
  const auto six = engine.sweep(bench::six_version(), core::set_p(), values);

  util::TextTable table({"p", "E[R_4v]", "E[R_6v]", "6v above 4v"});
  std::vector<std::vector<double>> rows;
  bool six_always_above = true;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const bool above =
        six[i].expected_reliability > four[i].expected_reliability;
    six_always_above = six_always_above && above;
    table.row({util::format("%.3f", values[i]),
               util::format("%.6f", four[i].expected_reliability),
               util::format("%.6f", six[i].expected_reliability),
               above ? "yes" : "NO"});
    rows.push_back({values[i], four[i].expected_reliability,
                    six[i].expected_reliability});
  }
  std::printf("%s\n", table.render().c_str());
  bench::chart("healthy inaccuracy p",
               {bench::to_series("4v no rejuv", four),
                bench::to_series("6v rejuv", six)});

  auto drop = [](const std::vector<core::SweepPoint>& pts) {
    return (pts.front().expected_reliability -
            pts.back().expected_reliability) /
           pts.front().expected_reliability * 100.0;
  };
  std::printf(
      "\n6v above 4v for all p: %s (paper: yes)\n"
      "degradation p 0.01 -> 0.2: 4v %.2f%% (paper ~5%%), 6v %.2f%% "
      "(paper ~13%%)\n",
      six_always_above ? "yes" : "no", drop(four), drop(six));

  bench::dump_csv("fig4c_p.csv", {"p", "e_r_4v", "e_r_6v"}, rows);
  bench::JsonResult result(
      "bench_fig4c_p",
      "relative E[R] drop from p 0.01 to 0.2 (paper: ~5% for 4v, ~13% for "
      "6v), and whether 6v stays above 4v at every p (paper: yes)");
  const std::string config = bench::default_config();
  result.add("degradation", "core.analyze", "six_always_above_four",
             "bool", six_always_above ? 1.0 : 0.0, config);
  result.add("degradation", "core.analyze", "four_version_pct", "pct",
             drop(four), config);
  result.add("degradation", "core.analyze", "six_version_pct", "pct",
             drop(six), config);
  bench::write_result(result, "fig4c_p.json");
  return 0;
}
