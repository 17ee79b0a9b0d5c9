// E4 — Fig. 4(b): influence of the error-probability dependency between
// modules (alpha) over expected reliability. Paper: small overall impact —
// ~1.5% degradation for the 4v system and ~6.6% for the 6v system when
// alpha goes from 0.1 to 1.0.

#include "bench_common.hpp"
#include "src/core/engine.hpp"

int main(int argc, char** argv) {
  using namespace nvp;
  const bench::Harness harness(argc, argv, "E4 (Fig. 4b)",
                               "E[R] vs error dependency alpha");

  const core::Engine engine;
  const auto values = core::linspace(0.1, 1.0, 10);
  const auto four =
      engine.sweep(bench::four_version(), core::set_alpha(), values);
  const auto six =
      engine.sweep(bench::six_version(), core::set_alpha(), values);

  util::TextTable table({"alpha", "E[R_4v]", "E[R_6v]"});
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < values.size(); ++i) {
    table.row({util::format("%.1f", values[i]),
               util::format("%.6f", four[i].expected_reliability),
               util::format("%.6f", six[i].expected_reliability)});
    rows.push_back({values[i], four[i].expected_reliability,
                    six[i].expected_reliability});
  }
  std::printf("%s\n", table.render().c_str());
  bench::chart("error dependency alpha",
               {bench::to_series("4v no rejuv", four),
                bench::to_series("6v rejuv", six)});

  auto drop = [](const std::vector<core::SweepPoint>& pts) {
    return (pts.front().expected_reliability -
            pts.back().expected_reliability) /
           pts.front().expected_reliability * 100.0;
  };
  std::printf(
      "\ndegradation alpha 0.1 -> 1.0: 4v %.2f%% (paper ~1.5%%), "
      "6v %.2f%% (paper ~6.6%%)\n",
      drop(four), drop(six));

  bench::dump_csv("fig4b_alpha.csv", {"alpha", "e_r_4v", "e_r_6v"}, rows);
  bench::JsonResult result(
      "bench_fig4b_alpha",
      "relative E[R] drop from alpha 0.1 to 1.0 (paper: ~1.5% for 4v, "
      "~6.6% for 6v)");
  result.add("degradation", "core.analyze", "four_version_pct", "pct",
             drop(four), bench::default_config());
  result.add("degradation", "core.analyze", "six_version_pct", "pct",
             drop(six), bench::default_config());
  bench::write_result(result, "fig4b_alpha.json");
  return 0;
}
