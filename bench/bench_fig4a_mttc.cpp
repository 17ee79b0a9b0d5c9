// E3 — Fig. 4(a): influence of the mean time to compromise/degrade a
// module (1/lambda_c) over expected reliability, four-version (no
// rejuvenation) vs six-version (rejuvenation). Paper: the 4v system wins
// for 1/lambda_c < ~525 s and > ~6000 s; the 6v system wins in between.

#include "bench_common.hpp"
#include "src/core/engine.hpp"

int main(int argc, char** argv) {
  using namespace nvp;
  const bench::Harness harness(argc, argv, "E3 (Fig. 4a)",
                               "E[R] vs mean time to compromise 1/lambda_c");

  const core::Engine engine;
  std::vector<double> values;
  for (double v : {100.0, 200.0, 300.0, 400.0, 525.0, 700.0, 1000.0,
                   1523.0, 2000.0, 3000.0, 4000.0, 6000.0, 8000.0, 12000.0,
                   20000.0, 50000.0})
    values.push_back(v);

  const auto four = engine.sweep(bench::four_version(),
                                 core::set_mean_time_to_compromise(), values);
  const auto six = engine.sweep(bench::six_version(),
                                core::set_mean_time_to_compromise(), values);

  util::TextTable table(
      {"1/lambda_c (s)", "E[R_4v]", "E[R_6v]", "winner"});
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < values.size(); ++i) {
    table.row({util::format("%.0f", values[i]),
               util::format("%.6f", four[i].expected_reliability),
               util::format("%.6f", six[i].expected_reliability),
               four[i].expected_reliability > six[i].expected_reliability
                   ? "4v"
                   : "6v"});
    rows.push_back({values[i], four[i].expected_reliability,
                    six[i].expected_reliability});
  }
  std::printf("%s\n", table.render().c_str());
  bench::chart("mean time to compromise 1/lambda_c (s)",
               {bench::to_series("4v no rejuv", four),
                bench::to_series("6v rejuv", six)});

  const auto crossovers = engine.crossovers(
      bench::four_version(), bench::six_version(),
      core::set_mean_time_to_compromise(), values, 1.0);
  std::printf("\ncrossovers (paper: ~525 s and ~6000 s):\n");
  for (const auto& c : crossovers)
    std::printf("  1/lambda_c = %.0f s (E[R] = %.6f)\n", c.x,
                c.reliability);

  bench::dump_csv("fig4a_mttc.csv", {"mttc_s", "e_r_4v", "e_r_6v"}, rows);
  bench::JsonResult result(
      "bench_fig4a_mttc",
      "4v/6v crossover points over 1/lambda_c (paper: ~525 s and ~6000 s)");
  for (std::size_t i = 0; i < crossovers.size(); ++i)
    result.add("crossovers", "core.analyze",
               util::format("crossover_%zu_s", i + 1), "s",
               crossovers[i].x, bench::default_config());
  bench::write_result(result, "fig4a_mttc.json");
  return 0;
}
