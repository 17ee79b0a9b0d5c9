// E6 — Fig. 4(d): influence of the compromised-module inaccuracy p' over
// expected reliability. Paper: rejuvenation (6v) only pays off for
// p' > ~0.3; below that the 4v system without rejuvenation is better.

#include "bench_common.hpp"
#include "src/core/engine.hpp"

int main(int argc, char** argv) {
  using namespace nvp;
  const bench::Harness harness(argc, argv, "E6 (Fig. 4d)",
                               "E[R] vs compromised inaccuracy p'");

  const core::Engine engine;
  const auto values = core::linspace(0.1, 0.9, 17);
  const auto four =
      engine.sweep(bench::four_version(), core::set_p_prime(), values);
  const auto six =
      engine.sweep(bench::six_version(), core::set_p_prime(), values);

  util::TextTable table({"p'", "E[R_4v]", "E[R_6v]", "winner"});
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < values.size(); ++i) {
    table.row({util::format("%.2f", values[i]),
               util::format("%.6f", four[i].expected_reliability),
               util::format("%.6f", six[i].expected_reliability),
               four[i].expected_reliability > six[i].expected_reliability
                   ? "4v"
                   : "6v"});
    rows.push_back({values[i], four[i].expected_reliability,
                    six[i].expected_reliability});
  }
  std::printf("%s\n", table.render().c_str());
  bench::chart("compromised inaccuracy p'",
               {bench::to_series("4v no rejuv", four),
                bench::to_series("6v rejuv", six)});

  const auto crossovers =
      engine.crossovers(bench::four_version(), bench::six_version(),
                        core::set_p_prime(), values, 0.002);
  std::printf("\ncrossover (paper: p' ~ 0.3):\n");
  for (const auto& c : crossovers)
    std::printf("  p' = %.3f (E[R] = %.6f)\n", c.x, c.reliability);

  bench::dump_csv("fig4d_pprime.csv", {"p_prime", "e_r_4v", "e_r_6v"},
                  rows);
  bench::JsonResult result("bench_fig4d_pprime",
                           "4v/6v crossover points over p' (paper: ~0.3)");
  for (std::size_t i = 0; i < crossovers.size(); ++i)
    result.add("crossovers", "core.analyze",
               util::format("crossover_%zu", i + 1), "prob",
               crossovers[i].x, bench::default_config());
  bench::write_result(result, "fig4d_pprime.json");
  return 0;
}
