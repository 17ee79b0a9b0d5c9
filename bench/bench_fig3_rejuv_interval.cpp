// E2 — Fig. 3: influence of the rejuvenation interval 1/gamma over the
// expected reliability of the six-version perception system. Paper: sweep
// 200..3000 s, maximum near 400-450 s, decline for long intervals.

#include "bench_common.hpp"
#include "src/core/engine.hpp"

int main(int argc, char** argv) {
  using namespace nvp;
  const bench::Harness harness(
      argc, argv, "E2 (Fig. 3)",
      "E[R_6v] vs rejuvenation interval 1/gamma (200..3000 s)");

  const core::Engine engine;
  std::vector<double> intervals;
  for (double v = 200.0; v <= 3000.0; v += 100.0) intervals.push_back(v);
  const auto points = engine.sweep(bench::six_version(),
                                   core::set_rejuvenation_interval(),
                                   intervals);

  util::TextTable table({"1/gamma (s)", "E[R_6v]"});
  std::vector<std::vector<double>> rows;
  for (const auto& p : points) {
    table.row({util::format("%.0f", p.x),
               util::format("%.6f", p.expected_reliability)});
    rows.push_back({p.x, p.expected_reliability});
  }
  std::printf("%s\n", table.render().c_str());
  bench::chart("rejuvenation interval 1/gamma (s)",
               {bench::to_series("6v rejuvenation", points)});

  const auto optimum = engine.optimize_rejuvenation_interval(
      bench::six_version(), 200.0, 3000.0, 24, 1.0);
  std::printf(
      "\nmaximum: E[R] = %.6f at 1/gamma = %.0f s "
      "(paper: maximum in 400-450 s)\n",
      optimum.expected_reliability, optimum.x);
  std::printf("reference point: paper E[R] = 0.93464665 at 1/gamma = 600\n");

  bench::dump_csv("fig3_rejuv_interval.csv", {"interval_s", "e_r_6v"},
                  rows);
  bench::JsonResult result(
      "bench_fig3_rejuv_interval",
      "argmax of E[R_6v] over 1/gamma in [200, 3000] s (24-point grid, "
      "1 s tolerance)");
  const std::string config = bench::default_config();
  result.add("optimum", "core.analyze", "interval_s", "s", optimum.x,
             config);
  result.add("optimum", "core.analyze", "e_r", "prob",
             optimum.expected_reliability, config);
  result.add("optimum", "core.analyze", "evaluations", "count",
             static_cast<double>(optimum.evaluations), config);
  bench::write_result(result, "fig3_rejuv_interval.json");
  return 0;
}
