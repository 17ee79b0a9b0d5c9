// Extension — architecture-space exploration: the paper evaluates two
// points (4v plain, 6v rejuvenating); this sweeps every feasible
// (N, f, r, rejuvenation) combination up to N = 10 under the generalized
// reliability model and reports the reliability / module-count frontier,
// answering the deployment question the paper's future work raises.

#include "bench_common.hpp"
#include "src/core/engine.hpp"

int main(int argc, char** argv) {
  using namespace nvp;
  const bench::Harness harness(
      argc, argv, "extension",
      "feasible (N, f, r, rejuvenation) architectures, "
      "generalized rewards");

  const core::Engine engine;
  core::ArchitectureSpaceExplorer explorer;
  const auto results = engine.architectures(bench::six_version());

  util::TextTable table({"architecture", "E[R]", "states", "E[R]/module"});
  std::vector<std::vector<double>> rows;
  for (const auto& result : results) {
    table.row({result.label(),
               util::format("%.6f", result.expected_reliability),
               std::to_string(result.tangible_states),
               util::format("%.6f", result.reliability_per_module)});
    rows.push_back({static_cast<double>(result.n),
                    static_cast<double>(result.f),
                    static_cast<double>(result.r),
                    result.rejuvenation ? 1.0 : 0.0,
                    result.expected_reliability});
  }
  std::printf("%s", table.render().c_str());

  std::printf("\nbest architecture per module budget:\n");
  for (int budget = 4; budget <= 10; ++budget) {
    const auto feasible =
        explorer.best_within_budget(bench::six_version(), budget);
    if (feasible.empty()) continue;
    std::printf("  <= %2d modules: %-22s E[R] = %.6f\n", budget,
                feasible.front().label().c_str(),
                feasible.front().expected_reliability);
  }
  std::printf(
      "\nreading: rejuvenation buys more than extra replicas once the "
      "budget admits n >= 3f + 2r + 1; raising f without the modules to "
      "back it costs reliability.\n");

  bench::dump_csv("architecture_space.csv",
                  {"n", "f", "r", "rejuvenation", "e_r"}, rows);
  bench::JsonResult result(
      "bench_architecture_space",
      "feasible (N, f, r, rejuvenation) architectures up to N = 10 under "
      "generalized rewards; best is the highest-E[R] one");
  const std::string config = bench::default_config();
  result.add("space", "core.analyze", "architectures_evaluated", "count",
             static_cast<double>(results.size()), config);
  if (!results.empty()) {
    const auto& best = results.front();
    const auto add = [&](const char* metric, const char* unit, double value) {
      result.add("best", "core.analyze", metric, unit, value, config);
    };
    add("n", "count", best.n);
    add("f", "count", best.f);
    add("r", "count", best.r);
    add("rejuvenation", "bool", best.rejuvenation ? 1.0 : 0.0);
    add("e_r", "prob", best.expected_reliability);
  }
  bench::write_result(result, "architecture_space.json");
  return 0;
}
