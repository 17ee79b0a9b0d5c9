// Extension — one-factor-at-a-time sensitivity ("tornado") report over all
// Table II parameters, generalizing the paper's four single-parameter
// sweeps (Fig. 4) into a ranked local-sensitivity table for both reference
// architectures.

#include "bench_common.hpp"
#include "src/core/engine.hpp"

int main(int argc, char** argv) {
  using namespace nvp;
  const bench::Harness harness(
      argc, argv, "extension",
      "parameter sensitivity tornado (+-10% around Table II)");

  const core::Engine engine;
  bench::JsonResult result(
      "bench_sensitivity",
      "elasticity of E[R] per +-10% parameter perturbation, largest swing "
      "first");
  for (const bool rejuvenation : {false, true}) {
    const auto params =
        rejuvenation ? bench::six_version() : bench::four_version();
    std::printf("\n%s (baseline E[R] = %.6f):\n",
                rejuvenation ? "6-version, rejuvenation"
                             : "4-version, no rejuvenation",
                engine.analyze_raw(params).expected_reliability);
    const auto report = engine.sensitivity(params, 0.10);
    std::printf("%s", core::render_tornado(report).c_str());
    for (const auto& entry : report)
      result.add(rejuvenation ? "six_version" : "four_version",
                 "core.analyze", entry.parameter + "_elasticity", "ratio",
                 entry.elasticity, bench::default_config());
  }
  bench::write_result(result, "sensitivity.json");
  std::printf(
      "\nreading: without rejuvenation, p' dominates by an order of "
      "magnitude (modules spend most time compromised — Fig. 4(d)); with "
      "rejuvenation, compromised modules get flushed, so the healthy-state "
      "parameters alpha and p take over (Fig. 4(b)/(c)) and every "
      "sensitivity shrinks ~10x — rejuvenation decouples output "
      "reliability from the threat parameters.\n");
  return 0;
}
