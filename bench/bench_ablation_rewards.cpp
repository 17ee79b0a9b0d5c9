// Ablation — reward conventions: paper-verbatim appendix expressions vs the
// rigorous generalized derivation vs the strict (must-decide-correctly)
// reward, at the default parameters. Quantifies the impact of the
// appendix's simplified/typo'd entries (DESIGN.md §5) and of crediting
// inconclusive-but-safe outputs.

#include "bench_common.hpp"
#include "src/core/reliability.hpp"

int main() {
  using namespace nvp;
  bench::banner("ablation", "reward conventions (verbatim/rigorous/strict)");

  util::TextTable table(
      {"convention", "E[R_4v]", "E[R_6v]", "6v/4v improvement"});
  for (const auto convention : {core::RewardConvention::kPaperVerbatim,
                                core::RewardConvention::kGeneralized,
                                core::RewardConvention::kStrict}) {
    core::ReliabilityAnalyzer::Options opts;
    opts.convention = convention;
    const core::ReliabilityAnalyzer analyzer(opts);
    const double r4 =
        analyzer.analyze(bench::four_version()).expected_reliability;
    const double r6 =
        analyzer.analyze(bench::six_version()).expected_reliability;
    table.row({core::to_string(convention), util::format("%.6f", r4),
               util::format("%.6f", r6),
               util::format("%+.2f%%", (r6 / r4 - 1.0) * 100.0)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nverbatim reproduces the paper; generalized fixes the appendix "
      "simplifications (largest effect in state (0,4,0) of the 4v system); "
      "strict drops the credit for inconclusive-but-safe outputs. The "
      "rejuvenation advantage survives every convention.\n");

  // Per-state deltas between verbatim and generalized (4v).
  std::printf("\nper-state deltas, 4-version (verbatim - generalized):\n");
  const core::PaperFourVersionReliability verbatim(0.08, 0.5, 0.5);
  const core::GeneralizedReliability generalized(
      4, core::VotingScheme::bft(4, 1), 0.08, 0.5, 0.5);
  for (int i = 4; i >= 0; --i)
    for (int j = 4 - i; j >= 0; --j) {
      const int k = 4 - i - j;
      if (k > 1) continue;
      const double delta = verbatim.state_reliability(i, j, k) -
                           generalized.state_reliability(i, j, k);
      if (std::abs(delta) > 1e-12)
        std::printf("  R(%d,%d,%d): %+.6f\n", i, j, k, delta);
    }
  return 0;
}
