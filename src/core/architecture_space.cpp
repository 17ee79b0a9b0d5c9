#include "src/core/architecture_space.hpp"

#include <algorithm>
#include <utility>

#include "src/core/sweep.hpp"
#include "src/obs/trace.hpp"
#include "src/util/contracts.hpp"
#include "src/util/string_util.hpp"

namespace nvp::core {

std::string ArchitectureResult::label() const {
  std::string base =
      util::format("N=%d f=%d%s", n, f,
                   rejuvenation
                       ? util::format(" r=%d rejuv", r).c_str()
                       : " plain");
  for (const ModuleGroup& g : groups)
    base += util::format(" %dxw%.3g", g.count, g.weight);
  return base;
}

std::vector<ArchitectureResult> ArchitectureSpaceExplorer::explore(
    const SystemParameters& base, const fault::Policy& policy) const {
  NVP_EXPECTS(options_.max_versions >= 4);
  const obs::ScopedSpan span("core.architecture_space");
  ReliabilityAnalyzer::Options analyzer_options;
  analyzer_options.convention = RewardConvention::kGeneralized;
  analyzer_options.attachment = options_.attachment;
  analyzer_options.solver = options_.solver;
  const ReliabilityAnalyzer analyzer(analyzer_options);

  // Enumerate every feasible candidate first, then solve them all in one
  // batch — the whole-space scan is the heaviest workload in the library
  // (dozens of independent DSPN solves of growing state space). Every
  // candidate is a distinct *structure*, so the batch's serial first point
  // warms nothing the others share; but the staged pipeline keeps each
  // candidate's explored structure cached process-wide, so re-exploring the
  // space under different timing or reward parameters (an interval or alpha
  // study over architectures) re-explores zero reachability graphs.
  std::vector<ArchitectureResult> results;
  std::vector<SystemParameters> candidates;
  const auto push = [&](const SystemParameters& params, int r) {
    ArchitectureResult result;
    result.n = params.n_versions;
    result.f = params.max_faulty;
    result.r = r;
    result.rejuvenation = params.rejuvenation;
    result.groups = params.groups;
    results.push_back(std::move(result));
    candidates.push_back(params);
  };
  // Pushes the homogeneous candidate plus (opted in) every feasible
  // two-group split: baseline group of N - m modules and a hardened group
  // of m modules with a slower compromise rate, a heavier vote, and
  // optionally imperfect repair.
  const auto push_candidates = [&](const SystemParameters& params, int r) {
    push(params, r);
    if (!options_.heterogeneous) return;
    const int n = params.n_versions;
    for (int m = 1; m < n; ++m) {
      SystemParameters hetero = params;
      const ModuleGroup baseline = params.inherited_group(n - m);
      ModuleGroup hardened = baseline;
      hardened.count = m;
      hardened.mean_time_to_compromise =
          params.mean_time_to_compromise * options_.hardened_mtc_factor;
      hardened.weight = options_.hardened_weight;
      hardened.repair_degradation = options_.hardened_repair_degradation;
      hetero.groups = {baseline, hardened};
      // Infeasible splits are skipped silently instead of degrading into
      // error envelopes.
      if (!hetero.weighted_feasible()) continue;
      push(hetero, r);
    }
  };
  for (int n = 4; n <= options_.max_versions; ++n) {
    for (int f = 1; f <= options_.max_faulty; ++f) {
      // r = 0 is the plain architecture (repair concurrency 1, unused
      // voting-wise); r >= 1 rejuvenates r modules at a time.
      for (int r = 0; r <= options_.max_rejuvenating; ++r) {
        if (n < 3 * f + 2 * r + 1) continue;
        SystemParameters params = base;
        params.n_versions = n;
        params.max_faulty = f;
        params.max_rejuvenating = std::max(r, 1);
        params.rejuvenation = r > 0;
        push_candidates(params, r);
      }
    }
  }

  std::vector<PointResult> evaluated =
      analyze_points(analyzer, candidates, policy);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ArchitectureResult& result = results[i];
    result.expected_reliability = evaluated[i].expected_reliability;
    result.tangible_states = evaluated[i].tangible_states;
    result.ok = evaluated[i].ok;
    result.error = std::move(evaluated[i].error);
    // Cost-efficiency proxy: reliability per module version.
    result.reliability_per_module =
        result.ok ? result.expected_reliability / static_cast<double>(result.n)
                  : 0.0;
  }

  std::sort(results.begin(), results.end(),
            [](const ArchitectureResult& a, const ArchitectureResult& b) {
              return a.expected_reliability > b.expected_reliability;
            });
  return results;
}

std::vector<ArchitectureResult>
ArchitectureSpaceExplorer::best_within_budget(const SystemParameters& base,
                                              int budget) const {
  auto all = explore(base);
  std::vector<ArchitectureResult> feasible;
  for (const auto& result : all)
    if (result.n <= budget) feasible.push_back(result);
  return feasible;
}

}  // namespace nvp::core
