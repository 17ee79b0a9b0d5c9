#include "src/core/architecture_space.hpp"

#include <algorithm>
#include <numeric>

#include "src/core/engine.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/thread_pool.hpp"
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
    const SystemParameters& base) const {
  NVP_EXPECTS(options_.max_versions >= 4);
  const obs::ScopedSpan span("core.architecture_space");
  ReliabilityAnalyzer::Options analyzer_options;
  analyzer_options.convention = RewardConvention::kGeneralized;
  analyzer_options.attachment = options_.attachment;
  analyzer_options.solver = options_.solver;
  // Evaluation routes through the Engine facade (the same memoized
  // analyzer path every other driver uses).
  const Engine engine(analyzer_options);

  // Enumerate every feasible candidate first, then solve them all in one
  // parallel batch — the whole-space scan is the heaviest workload in the
  // library (dozens of independent DSPN solves of growing state space).
  // Every candidate is a distinct *structure*, so there is nothing to warm
  // up front; but the staged pipeline keeps each candidate's explored
  // structure cached process-wide, so re-exploring the space under
  // different timing or reward parameters (an interval or alpha study over
  // architectures) re-explores zero reachability graphs.
  struct Candidate {
    SystemParameters params;
    int n, f, r;
    bool rejuvenation;
  };
  std::vector<Candidate> candidates;
  // Weighted-quota feasibility of a candidate's module weights (the same
  // rule validate() enforces; checked up front so infeasible splits are
  // skipped silently instead of degrading into error envelopes).
  const auto weighted_feasible = [](const SystemParameters& params) {
    std::vector<double> weights = params.module_weights();
    std::sort(weights.begin(), weights.end(), std::greater<double>());
    const double w_total =
        std::accumulate(weights.begin(), weights.end(), 0.0);
    double wf = 0.0;
    for (int i = 0;
         i < params.max_faulty && i < static_cast<int>(weights.size()); ++i)
      wf += weights[static_cast<std::size_t>(i)];
    double wr = 0.0;
    const int r = params.rejuvenation ? params.max_rejuvenating : 0;
    for (int i = 0; i < r && i < static_cast<int>(weights.size()); ++i)
      wr += weights[static_cast<std::size_t>(i)];
    return w_total + 1e-12 >= 3.0 * wf + 2.0 * wr + weights.back();
  };
  // Pushes the homogeneous candidate plus (opted in) every feasible
  // two-group split: baseline group of N - m modules and a hardened group
  // of m modules with a slower compromise rate, a heavier vote, and
  // optionally imperfect repair.
  const auto push_candidates = [&](const SystemParameters& params, int n,
                                   int f, int r, bool rejuvenation) {
    candidates.push_back({params, n, f, r, rejuvenation});
    if (!options_.heterogeneous) return;
    for (int m = 1; m < n; ++m) {
      SystemParameters hetero = params;
      ModuleGroup baseline;
      baseline.count = n - m;
      baseline.mean_time_to_compromise = params.mean_time_to_compromise;
      baseline.mean_time_to_failure = params.mean_time_to_failure;
      baseline.mean_time_to_repair = params.mean_time_to_repair;
      baseline.p = params.p;
      baseline.p_prime = params.p_prime;
      ModuleGroup hardened = baseline;
      hardened.count = m;
      hardened.mean_time_to_compromise =
          params.mean_time_to_compromise * options_.hardened_mtc_factor;
      hardened.weight = options_.hardened_weight;
      hardened.repair_degradation = options_.hardened_repair_degradation;
      hetero.groups = {baseline, hardened};
      if (!weighted_feasible(hetero)) continue;
      candidates.push_back({hetero, n, f, r, rejuvenation});
    }
  };
  for (int n = 4; n <= options_.max_versions; ++n) {
    for (int f = 1; f <= options_.max_faulty; ++f) {
      if (n >= 3 * f + 1) {
        SystemParameters params = base;
        params.n_versions = n;
        params.max_faulty = f;
        params.max_rejuvenating = 1;  // repair concurrency; unused voting-wise
        params.rejuvenation = false;
        push_candidates(params, n, f, 0, false);
      }
      for (int r = 1; r <= options_.max_rejuvenating; ++r) {
        if (n < 3 * f + 2 * r + 1) continue;
        SystemParameters params = base;
        params.n_versions = n;
        params.max_faulty = f;
        params.max_rejuvenating = r;
        params.rejuvenation = true;
        push_candidates(params, n, f, r, true);
      }
    }
  }

  static obs::Counter& degraded =
      obs::Registry::global().counter("fault.degraded_points");
  std::vector<ArchitectureResult> results(candidates.size());
  std::vector<char> done(candidates.size(), 0);
  const auto eval = [&](std::size_t i) {
    const Candidate& candidate = candidates[i];
    ArchitectureResult result;
    result.n = candidate.n;
    result.f = candidate.f;
    result.r = candidate.r;
    result.rejuvenation = candidate.rejuvenation;
    result.groups = candidate.params.groups;
    try {
      const auto analysis = engine.analyze_raw(candidate.params);
      result.expected_reliability = analysis.expected_reliability;
      result.tangible_states = analysis.tangible_states;
    } catch (const std::exception&) {
      if (options_.strict) throw;
      result.ok = false;
      result.error = fault::ErrorInfo::from_current_exception();
      degraded.add();
    }
    results[i] = std::move(result);
    done[i] = 1;
  };
  try {
    runtime::parallel_for(candidates.size(), eval);
  } catch (const std::exception&) {
    // Pool-level failure outside eval's guard: degrade the unevaluated
    // candidates into envelopes instead of dropping the whole scan.
    if (options_.strict) throw;
    const fault::ErrorInfo info = fault::ErrorInfo::from_current_exception();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (done[i]) continue;
      results[i].n = candidates[i].n;
      results[i].f = candidates[i].f;
      results[i].r = candidates[i].r;
      results[i].rejuvenation = candidates[i].rejuvenation;
      results[i].groups = candidates[i].params.groups;
      results[i].ok = false;
      results[i].error = info;
      degraded.add();
    }
  }

  // Cost-efficiency proxy relative to the cheapest architecture.
  for (auto& result : results)
    result.reliability_per_module =
        result.ok ? result.expected_reliability / static_cast<double>(result.n)
                  : 0.0;

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
