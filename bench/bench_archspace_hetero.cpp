// bench_archspace_hetero — heterogeneous architecture-space exploration at
// scale: throughput over a family of several hundred candidate
// architectures (every homogeneous (N, f, r, rejuvenation) combination up
// to --max-n plus every two-group split of it, the hardened group with a
// slower compromise rate and imperfect repair), measured cold and then
// store-warm, plus a quality comparison of the best weighted heterogeneous
// architecture against the best homogeneous one at equal module count.
//
// Phases:
//
//   family: the full candidate family is explored cold against a throwaway
//     persistent store (every candidate explores, solves, writes through),
//     then the in-memory caches are wiped to simulate a fresh process and
//     the identical exploration runs store-warm — every rewards-stage
//     result must come off disk with zero reachability explorations and zero solves,
//     bit-identical to cold.
//
//   quality: a weighted exploration (hardened group votes with weight 2)
//     up to --quality-max-n; for each module count the best heterogeneous
//     candidate is compared against the best homogeneous one, answering
//     the deployment question directly: what does hardening a subset of
//     the versions buy at a fixed module budget?
//
// Results go to bench_results/BENCH_archspace.json (or $NVP_BENCH_OUT)
// with their rules, which tools/check_bench_regression.py gates, and the
// per-budget comparison to bench_results/heterogeneous_archspace.csv.
//
// Exit code: 0 on success, 1 when bit-identity or a warm-reuse invariant
// fails (the speedup floor is gated by the regression script, so a noisy
// machine cannot turn a correct run into a hard failure).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "src/core/architecture_space.hpp"
#include "src/core/engine.hpp"
#include "src/core/staged.hpp"
#include "src/obs/metrics.hpp"
#include "src/store/store.hpp"

namespace {

using namespace nvp;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snapshot,
                            const std::string& name) {
  for (const auto& [counter, value] : snapshot.counters)
    if (counter == name) return value;
  return 0;
}

std::uint64_t solves_in(const obs::MetricsSnapshot& snapshot) {
  return counter_value(snapshot, "markov.solver.mrgp_solves") +
         counter_value(snapshot, "markov.solver.ctmc_solves");
}

struct ExplorePhase {
  double ms = 0.0;
  std::uint64_t explorations = 0;
  std::uint64_t solves = 0;
  std::vector<core::ArchitectureResult> results;
};

ExplorePhase run_explore(
    const core::Engine& engine, const core::SystemParameters& base,
    const std::vector<core::ArchitectureSpaceExplorer::Options>& families) {
  ExplorePhase phase;
  const auto before = obs::Registry::global().snapshot();
  const auto start = Clock::now();
  for (const auto& options : families) {
    auto results = engine.architectures(base, options);
    phase.results.insert(phase.results.end(), results.begin(),
                         results.end());
  }
  phase.ms = ms_since(start);
  const auto after = obs::Registry::global().snapshot();
  phase.explorations = counter_value(after, "petri.reachability.builds") -
                       counter_value(before, "petri.reachability.builds");
  phase.solves = solves_in(after) - solves_in(before);
  return phase;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nvp;
  bench::Harness harness(argc, argv, "archspace_hetero",
                         "heterogeneous architecture-space exploration: "
                         "store-warm throughput and weighted-vs-homogeneous "
                         "quality");
  const int max_n = harness.args().get_int("max-n", 10);
  const int quality_max_n = harness.args().get_int("quality-max-n", 8);

  // Throwaway store: the warm phase must be served by entries this run
  // wrote, never a developer's cache.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "nvp_bench_archspace";
  std::filesystem::remove_all(dir);
  std::string error;
  if (!store::open_global(dir.string(), store::Options{}, &error)) {
    std::fprintf(stderr, "FAIL: cannot open store at %s: %s\n",
                 dir.string().c_str(), error.c_str());
    return 1;
  }

  const core::SystemParameters base = bench::six_version();
  const core::Engine engine;

  // ---- family phase: cold vs store-warm throughput ------------------------
  // Three sub-families over the same (N, f, r) grid: two hardening factors
  // with perfect repair, plus a smaller imperfect-repair family (the Pmd
  // places roughly square the per-group state count, so q > 0 candidates
  // are kept to modest N to bound the cold cost). Homogeneous candidates
  // recur across sub-families with identical parameters; they are served
  // by the rewards cache after their first solve, exactly as one
  // process exploring several hardening levels would experience.
  core::ArchitectureSpaceExplorer::Options family;
  family.max_versions = max_n;
  family.max_faulty = 2;
  family.max_rejuvenating = 2;
  family.heterogeneous = true;
  family.hardened_weight = 1.0;  // every split feasible -> maximal family
  std::vector<core::ArchitectureSpaceExplorer::Options> families(3, family);
  families[0].hardened_mtc_factor = 2.0;
  families[1].hardened_mtc_factor = 4.0;
  families[2].hardened_mtc_factor = 4.0;
  families[2].hardened_repair_degradation = 0.1;
  families[2].max_versions = std::min(max_n, 7);

  const ExplorePhase cold = run_explore(engine, base, families);
  core::clear_stage_caches();
  const ExplorePhase warm = run_explore(engine, base, families);

  bool identical = warm.results.size() == cold.results.size();
  std::size_t failed = 0;
  for (std::size_t i = 0; identical && i < cold.results.size(); ++i) {
    identical = warm.results[i].label() == cold.results[i].label() &&
                warm.results[i].expected_reliability ==
                    cold.results[i].expected_reliability;
    if (!cold.results[i].ok) ++failed;
  }
  const double speedup = warm.ms > 0.0 ? cold.ms / warm.ms : 0.0;
  const double candidates = static_cast<double>(cold.results.size());
  const double cold_rate = cold.ms > 0.0 ? candidates / (cold.ms / 1e3) : 0.0;
  const double warm_rate = warm.ms > 0.0 ? candidates / (warm.ms / 1e3) : 0.0;

  std::printf("family      : %zu candidates (max N = %d, two-group splits, "
              "%zu sub-families)\n",
              cold.results.size(), max_n, families.size());
  std::printf("cold explore: %8.2f ms  %8.1f candidates/s  "
              "(%llu explorations, %llu solves)\n",
              cold.ms, cold_rate,
              static_cast<unsigned long long>(cold.explorations),
              static_cast<unsigned long long>(cold.solves));
  std::printf("warm explore: %8.2f ms  %8.1f candidates/s  "
              "(%llu explorations, %llu solves)\n",
              warm.ms, warm_rate,
              static_cast<unsigned long long>(warm.explorations),
              static_cast<unsigned long long>(warm.solves));
  std::printf("speedup     : %8.1fx   bit-identical: %s   failed: %zu\n",
              speedup, identical ? "yes" : "NO", failed);

  // ---- quality phase: best weighted split vs best homogeneous -------------
  core::ArchitectureSpaceExplorer::Options weighted = family;
  weighted.max_versions = quality_max_n;
  weighted.hardened_weight = 2.0;
  weighted.hardened_repair_degradation = 0.0;
  const auto quality = engine.architectures(base, weighted);

  std::map<int, const core::ArchitectureResult*> best_homogeneous;
  std::map<int, const core::ArchitectureResult*> best_heterogeneous;
  for (const auto& result : quality) {
    if (!result.ok) continue;
    auto& slot = result.groups.empty() ? best_homogeneous[result.n]
                                       : best_heterogeneous[result.n];
    if (slot == nullptr ||
        result.expected_reliability > slot->expected_reliability)
      slot = &result;
  }
  std::vector<std::vector<double>> rows;
  int hetero_wins = 0;
  std::printf("\nbest weighted split vs best homogeneous per module "
              "count:\n");
  for (const auto& [n, homogeneous] : best_homogeneous) {
    const auto it = best_heterogeneous.find(n);
    if (it == best_heterogeneous.end()) continue;
    const double gain = it->second->expected_reliability -
                        homogeneous->expected_reliability;
    if (gain > 0.0) ++hetero_wins;
    std::printf("  N = %2d: %-28s %.6f  vs  %-16s %.6f  (%+.6f)\n", n,
                it->second->label().c_str(),
                it->second->expected_reliability,
                homogeneous->label().c_str(),
                homogeneous->expected_reliability, gain);
    rows.push_back({static_cast<double>(n),
                    homogeneous->expected_reliability,
                    it->second->expected_reliability, gain});
  }
  bench::dump_csv("heterogeneous_archspace.csv",
                  {"n", "best_homogeneous_e_r", "best_heterogeneous_e_r",
                   "hetero_gain"},
                  rows);

  bench::JsonResult json(
      "bench_archspace_hetero",
      "family: cold vs store-warm exploration of the two-group candidate "
      "family (store-warm = memory tiers cleared in the same process); "
      "quality: best weighted two-group split vs best homogeneous "
      "architecture at equal module count");
  const std::string config = bench::default_config();
  const auto family_row = [&](const char* layer, const char* metric,
                              const char* unit, double value,
                              bench::Rule rule = {}) {
    json.add("family", layer, metric, unit, value, config, std::move(rule));
  };
  family_row("core.analyze", "candidates", "count", candidates,
             bench::bound("ge", 200.0));
  family_row("core.analyze", "cold_ms", "ms", cold.ms);
  family_row("store", "warm_ms", "ms", warm.ms);
  family_row("core.analyze", "cold_candidates_per_s", "1/s", cold_rate,
             bench::bound("gt", 0.0));
  family_row("store", "warm_candidates_per_s", "1/s", warm_rate,
             bench::bound("gt", 0.0));
  family_row("store", "warm_speedup", "ratio", speedup,
             bench::bound("ge", 5.0));
  family_row("petri.reachability", "warm_explorations", "count",
             static_cast<double>(warm.explorations), bench::bound("eq", 0.0));
  family_row("markov.solve", "warm_solves", "count",
             static_cast<double>(warm.solves), bench::bound("eq", 0.0));
  family_row("store", "bit_identical_to_cold", "bool", identical ? 1.0 : 0.0,
             bench::bound("eq", 1.0));
  family_row("core.analyze", "failed_candidates", "count",
             static_cast<double>(failed), bench::bound("eq", 0.0));
  json.add("quality", "core.analyze", "budgets_compared", "count",
           static_cast<double>(rows.size()), config,
           bench::bound("ge", 1.0));
  json.add("quality", "core.analyze", "hetero_wins", "count",
           static_cast<double>(hetero_wins), config,
           bench::bound("ge", 1.0));
  bench::write_result(json, "BENCH_archspace.json");

  std::filesystem::remove_all(dir);
  if (!identical || warm.explorations != 0 || warm.solves != 0) {
    std::printf("FAIL: store-warm exploration recomputed or diverged\n");
    return 1;
  }
  return 0;
}
