// bench_store_persistence — warm-start economics of the persistent solve
// store (src/store/): how much a second process saves when every solve of a
// sweep is already on disk, and what the store's own primitives cost.
//
// Phases, all against a throwaway store directory:
//
//   cold: a 6v rejuvenation-interval sweep with the store open — every
//     point explores, solves, and is written through to disk (the memory
//     caches start empty, so this is the "first process ever" cost).
//
//   warm: the in-memory stage caches are cleared to simulate a fresh
//     process, then the identical sweep runs again. Every rewards-stage
//     result must now come off disk: the phase is gated
//     on zero reachability explorations, zero MRGP/CTMC solves, store hits
//     covering every point, and a bit-identical curve.
//
//   latency: open/close cycles on the populated directory plus synthetic
//     put/get round-trips of a representative payload measure the store's
//     primitive costs (open scans the index; get is an mmap + checksum +
//     copy; put is a temp-file + fsync + rename transaction).
//
// Results go to bench_results/BENCH_store.json (or $NVP_BENCH_OUT) with
// their rules, which tools/check_bench_regression.py gates: the warm sweep
// at least 5x faster than cold with the counters above, every probe read
// hitting, and the primitive latencies really measured.
//
// Exit code: 0 on success, 1 if bit-identity or a warm-reuse invariant
// fails (the speedup floor is gated by the regression script, not here, so
// a noisy machine cannot turn a correct run into a hard failure).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
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

struct SweepPhase {
  double ms = 0.0;
  std::uint64_t explorations = 0;
  std::uint64_t solves = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t store_writes = 0;
  std::vector<core::SweepPoint> points;
};

SweepPhase run_sweep(const core::ReliabilityAnalyzer& analyzer,
                     const core::SystemParameters& base,
                     const std::vector<double>& values) {
  SweepPhase phase;
  const auto before = obs::Registry::global().snapshot();
  const auto start = Clock::now();
  phase.points = core::sweep_parameter(analyzer, base,
                                       core::set_rejuvenation_interval(),
                                       values);
  phase.ms = ms_since(start);
  const auto after = obs::Registry::global().snapshot();
  phase.explorations = counter_value(after, "petri.reachability.builds") -
                       counter_value(before, "petri.reachability.builds");
  phase.solves = solves_in(after) - solves_in(before);
  phase.store_hits = counter_value(after, "store.hit") -
                     counter_value(before, "store.hit");
  phase.store_misses = counter_value(after, "store.miss") -
                       counter_value(before, "store.miss");
  phase.store_writes = counter_value(after, "store.write") -
                       counter_value(before, "store.write");
  return phase;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nvp;
  bench::Harness harness(argc, argv, "store_persistence",
                         "persistent solve store: warm-start speedup and "
                         "primitive latencies");
  const auto points =
      static_cast<std::size_t>(harness.args().get_int("points", 32));
  const auto ops =
      static_cast<std::size_t>(harness.args().get_int("ops", 64));

  // A throwaway store directory: the bench must measure a store it
  // populated itself, never a developer's warm cache.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "nvp_bench_store";
  std::filesystem::remove_all(dir);

  const auto open_start = Clock::now();
  std::string error;
  if (!store::open_global(dir.string(), store::Options{}, &error)) {
    std::fprintf(stderr, "FAIL: cannot open store at %s: %s\n",
                 dir.string().c_str(), error.c_str());
    return 1;
  }
  const double open_ms = ms_since(open_start);

  const core::SystemParameters base = bench::six_version();
  const std::vector<double> values = core::linspace(200.0, 3000.0, points);
  const core::ReliabilityAnalyzer analyzer{
      core::ReliabilityAnalyzer::Options{}};

  // Cold: empty store, empty memory caches — full explore/solve per point,
  // every artifact written through to disk.
  const SweepPhase cold = run_sweep(analyzer, base, values);

  // Warm: wipe the in-memory tiers to simulate a fresh process; the disk
  // tier must satisfy every rewards-stage lookup.
  core::clear_stage_caches();
  const SweepPhase warm = run_sweep(analyzer, base, values);

  bool identical = warm.points.size() == cold.points.size();
  for (std::size_t i = 0; identical && i < cold.points.size(); ++i)
    identical = warm.points[i].x == cold.points[i].x &&
                warm.points[i].expected_reliability ==
                    cold.points[i].expected_reliability;
  const bool reuse_ok = warm.explorations == 0 && warm.solves == 0 &&
                        warm.store_hits >= points && warm.store_misses == 0;
  const double speedup = warm.ms > 0.0 ? cold.ms / warm.ms : 0.0;

  std::printf("\ncold sweep  : %8.2f ms  (%llu explorations, %llu solves, "
              "%llu store writes)\n",
              cold.ms, static_cast<unsigned long long>(cold.explorations),
              static_cast<unsigned long long>(cold.solves),
              static_cast<unsigned long long>(cold.store_writes));
  std::printf("warm sweep  : %8.2f ms  (%llu explorations, %llu solves, "
              "%llu store hits)\n",
              warm.ms, static_cast<unsigned long long>(warm.explorations),
              static_cast<unsigned long long>(warm.solves),
              static_cast<unsigned long long>(warm.store_hits));
  std::printf("speedup     : %8.1fx   bit-identical: %s   warm reuse: %s\n",
              speedup, identical ? "yes" : "NO",
              reuse_ok ? "ok" : "VIOLATED");

  // Primitive latencies on the store the sweep populated. The payload is a
  // real encoded entry's ballpark (tens of KiB); distinct high keys keep
  // the probes clear of the sweep's entries.
  std::vector<std::uint8_t> payload(64 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 131u + 17u);
  store::Store* disk = store::global();
  const auto write_start = Clock::now();
  for (std::size_t i = 0; i < ops; ++i)
    disk->put(store::Kind::kRewards, 0xBE9C000000000000ULL + i,
              payload.data(), payload.size());
  const double write_ms = ms_since(write_start) / static_cast<double>(ops);
  const auto read_start = Clock::now();
  std::size_t read_ok = 0;
  for (std::size_t i = 0; i < ops; ++i)
    if (disk->get(store::Kind::kRewards, 0xBE9C000000000000ULL + i))
      ++read_ok;
  const double read_ms = ms_since(read_start) / static_cast<double>(ops);
  const store::Stats stats = disk->stats();

  std::printf("open        : %8.3f ms (fresh directory)\n", open_ms);
  std::printf("put         : %8.3f ms/op   get: %8.3f ms/op  "
              "(%zu x %zu KiB, %zu reads hit)\n",
              write_ms, read_ms, ops, payload.size() / 1024, read_ok);
  std::printf("store       : %llu entries, %llu bytes\n",
              static_cast<unsigned long long>(stats.entries),
              static_cast<unsigned long long>(stats.bytes));

  bench::JsonResult json(
      "bench_store_persistence",
      "warm_sweep: a 6v rejuvenation-interval sweep, cold (populating a "
      "fresh store) vs warm (memory tiers cleared in the same process, the "
      "disk tier serves every point); latency: open on the populated "
      "directory, synthetic 64 KiB put (temp+fsync+rename) and get "
      "(mmap+checksum+copy)");
  const std::string config = bench::default_config();
  const auto sweep = [&](const char* layer, const char* metric,
                         const char* unit, double value,
                         bench::Rule rule = {}) {
    json.add("warm_sweep", layer, metric, unit, value, config,
             std::move(rule));
  };
  sweep("core.staged", "points", "count", static_cast<double>(points));
  sweep("core.staged", "cold_ms", "ms", cold.ms);
  sweep("core.staged", "warm_ms", "ms", warm.ms);
  sweep("core.staged", "speedup", "ratio", speedup, bench::bound("ge", 5.0));
  sweep("core.staged", "bit_identical_to_cold", "bool",
        identical ? 1.0 : 0.0, bench::bound("eq", 1.0));
  sweep("petri.reachability", "warm_explorations", "count",
        static_cast<double>(warm.explorations), bench::bound("eq", 0.0));
  sweep("markov.solve", "warm_solves", "count",
        static_cast<double>(warm.solves), bench::bound("eq", 0.0));
  sweep("store", "warm_store_hits", "count",
        static_cast<double>(warm.store_hits), bench::bound("gt", 0.0));
  sweep("store", "warm_store_misses", "count",
        static_cast<double>(warm.store_misses), bench::bound("eq", 0.0));
  sweep("store", "cold_store_writes", "count",
        static_cast<double>(cold.store_writes), bench::bound("gt", 0.0));
  const std::string probes = util::format(
      "payload_bytes=%zu,ops=%zu", payload.size(), ops);
  const auto latency = [&](const char* metric, const char* unit, double value,
                           bench::Rule rule) {
    json.add("latency", "store", metric, unit, value, probes,
             std::move(rule));
  };
  latency("open_ms", "ms", open_ms, bench::bound("gt", 0.0));
  latency("write_ms_mean", "ms", write_ms, bench::bound("gt", 0.0));
  latency("read_ms_mean", "ms", read_ms, bench::bound("gt", 0.0));
  // Every probe must hit: a miss means get() rejected an entry the same
  // process just wrote.
  latency("read_misses", "count", static_cast<double>(ops - read_ok),
          bench::bound("eq", 0.0));
  bench::write_result(json, "BENCH_store.json");

  store::close_global();
  std::filesystem::remove_all(dir);

  if (!identical || !reuse_ok || read_ok != ops) {
    std::printf("\nFAIL: warm store sweep violated its contract (see "
                "above)\n");
    return 1;
  }
  std::printf("\nOK: warm sweep bit-identical to cold off the disk tier\n");
  return 0;
}
