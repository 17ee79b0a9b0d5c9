#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/core/model_factory.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/obs/json.hpp"
#include "src/obs/manifest.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/util/string_util.hpp"

namespace perfbench {

namespace nc = nvp::core;
namespace nm = nvp::markov;

namespace {

/// Every per-layer metric, in print order, with its unit. A traced run of
/// any workload reports all of them; a layer the workload does not reach
/// reads 0 (the "should not move" half of the interaction map).
const std::vector<std::pair<const char*, const char*>>& layer_schema() {
  static const std::vector<std::pair<const char*, const char*>> schema = {
      {"core.structure.builds", "count"},
      {"core.structure.ms", "ms"},
      {"core.rates.solves", "count"},
      {"core.rates.ms", "ms"},
      {"core.reward_table.ms", "ms"},
      {"core.rewards.ms", "ms"},
      {"core.cache.hit_ratio.structure", "ratio"},
      {"core.cache.hit_ratio.rates", "ratio"},
      {"core.cache.hit_ratio.reward_table", "ratio"},
      {"core.cache.hit_ratio.rewards", "ratio"},
      {"core.cache.hit_ratio.whole_result", "ratio"},
      {"core.engine.envelope_us", "us"},
      {"petri.reachability.builds", "count"},
      {"petri.reachability.ms", "ms"},
      {"petri.states", "count"},
      {"petri.repour.ms", "ms"},
      {"markov.solve.ms", "ms"},
      {"markov.solve.p50_ms", "ms"},
      {"markov.solve.p99_ms", "ms"},
      {"markov.backend.dense", "count"},
      {"markov.backend.sparse", "count"},
      {"markov.backend.mfree", "count"},
      {"markov.mfree_share", "ratio"},
      {"markov.plan.ms", "ms"},
      {"markov.fallback.attempts", "count"},
      {"markov.backend_fallbacks", "count"},
      {"runtime.parallel_efficiency", "ratio"},
      {"runtime.pool.parallel_loops", "count"},
      {"store.writes_per_point", "count"},
      {"store.bytes_per_point", "B"},
      {"store.put.mean_ms", "ms"},
      {"store.put.p99_ms", "ms"},
      {"store.reads_per_point", "count"},
      {"store.get.mean_ms", "ms"},
      {"store.get.p99_ms", "ms"},
      {"store.hit_ratio", "ratio"},
      {"store.open.ms", "ms"},
      {"store.corrupt", "count"},
      {"service.daemon_p50_ms", "ms"},
      {"service.daemon_p99_ms", "ms"},
      {"service.parse_us", "us"},
      {"service.encode_us", "us"},
      {"service.coalesce_ratio", "ratio"},
      {"service.executed", "count"},
      {"service.rejected", "count"},
      {"service.queue_depth_max", "count"},
      {"service.generator_lag_ms", "ms"},
      {"monitor.updates", "count"},
      {"monitor.resolves", "count"},
      {"monitor.resolve.ms", "ms"},
      {"monitor.resolve_share", "ratio"},
      {"perception.campaign.ms", "ms"},
      {"perception.frames_per_s", "1/s"},
      {"obs.trace_overhead_pct", "%"},
  };
  return schema;
}

double hit_ratio(const nvp::runtime::CacheStats& before,
                 const nvp::runtime::CacheStats& after, std::string* basis) {
  const double hits = double(after.hits - before.hits);
  const double lookups = hits + double(after.misses - before.misses);
  *basis = nvp::util::format("hits / lookups = %.0f / %.0f", hits, lookups);
  return lookups > 0.0 ? hits / lookups : 0.0;
}

}  // namespace

std::size_t nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return double(nvp::obs::peak_rss_bytes()) / (1024.0 * 1024.0);
}

Probe Probe::take() {
  return {nvp::obs::Registry::global().snapshot(), nc::stage_cache_stats()};
}

std::uint64_t Probe::counter(const std::string& name) const {
  const auto it = metrics.counters.find(name);
  return it == metrics.counters.end() ? 0 : it->second;
}

nvp::obs::HistogramSnapshot Probe::histogram(const std::string& name) const {
  const auto it = metrics.histograms.find(name);
  return it == metrics.histograms.end() ? nvp::obs::HistogramSnapshot{}
                                        : it->second;
}

double delta(const Probe& before, const Probe& after,
             const std::string& name) {
  return double(after.counter(name)) - double(before.counter(name));
}

std::map<std::string, SpanTotals> aggregate_spans(
    const std::vector<nvp::obs::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<double> child_s(spans.size(), 0.0);
  for (const auto& span : spans) {
    if (span.parent == 0) continue;
    const auto it = index.find(span.parent);
    if (it != index.end()) child_s[it->second] += span.wall_s;
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.busy_ms += 1e3 * spans[i].wall_s;
    t.self_ms += 1e3 * std::max(0.0, spans[i].wall_s - child_s[i]);
  }
  return totals;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 20) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& basis) {
  metrics_.push_back({name, value, unit, basis});
}

void Report::figure(const std::string& name, double value,
                    const std::string& unit, const std::string& basis) {
  figures_.push_back({name, value, unit, basis});
}

void Report::layer(const std::string& name, double value,
                   const std::string& basis) {
  layers_[name] = {name, value, "", basis};
}

void Report::layers_from(const Window& w) {
  const auto spans = aggregate_spans(w.spans);
  const auto busy = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.busy_ms;
  };
  const auto count = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : double(it->second.count);
  };
  const auto d = [&](const char* name) {
    return delta(w.before, w.after, name);
  };

  layer("core.structure.builds", count("core.stage.structure"),
        "core.stage.structure spans");
  layer("core.structure.ms", busy("core.stage.structure"), "busy");
  layer("core.rates.solves", count("core.stage.rates"),
        "core.stage.rates spans");
  layer("core.rates.ms", busy("core.stage.rates"), "busy");
  layer("core.reward_table.ms", busy("core.stage.reward_table"), "busy");
  layer("core.rewards.ms", busy("core.stage.rewards"), "busy");
  std::string basis;
  const auto& b = w.before.caches;
  const auto& a = w.after.caches;
  layer("core.cache.hit_ratio.structure",
        hit_ratio(b.structure, a.structure, &basis), basis);
  layer("core.cache.hit_ratio.rates", hit_ratio(b.rates, a.rates, &basis),
        basis);
  layer("core.cache.hit_ratio.reward_table",
        hit_ratio(b.reward_table, a.reward_table, &basis), basis);
  layer("core.cache.hit_ratio.rewards",
        hit_ratio(b.rewards, a.rewards, &basis), basis);
  layer("core.cache.hit_ratio.whole_result",
        hit_ratio(b.whole_result, a.whole_result, &basis), basis);

  layer("petri.reachability.builds", d("petri.reachability.builds"),
        "counter delta");
  layer("petri.reachability.ms", busy("petri.reachability"), "busy");
  const auto states_before = w.before.histogram("petri.reachability.states");
  const auto states_after = w.after.histogram("petri.reachability.states");
  const double builds = double(states_after.count - states_before.count);
  layer("petri.states",
        builds > 0.0 ? (states_after.sum - states_before.sum) / builds : 0.0,
        "mean tangible states per build");
  layer("petri.repour.ms", busy("petri.reachability.repour"), "busy");

  // One markov.solve.<backend> span wraps each whole stationary solve.
  std::vector<double> solves_ms;
  for (const auto& span : w.spans)
    if (span.name.rfind("markov.solve.", 0) == 0 &&
        span.name != "markov.solve.backend_fallback")
      solves_ms.push_back(1e3 * span.wall_s);
  double solve_total = 0.0;
  for (double ms : solves_ms) solve_total += ms;
  const std::string solve_basis =
      nvp::util::format("%zu solves", solves_ms.size());
  layer("markov.solve.ms", solve_total, solve_basis);
  layer("markov.solve.p50_ms", quantile(solves_ms, 0.5), solve_basis);
  layer("markov.solve.p99_ms", quantile(solves_ms, 0.99), solve_basis);
  layer("markov.backend.dense", d("markov.solver.dense_solves"));
  layer("markov.backend.sparse", d("markov.solver.sparse_solves"));
  layer("markov.backend.mfree", d("markov.solver.mfree_solves"));
  const double mrgp = d("markov.solver.mrgp_solves");
  layer("markov.mfree_share",
        mrgp > 0.0 ? d("markov.solver.mfree_solves") / mrgp : 0.0,
        nvp::util::format("mfree solves / MRGP solves = %.0f / %.0f",
                          d("markov.solver.mfree_solves"), mrgp));
  layer("markov.plan.ms", busy("markov.assembly_plan"), "busy");
  layer("markov.fallback.attempts",
        d("markov.fallback.attempts.power") +
            d("markov.fallback.attempts.dense") +
            d("markov.fallback.attempts.mfree"));
  layer("markov.backend_fallbacks", d("markov.solver.backend_fallbacks"));

  layer("runtime.pool.parallel_loops", d("runtime.pool.parallel_loops"));
  layer("store.corrupt", d("store.corrupt"));

  const double requests = d("service.requests");
  layer("service.coalesce_ratio",
        requests > 0.0 ? d("service.coalesced") / requests : 0.0,
        nvp::util::format("coalesced / requests = %.0f / %.0f",
                          d("service.coalesced"), requests));
  layer("service.executed", d("service.executed"));
  layer("service.rejected", d("service.rejected"));

  layer("monitor.updates", d("monitor.updates"));
  layer("monitor.resolves", d("monitor.resolves"));
  const double resolve_s = w.after.histogram("monitor.resolve_s").sum -
                           w.before.histogram("monitor.resolve_s").sum;
  layer("monitor.resolve.ms", 1e3 * resolve_s, "monitor.resolve_s sum");
  layer("monitor.resolve_share", w.wall_s > 0.0 ? resolve_s / w.wall_s : 0.0,
        nvp::util::format("resolve time / window wall = %.4f s / %.4f s",
                          resolve_s, w.wall_s));
}

void Report::span_table(const Window& window) const {
  const auto totals = aggregate_spans(window.spans);
  std::vector<std::pair<std::string, SpanTotals>> rows(totals.begin(),
                                                       totals.end());
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return x.second.busy_ms > y.second.busy_ms;
  });
  std::printf("%-40s %8s %12s %12s\n", "span (program)", "count", "busy_ms",
              "self_ms");
  for (const auto& [name, t] : rows)
    std::printf("%-40s %8llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.busy_ms,
                t.self_ms);
  std::printf("(window wall %.3f s; busy sums span walls across threads)\n",
              window.wall_s);
}

int Report::finish() const {
  std::printf("\n== %s seed=%llu seconds=%g trace=%d ==\n",
              args_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed), args_.seconds,
              args_.trace ? 1 : 0);
  if (!figures_.empty()) {
    std::printf("%-34s %16s %-7s %s\n", "figure", "value", "unit", "basis");
    for (const Entry& e : figures_)
      std::printf("%-34s %16.6f %-7s %s\n", e.name.c_str(), e.value,
                  e.unit.c_str(), e.basis.c_str());
  }
  const double failed_share =
      attempted_ > 0 ? double(failed_) / double(attempted_) : 0.0;

  nvp::obs::JsonWriter out;
  out.begin_object();
  out.kv("correct", failed_ == 0);
  out.kv("attempted", attempted_);
  out.kv("failed", failed_);
  out.key("metrics").begin_object();
  if (args_.trace) {
    std::printf("%-34s %16s %-7s %s\n", "layer metric", "value", "unit",
                "basis");
    for (const auto& [name, unit] : layer_schema()) {
      const auto it = layers_.find(name);
      const double value = it == layers_.end() ? 0.0 : it->second.value;
      std::printf("%-34s %16.6f %-7s %s\n", name, value, unit,
                  it == layers_.end() ? "not reached by this workload"
                                      : it->second.basis.c_str());
      out.key(name).begin_object().kv("value", value).kv("unit", unit)
          .end_object();
    }
  } else {
    std::printf("%-34s %16s %-7s %s\n", "metric", "value", "unit", "basis");
    for (const Entry& e : metrics_) {
      std::printf("%-34s %16.6f %-7s %s\n", e.name.c_str(), e.value,
                  e.unit.c_str(), e.basis.c_str());
      out.key(e.name).begin_object().kv("value", e.value).kv("unit", e.unit)
          .end_object();
    }
  }
  std::printf("%-34s %16.6f %-7s failed / attempted = %llu / %llu\n",
              "failed_share", failed_share, "ratio",
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  out.end_object().end_object();

  // Provenance: what ran, on what, and which backends kAuto picked over
  // the whole process.
  const Probe now = Probe::take();
  nvp::obs::JsonWriter prov;
  prov.begin_object();
  prov.kv("workload", args_.workload);
  prov.kv("seed", args_.seed);
  prov.kv("trace", args_.trace);
  prov.kv("git_sha", nvp::obs::build_git_sha());
  prov.kv("build_type", NVP_BUILD_TYPE);
  prov.kv("nproc", static_cast<std::uint64_t>(nproc()));
  prov.kv("jobs", static_cast<std::uint64_t>(nvp::runtime::default_jobs()));
  prov.kv("solver_config", nm::SolverConfig{}.describe());
  prov.key("backend_mix").begin_object();
  prov.kv("dense", now.counter("markov.solver.dense_solves"));
  prov.kv("sparse", now.counter("markov.solver.sparse_solves"));
  prov.kv("mfree", now.counter("markov.solver.mfree_solves"));
  prov.kv("ctmc", now.counter("markov.solver.ctmc_solves"));
  prov.kv("mrgp", now.counter("markov.solver.mrgp_solves"));
  prov.end_object();
  prov.end_object();
  std::printf("provenance %s\n", prov.str().c_str());
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return 0;
}

double engine_envelope_us(const nc::Engine& engine,
                          const nc::SystemParameters& params) {
  engine.analyze(params);  // warm every cache level
  std::vector<double> full_us, raw_us;
  for (int i = 0; i < 300; ++i) {
    auto start = Clock::now();
    const nc::RunResult full = engine.analyze(params);
    full_us.push_back(1e6 * seconds_since(start));
    start = Clock::now();
    const nc::AnalysisResult raw = engine.analyze_raw(params);
    raw_us.push_back(1e6 * seconds_since(start));
    if (full.analysis.expected_reliability != raw.expected_reliability)
      return -1.0;
  }
  return median(full_us) - median(raw_us);
}

void probe_stages(const std::string& label,
                  const nc::SystemParameters& params) {
  const nm::SolverConfig config;
  auto start = Clock::now();
  const auto structure = nc::staged_structure(params, /*use_cache=*/false);
  const double structure_ms = ms_since(start);
  start = Clock::now();
  const nm::SolverBackend backend = nm::dispatch_backend(
      config, structure->graph.size(), structure->plan.has_deterministic);
  const double dispatch_us = 1e3 * ms_since(start);
  const nc::BuiltModel model = nc::PerceptionModelFactory::build(params);
  start = Clock::now();
  const auto graph = structure->graph.repoured(model.net);
  const double repour_ms = ms_since(start);
  start = Clock::now();
  const auto solution =
      nm::DspnSteadyStateSolver(config).solve(graph, structure->plan);
  const double solve_ms = ms_since(start);
  start = Clock::now();
  nc::staged_rates(params, *structure, config, /*use_cache=*/false);
  const double rates_ms = ms_since(start);
  start = Clock::now();
  nc::staged_reward_table(params, nc::RewardConvention::kPaperVerbatim,
                          *structure, /*use_cache=*/false);
  const double table_ms = ms_since(start);
  std::printf(
      "probe %-22s states=%-4zu backend=%-5s structure=%.3fms "
      "dispatch=%.2fus repour=%.3fms solve=%.3fms rates=%.3fms "
      "reward_table=%.3fms\n",
      label.c_str(), solution.states, nm::to_string(backend), structure_ms,
      dispatch_us, repour_ms, solve_ms, rates_ms, table_ms);
}

}  // namespace perfbench
