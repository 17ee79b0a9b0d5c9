// store_restart: the persistent store's write and read paths, on a fresh
// directory inside the checkout.
//
//   populate — the store is opened (Engine::Options::store_dir) on an empty
//              directory and a batch of cheap-to-solve points runs:
//              reward-parameter sweeps (alpha, p') of the 6v model and MTTC
//              sweeps of the 4v CTMC. Write-bound: every entry is written to
//              a temp file, fsync'd and renamed.
//   restart  — the same batch runs in a fresh process on the populated
//              directory, so every answer comes from disk (mmap, checksum,
//              decode). Read-bound. The process runs the batch
//              kRestartPasses times, clearing its in-memory caches between
//              passes, so each pass again reads every answer from the store;
//              the time runs from opening the store to the last answer.
//
// Each run populates once and then restarts as many times as the run's
// seconds allow. The restart phase carries the end-to-end metrics;
// populate_s is printed but not one of them, because its fsync-bound time
// follows the disk's latency, which drifted by up to 2.5x between runs
// minutes apart on the shared virtual disk this was measured on.

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/store/store.hpp"
#include "src/util/rng.hpp"
#include "src/util/string_util.hpp"

namespace perfbench {

namespace {

namespace nc = nvp::core;
namespace fs = std::filesystem;

struct BatchSweep {
  nc::SystemParameters base;
  nc::ParameterSetter setter;
  std::vector<double> values;
};

constexpr std::size_t kSweepPoints = 15;
constexpr int kRestartPasses = 16;

std::vector<BatchSweep> make_batch(std::uint64_t seed) {
  nvp::util::RandomStream rng(nvp::util::substream_seed(seed, 3));
  std::vector<BatchSweep> batch;
  for (int i = 0; i < 2; ++i) {
    nc::SystemParameters six = nc::SystemParameters::paper_six_version();
    six.rejuvenation_interval = rng.uniform(590.0, 610.0);
    batch.push_back({six, nc::set_alpha(),
                     nc::linspace(rng.uniform(0.1, 0.2), rng.uniform(0.8, 0.9),
                                  kSweepPoints)});
    batch.push_back({six, nc::set_p_prime(),
                     nc::linspace(rng.uniform(0.2, 0.3), rng.uniform(0.7, 0.8),
                                  kSweepPoints)});
    nc::SystemParameters four = nc::SystemParameters::paper_four_version();
    four.p = rng.uniform(0.05, 0.1);
    batch.push_back({four, nc::set_mean_time_to_compromise(),
                     nc::linspace(rng.uniform(400.0, 600.0),
                                  rng.uniform(4500.0, 5500.0), kSweepPoints)});
  }
  return batch;
}

std::size_t batch_points(const std::vector<BatchSweep>& batch) {
  std::size_t n = 0;
  for (const BatchSweep& s : batch) n += s.values.size();
  return n;
}

/// Runs the batch; appends the bit pattern of every point's reliability
/// (a failed point records all ones).
void run_batch(const nc::Engine& engine, const std::vector<BatchSweep>& batch,
               std::vector<std::uint64_t>* bits) {
  for (const BatchSweep& s : batch)
    for (const nc::SweepPoint& p : engine.sweep(s.base, s.setter, s.values))
      bits->push_back(p.ok ? std::bit_cast<std::uint64_t>(
                                 p.expected_reliability)
                           : ~std::uint64_t{0});
}

/// The batch's answers from the cold pipeline with every cache bypassed.
std::vector<std::uint64_t> reference_bits(
    const std::vector<BatchSweep>& batch) {
  nc::ReliabilityAnalyzer::Options options;
  options.use_cache = false;
  const nc::ReliabilityAnalyzer cold(options);
  std::vector<nc::SystemParameters> points;
  for (const BatchSweep& s : batch)
    for (double x : s.values) {
      nc::SystemParameters p = s.base;
      s.setter(p, x);
      points.push_back(p);
    }
  // Serial, like design_study's oracle: set-up time is a gated metric.
  std::vector<std::uint64_t> bits;
  for (const nc::SystemParameters& p : points)
    bits.push_back(
        std::bit_cast<std::uint64_t>(cold.analyze(p).expected_reliability));
  return bits;
}

nc::Engine store_engine(const std::string& dir) {
  nc::Engine::Options options;
  options.store_dir = dir;
  return nc::Engine(nc::ReliabilityAnalyzer::Options{}, options);
}

/// What the restart process reports (see run_store_restart_child).
struct Restart {
  bool ok = false;
  double seconds = 0.0;
  std::vector<std::uint64_t> bits;
  std::map<std::string, double> counters;

  double counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? -1.0 : it->second;
  }
};

/// Runs the restart phase in a fresh process and parses its report.
Restart run_restart(const Args& args, const std::string& dir, bool trace) {
  const std::string command =
      "'" + args.self + "' --restart-child '" + dir + "' --seed " +
      std::to_string(args.seed) + " --seconds 1 --trace " +
      (trace ? "1" : "0");
  Restart r;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return r;
  std::string text;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0)
    text.append(buffer, n);
  const int status = ::pclose(pipe);
  std::istringstream in(text);
  std::string key;
  while (in >> key) {
    if (key == "bits") {
      std::size_t count = 0;
      in >> count;
      r.bits.resize(count);
      for (std::uint64_t& b : r.bits) in >> std::hex >> b >> std::dec;
    } else {
      double v = 0.0;
      in >> v;
      r.counters[key] = v;
    }
  }
  r.seconds = r.counter("restart_s");
  r.ok = status == 0 && r.seconds > 0.0;
  return r;
}

struct Populate {
  double seconds = 0.0;
  double writes = 0.0;
  double bytes = 0.0;
  double corrupt = 0.0;
  std::vector<std::uint64_t> bits;
};

/// Populates `dir`, which must be empty, from empty in-memory caches.
Populate populate(const std::vector<BatchSweep>& batch,
                  const std::string& dir) {
  Populate p;
  const Probe before = Probe::take();
  const auto start = Clock::now();
  {
    const nc::Engine engine = store_engine(dir);
    run_batch(engine, batch, &p.bits);
    if (nvp::store::Store* disk = nvp::store::global())
      p.bytes = double(disk->stats().bytes);
    nvp::store::close_global();
  }
  p.seconds = seconds_since(start);
  const Probe after = Probe::take();
  p.writes = delta(before, after, "store.write");
  p.corrupt = delta(before, after, "store.corrupt");
  return p;
}

/// An empty store directory and empty in-memory caches.
void fresh_start(const std::string& dir) {
  fs::remove_all(dir);
  nc::clear_stage_caches();
}

void check_populate(Report& report, const Populate& p,
                    const std::vector<std::uint64_t>& reference) {
  report.check(p.bits == reference,
               "store_restart populate results differ from the cold "
               "no-cache reference");
  report.check(p.corrupt == 0.0, "store_restart populate saw corrupt entries");
}

void check_restart(Report& report, const Restart& r,
                   const std::vector<std::uint64_t>& populated) {
  report.check(r.ok, "store_restart restart process failed");
  report.check(r.bits == populated && r.counter("pass_mismatches") == 0.0,
               "store_restart restart results are not bit-identical to "
               "populate's");
  report.check(r.counter("builds") == 0.0,
               nvp::util::format("restart did %.0f reachability builds",
                                 r.counter("builds")));
  report.check(r.counter("solves") == 0.0,
               nvp::util::format("restart did %.0f solves",
                                 r.counter("solves")));
  report.check(r.counter("corrupt") == 0.0,
               "store_restart restart saw corrupt entries");
}

/// Times Store::open, get and put over every entry of a populated
/// directory (the benchmark's own calls into the store's public functions).
struct StoreProbe {
  double open_ms = 0.0;
  std::vector<double> get_ms;
  std::vector<double> put_ms;
};

StoreProbe probe_store(const std::string& dir, const std::string& scratch) {
  StoreProbe probe;
  std::string error;
  auto start = Clock::now();
  const auto populated =
      nvp::store::Store::open(dir, nvp::store::Options{}, &error);
  probe.open_ms = ms_since(start);
  fs::remove_all(scratch);
  const auto copy =
      nvp::store::Store::open(scratch, nvp::store::Options{}, &error);
  if (!populated || !copy) return probe;
  // Entry files are named <kind>-<16 hex digits of the key>.nvps.
  for (const auto& entry : fs::directory_iterator(fs::path(dir) / "entries")) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 23 || name.compare(name.size() - 5, 5, ".nvps") != 0)
      continue;
    const std::string kind_name = name.substr(0, name.size() - 22);
    const std::uint64_t key =
        std::stoull(name.substr(name.size() - 21, 16), nullptr, 16);
    for (std::uint32_t k = 1; k <= nvp::store::kKindCount; ++k) {
      const auto kind = static_cast<nvp::store::Kind>(k);
      if (kind_name != nvp::store::to_string(kind)) continue;
      start = Clock::now();
      const auto bytes = populated->get(kind, key);
      probe.get_ms.push_back(ms_since(start));
      if (!bytes) break;
      start = Clock::now();
      copy->put(kind, key, bytes->data(), bytes->size());
      probe.put_ms.push_back(ms_since(start));
    }
  }
  return probe;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / double(v.size());
}

}  // namespace

/// The restart process: opens the populated store, answers the batch
/// kRestartPasses times (in-memory caches cleared before each pass), and
/// prints `key value` lines for the parent.
int run_store_restart_child(const Args& args) {
  if (args.trace) nvp::obs::set_tracing(true);
  nvp::runtime::set_default_jobs(nproc());
  const std::vector<BatchSweep> batch = make_batch(args.seed);
  std::vector<std::uint64_t> first;
  double mismatches = 0.0;
  const Probe before = Probe::take();
  const auto start = Clock::now();
  const nc::Engine engine = store_engine(args.restart_dir);
  for (int pass = 0; pass < kRestartPasses; ++pass) {
    nc::clear_stage_caches();
    std::vector<std::uint64_t> bits;
    run_batch(engine, batch, &bits);
    if (pass == 0)
      first = std::move(bits);
    else if (bits != first)
      ++mismatches;
  }
  // The clock stops before close: closing persists the reads' recency
  // bumps with an fsync'd index write, which would put the disk's latency
  // back into the read path's time.
  const double restart_s = seconds_since(start);
  nvp::store::close_global();
  const Probe after = Probe::take();
  std::printf("restart_s %.9f\n", restart_s);
  std::printf("rss_mb %.6f\n", peak_rss_mib());
  std::printf("pass_mismatches %.0f\n", mismatches);
  std::printf("builds %.0f\n",
              delta(before, after, "petri.reachability.builds"));
  std::printf("solves %.0f\n",
              delta(before, after, "markov.solver.mrgp_solves") +
                  delta(before, after, "markov.solver.ctmc_solves"));
  std::printf("corrupt %.0f\n", delta(before, after, "store.corrupt"));
  std::printf("hits %.0f\n", delta(before, after, "store.hit"));
  std::printf("misses %.0f\n", delta(before, after, "store.miss"));
  std::printf("bits %zu", first.size());
  for (std::uint64_t b : first)
    std::printf(" %llx", static_cast<unsigned long long>(b));
  std::printf("\n");
  return 0;
}

int run_store_restart(const Args& args) {
  Report report(args);
  nvp::runtime::set_default_jobs(nproc());
  const fs::path root = fs::absolute(fs::path(args.work_dir) / "store_restart");
  const std::string dir = (root / "store").string();

  // Set-up: the batch, its answers from the cold pipeline with every cache
  // bypassed (the reference populate must reproduce bit for bit), and an
  // empty work directory — three times; setup_s is the median.
  std::vector<double> setups;
  std::vector<BatchSweep> batch;
  std::vector<std::uint64_t> reference;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    batch = make_batch(args.seed);
    reference = reference_bits(batch);
    fs::remove_all(root);
    fs::create_directories(root);
    setups.push_back(seconds_since(start));
  }
  const double points = double(batch_points(batch));
  const double answers = points * kRestartPasses;

  if (!args.trace) {
    const auto start = Clock::now();
    fresh_start(dir);
    const Populate pop = populate(batch, dir);
    check_populate(report, pop, reference);
    std::vector<double> restart_s, restart_ms;
    double rss = 0.0;
    do {
      const Restart r = run_restart(args, dir, false);
      check_restart(report, r, pop.bits);
      restart_s.push_back(r.seconds);
      restart_ms.push_back(1e3 * r.seconds);
      rss = std::max(rss, r.counter("rss_mb"));
    } while (seconds_since(start) < args.seconds);
    fs::remove_all(root);

    const std::string basis = nvp::util::format(
        "%zu restart processes, %d passes over %.0f points each",
        restart_s.size(), kRestartPasses, points);
    report.metric("setup_s", median(setups), "s",
                  "median of 3 set-ups (batch + cold reference)");
    report.metric("wall_s", median(restart_s), "s",
                  "restart phase (open, passes, close), median; " + basis);
    report.metric("p50_ms", quantile(restart_ms, 0.5), "ms", basis);
    report.metric("p99_ms", quantile(restart_ms, 0.99), "ms", basis);
    report.figure("answers_per_s", answers / median(restart_s), "1/s",
                  "answers from disk per second, median restart");
    report.metric("peak_rss_mb", std::max(rss, peak_rss_mib()), "MiB",
                  "VmHWM, larger of the populate and restart processes");
    report.figure("populate_s", pop.seconds, "s",
                  "open + batch + close on an empty directory (not gated: "
                  "follows the disk's fsync latency)");
    report.figure("restart_s", median(restart_s), "s", basis);
    report.figure("store_writes", pop.writes, "count", "populate");
    return report.finish();
  }

  // Traced run: populate + one restart, untraced and traced in turn (the
  // overhead is the ratio of their medians).
  std::vector<double> untraced, traced_walls;
  Window window;
  Populate pop;
  Restart restart;
  const auto start = Clock::now();
  do {
    fresh_start(dir);
    const Populate plain = populate(batch, dir);
    check_populate(report, plain, reference);
    const Restart plain_restart = run_restart(args, dir, false);
    check_restart(report, plain_restart, plain.bits);
    untraced.push_back(plain.seconds + plain_restart.seconds);
    fresh_start(dir);
    window = traced([&] { pop = populate(batch, dir); });
    check_populate(report, pop, reference);
    restart = run_restart(args, dir, true);
    check_restart(report, restart, pop.bits);
    traced_walls.push_back(pop.seconds + restart.seconds);
  } while (seconds_since(start) < args.seconds);

  report.span_table(window);
  report.layers_from(window);
  const StoreProbe probe = probe_store(dir, (root / "copy").string());
  report.layer("store.writes_per_point", pop.writes / points,
               nvp::util::format("store.write / points = %.0f / %.0f",
                                 pop.writes, points));
  report.layer("store.bytes_per_point", pop.bytes / points,
               "store bytes after populate / points");
  report.layer("store.put.mean_ms", mean(probe.put_ms),
               nvp::util::format("Store::put of %zu entries",
                                 probe.put_ms.size()));
  report.layer("store.put.p99_ms", quantile(probe.put_ms, 0.99),
               nvp::util::format("Store::put of %zu entries",
                                 probe.put_ms.size()));
  const double hits = restart.counter("hits");
  const double misses = restart.counter("misses");
  report.layer("store.reads_per_point", (hits + misses) / answers,
               nvp::util::format("restart (hits + misses) / answers = %.0f / "
                                 "%.0f",
                                 hits + misses, answers));
  report.layer("store.get.mean_ms", mean(probe.get_ms),
               nvp::util::format("Store::get of %zu entries",
                                 probe.get_ms.size()));
  report.layer("store.get.p99_ms", quantile(probe.get_ms, 0.99),
               nvp::util::format("Store::get of %zu entries",
                                 probe.get_ms.size()));
  report.layer("store.hit_ratio",
               hits + misses > 0.0 ? hits / (hits + misses) : 0.0,
               "restart hits / (hits + misses)");
  report.layer("store.open.ms", probe.open_ms,
               "Store::open on the populated directory");
  report.layer("store.corrupt", pop.corrupt + restart.counter("corrupt"),
               "populate + restart");
  report.layer("obs.trace_overhead_pct",
               100.0 * (median(traced_walls) / median(untraced) - 1.0),
               nvp::util::format("median traced / untraced populate + "
                                 "restart, %zu pairs",
                                 untraced.size()));
  report.layer("core.engine.envelope_us",
               engine_envelope_us(nc::Engine{}, batch.front().base),
               "median Engine::analyze - median analyze_raw, warm 6v");
  probe_stages("6v N=6 f=1 r=1", batch.front().base);
  probe_stages("4v N=4 f=1 (CTMC)", batch[2].base);
  fs::remove_all(root);
  return report.finish();
}

}  // namespace perfbench
