// Tests for the src/runtime/ execution layer: thread-pool semantics
// (coverage, ordering of results, exception propagation), the sharded LRU
// solver cache (hit/miss/eviction accounting, LRU policy, memoization), the
// SplitMix64 substream API, and the determinism guarantee that parallel
// sweeps / replicated simulations produce results identical to serial runs
// for any job count.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/analyzer.hpp"
#include "src/core/architecture_space.hpp"
#include "src/core/model_factory.hpp"
#include "src/core/optimizer.hpp"
#include "src/core/reliability.hpp"
#include "src/core/sensitivity.hpp"
#include "src/core/staged.hpp"
#include "src/core/sweep.hpp"
#include "src/obs/metrics.hpp"
#include "src/runtime/fnv.hpp"
#include "src/runtime/lru_cache.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/sim/dspn_simulator.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace nvp;

// ---------------------------------------------------------------- thread pool

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  runtime::ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ThreadPool, SerialPoolRunsInline) {
  runtime::ThreadPool pool(1);
  EXPECT_EQ(pool.jobs(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(8);
  pool.parallel_for(8, [&](std::size_t i) {
    ran[i] = std::this_thread::get_id();
  });
  for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ParallelMapPreservesInputOrder) {
  runtime::ThreadPool pool(8);
  std::vector<int> input(500);
  std::iota(input.begin(), input.end(), 0);
  const auto squares =
      pool.parallel_map(input, [](const int& x) { return x * x; });
  ASSERT_EQ(squares.size(), input.size());
  for (std::size_t i = 0; i < input.size(); ++i)
    EXPECT_EQ(squares[i], input[i] * input[i]);
}

TEST(ThreadPool, PropagatesFirstExceptionToCaller) {
  runtime::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives a failed loop and stays usable.
  std::atomic<int> count{0};
  pool.parallel_for(64, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, SerialPoolPropagatesExceptions) {
  runtime::ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(
                   4, [](std::size_t) { throw std::logic_error("inline"); }),
               std::logic_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  runtime::ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, DefaultJobsOverride) {
  runtime::set_default_jobs(3);
  EXPECT_EQ(runtime::default_jobs(), 3u);
  EXPECT_EQ(runtime::default_pool()->jobs(), 3u);
  runtime::set_default_jobs(0);  // back to auto
  EXPECT_GE(runtime::default_jobs(), 1u);
}

// ------------------------------------------------------------------ LRU cache

TEST(ShardedLruCache, CountsHitsAndMisses) {
  runtime::ShardedLruCache<int> cache(/*capacity=*/8, /*shards=*/1);
  EXPECT_FALSE(cache.get(1).has_value());
  cache.put(1, 10);
  const auto hit = cache.get(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 10);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ShardedLruCache, EvictsLeastRecentlyUsed) {
  runtime::ShardedLruCache<int> cache(/*capacity=*/3, /*shards=*/1);
  cache.put(1, 1);
  cache.put(2, 2);
  cache.put(3, 3);
  // Touch 1 so that 2 becomes the LRU entry.
  EXPECT_TRUE(cache.get(1).has_value());
  cache.put(4, 4);  // over capacity: evicts 2
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_TRUE(cache.get(4).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ShardedLruCache, GetOrComputeMemoizes) {
  runtime::ShardedLruCache<int> cache(/*capacity=*/8, /*shards=*/2);
  int computed = 0;
  auto compute = [&] {
    ++computed;
    return 42;
  };
  EXPECT_EQ(cache.get_or_compute(7, compute), 42);
  EXPECT_EQ(cache.get_or_compute(7, compute), 42);
  EXPECT_EQ(computed, 1);
}

TEST(ShardedLruCache, ClearResetsEntriesAndCounters) {
  runtime::ShardedLruCache<int> cache(/*capacity=*/4, /*shards=*/2);
  cache.put(1, 1);
  cache.get(1);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().lookups(), 0u);
  EXPECT_FALSE(cache.get(1).has_value());
}

TEST(ShardedLruCache, ConcurrentMixedAccessIsConsistent) {
  runtime::ShardedLruCache<std::size_t> cache(/*capacity=*/64, /*shards=*/8);
  runtime::ThreadPool pool(8);
  pool.parallel_for(2000, [&](std::size_t i) {
    const std::uint64_t key = i % 100;
    const std::size_t value =
        cache.get_or_compute(key, [&] { return static_cast<std::size_t>(key * 3); });
    EXPECT_EQ(value, key * 3);
  });
  // get_or_compute performs exactly one counted lookup per call.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.lookups(), 2000u);
  EXPECT_GE(stats.misses, 100u);  // every distinct key misses at least once
}

// ----------------------------------------------------------------- fnv + seeds

TEST(Fnv1a, DistinguishesFieldBoundaries) {
  runtime::Fnv1a a, b;
  a.str("ab").str("c");
  b.str("a").str("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Fnv1a, CollapsesSignedZero) {
  runtime::Fnv1a a, b;
  a.f64(0.0);
  b.f64(-0.0);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(SubstreamSeed, MatchesSerialSplitMix64Seeder) {
  // The documented compatibility guarantee: substream_seed(m, k) is the
  // (k+1)-th output of SplitMix64(m), so parallel tasks seeding themselves
  // by index reproduce the historical serial seeder exactly.
  const std::uint64_t master = 0xDEADBEEFCAFEULL;
  util::SplitMix64 seeder(master);
  for (std::uint64_t k = 0; k < 64; ++k)
    EXPECT_EQ(util::substream_seed(master, k), seeder.next());
}

TEST(SeedSequence, NextAndAtAgree) {
  util::SeedSequence seq(123);
  const std::uint64_t s0 = seq.next();
  const std::uint64_t s1 = seq.next();
  EXPECT_EQ(s0, seq.at(0));
  EXPECT_EQ(s1, seq.at(1));
  EXPECT_NE(s0, s1);
}

// -------------------------------------------------------- analyzer memoization

TEST(AnalysisCache, KeyIsSensitiveToParamsAndOptions) {
  const auto params = core::SystemParameters::paper_six_version();
  core::ReliabilityAnalyzer::Options options;
  const std::uint64_t base_key = core::rewards_stage_key(params, options);

  auto perturbed = params;
  perturbed.rejuvenation_interval += 1.0;
  EXPECT_NE(core::rewards_stage_key(perturbed, options), base_key);

  auto other_options = options;
  other_options.convention = core::RewardConvention::kGeneralized;
  EXPECT_NE(core::rewards_stage_key(params, other_options), base_key);
  other_options = options;
  other_options.attachment = core::RewardAttachment::kAppendixMatrices;
  EXPECT_NE(core::rewards_stage_key(params, other_options), base_key);
  EXPECT_EQ(core::rewards_stage_key(params, options), base_key);
}

std::uint64_t analyzer_solves() {
  for (const auto& [name, value] :
       obs::Registry::global().snapshot().counters)
    if (name == "core.analyzer.solves") return value;
  return 0;
}

TEST(AnalysisCache, RepeatAnalysisHitsTheCache) {
  core::clear_stage_caches();
  const core::ReliabilityAnalyzer analyzer;
  const auto params = core::SystemParameters::paper_four_version();
  const std::uint64_t cold_solves = analyzer_solves();
  const auto first = analyzer.analyze(params);
  // A cold point is one solve; a warm repeat is a rewards-cache hit that
  // the solve counter does not see.
  EXPECT_EQ(analyzer_solves(), cold_solves + 1);
  const auto before = core::stage_cache_stats().rewards;
  const auto second = analyzer.analyze(params);
  const auto after = core::stage_cache_stats().rewards;
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(analyzer_solves(), cold_solves + 1);
  EXPECT_DOUBLE_EQ(first.expected_reliability, second.expected_reliability);
  EXPECT_EQ(first.tangible_states, second.tangible_states);
}

// ---------------------------------------------------------------- determinism

std::vector<core::SweepPoint> run_sweep_with_jobs(std::size_t jobs,
                                                  bool use_cache) {
  runtime::set_default_jobs(jobs);
  core::ReliabilityAnalyzer::Options options;
  options.use_cache = use_cache;
  core::clear_stage_caches();
  const core::ReliabilityAnalyzer analyzer(options);
  const auto base = core::SystemParameters::paper_six_version();
  return core::sweep_parameter(analyzer, base,
                               core::set_rejuvenation_interval(),
                               core::linspace(300.0, 1200.0, 6));
}

TEST(Determinism, SweepIsIdenticalForAnyJobCount) {
  const auto serial = run_sweep_with_jobs(1, /*use_cache=*/false);
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    const auto parallel = run_sweep_with_jobs(jobs, /*use_cache=*/false);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].x, serial[i].x) << "jobs=" << jobs;
      // Bitwise equality: the same solves run in both cases.
      EXPECT_EQ(parallel[i].expected_reliability,
                serial[i].expected_reliability)
          << "jobs=" << jobs << " point " << i;
    }
  }
  runtime::set_default_jobs(0);
}

TEST(Determinism, CachedSweepMatchesUncached) {
  const auto uncached = run_sweep_with_jobs(1, /*use_cache=*/false);
  const auto cached = run_sweep_with_jobs(1, /*use_cache=*/true);
  ASSERT_EQ(cached.size(), uncached.size());
  for (std::size_t i = 0; i < uncached.size(); ++i)
    EXPECT_EQ(cached[i].expected_reliability,
              uncached[i].expected_reliability);
  runtime::set_default_jobs(0);
}

sim::ReplicationEstimate run_estimate_with_jobs(std::size_t jobs) {
  runtime::set_default_jobs(jobs);
  const auto params = core::SystemParameters::paper_four_version();
  const auto model = core::PerceptionModelFactory::build(params);
  const auto rewards = core::make_reliability_model(params);
  const sim::DspnSimulator simulator(model.net);
  sim::SimulationOptions options;
  options.horizon = 2.0e4;
  options.warmup_time = 1.0e3;
  options.seed = 2024;
  return simulator.estimate(
      [&](const petri::Marking& m) {
        return rewards->state_reliability(model.healthy(m),
                                          model.compromised(m),
                                          model.down(m));
      },
      options, /*replications=*/8);
}

TEST(Determinism, ReplicatedEstimateIsIdenticalForAnyJobCount) {
  const auto serial = run_estimate_with_jobs(1);
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    const auto parallel = run_estimate_with_jobs(jobs);
    // Bit-identical at the estimate level: same substream per replication,
    // accumulated in replication order.
    EXPECT_EQ(parallel.mean, serial.mean) << "jobs=" << jobs;
    EXPECT_EQ(parallel.std_error, serial.std_error) << "jobs=" << jobs;
    EXPECT_EQ(parallel.ci.lo, serial.ci.lo) << "jobs=" << jobs;
    EXPECT_EQ(parallel.ci.hi, serial.ci.hi) << "jobs=" << jobs;
  }
  runtime::set_default_jobs(0);
}

/// Runs `batch` on cleared stage caches at 1, 2 and 8 jobs; every run
/// must report exactly the serial run's numbers.
void expect_identical_for_any_job_count(
    const std::function<std::vector<double>()>& batch) {
  const auto run_with = [&](std::size_t jobs) {
    runtime::set_default_jobs(jobs);
    core::clear_stage_caches();
    return batch();
  };
  const std::vector<double> serial = run_with(1);
  EXPECT_FALSE(serial.empty());
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}})
    EXPECT_EQ(run_with(jobs), serial) << "jobs=" << jobs;
  runtime::set_default_jobs(0);
}

TEST(Determinism, OptimizerIsIdenticalForAnyJobCount) {
  expect_identical_for_any_job_count([] {
    const core::ReliabilityAnalyzer analyzer;
    const auto optimum = core::optimize_rejuvenation_interval(
        analyzer, core::SystemParameters::paper_six_version(), 200.0, 1500.0,
        /*grid_points=*/6, /*tolerance=*/50.0);
    return std::vector<double>{optimum.x, optimum.expected_reliability,
                               static_cast<double>(optimum.evaluations)};
  });
}

TEST(Determinism, CrossoversAreIdenticalForAnyJobCount) {
  // 6v against 4v over MTTC crosses twice in [100, 20000].
  expect_identical_for_any_job_count([] {
    const core::ReliabilityAnalyzer analyzer;
    std::vector<double> out;
    for (const core::Crossover& c : core::find_crossovers(
             analyzer, core::SystemParameters::paper_six_version(),
             core::SystemParameters::paper_four_version(),
             core::set_mean_time_to_compromise(),
             core::linspace(100.0, 20000.0, 12)))
      out.insert(out.end(), {c.x, c.reliability});
    return out;
  });
}

TEST(Determinism, SensitivityIsIdenticalForAnyJobCount) {
  expect_identical_for_any_job_count([] {
    const core::ReliabilityAnalyzer analyzer;
    std::vector<double> out;
    for (const core::SensitivityEntry& e : core::sensitivity_report(
             analyzer, core::SystemParameters::paper_six_version()))
      out.insert(out.end(), {e.value_down, e.value_up, e.elasticity});
    return out;
  });
}

TEST(Determinism, ArchitectureSpaceIsIdenticalForAnyJobCount) {
  expect_identical_for_any_job_count([] {
    core::ArchitectureSpaceExplorer::Options options;
    options.max_versions = 7;
    std::vector<double> out;
    for (const core::ArchitectureResult& r :
         core::ArchitectureSpaceExplorer(options).explore(
             core::SystemParameters::paper_six_version()))
      out.insert(out.end(), {static_cast<double>(r.n),
                             static_cast<double>(r.r), r.expected_reliability,
                             static_cast<double>(r.tangible_states)});
    return out;
  });
}

}  // namespace
