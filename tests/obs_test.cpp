// Tests for src/obs/: metric aggregation across threads, trace span
// nesting and parenting, JSON writing (checked by the service's wire
// parser), run-manifest round-trips and the build stamp.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/service/wire.hpp"

namespace {

using namespace nvp;

bool parses(const std::string& text) {
  return service::wire::parse(text).has_value();
}

// --- metrics ---------------------------------------------------------------

TEST(ObsCounter, AggregatesAcrossThreads) {
  obs::Counter counter;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(ObsCounter, AddHonorsIncrement) {
  obs::Counter counter;
  counter.add(5);
  counter.add(7);
  EXPECT_EQ(counter.value(), 12u);
}

TEST(ObsCounter, DisabledRecordsNothing) {
  obs::Counter counter;
  obs::set_enabled(false);
  counter.add(100);
  obs::set_enabled(true);
  counter.add(1);
  EXPECT_EQ(counter.value(), 1u);
}

TEST(ObsGauge, LastWriteWins) {
  obs::Gauge gauge;
  gauge.set(3.5);
  gauge.set(-1.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -1.25);
}

TEST(ObsHistogram, BucketsArePowersOfTwo) {
  EXPECT_EQ(obs::Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(-3.0), 0u);
  // Every value lands in a bucket whose upper bound covers it, and buckets
  // are monotone in the value.
  for (double v : {1e-4, 0.5, 1.0, 1.5, 3.0, 1000.0}) {
    const std::size_t b = obs::Histogram::bucket_of(v);
    EXPECT_GE(obs::Histogram::bucket_bound(b), v) << v;
  }
  EXPECT_LT(obs::Histogram::bucket_of(0.5), obs::Histogram::bucket_of(3.0));
  EXPECT_EQ(obs::Histogram::bucket_of(1.5), obs::Histogram::bucket_of(1.9));
  // Out-of-range values clamp to the edge buckets.
  EXPECT_EQ(obs::Histogram::bucket_of(1e300),
            obs::Histogram::kBuckets - 1);
  EXPECT_EQ(obs::Histogram::bucket_of(1e-300), 0u);
}

TEST(ObsHistogram, SnapshotAggregatesAcrossThreads) {
  obs::Histogram histogram;
  // parallel_for across the runtime pool: every worker records.
  runtime::parallel_for(1000, [&](std::size_t i) {
    histogram.observe(static_cast<double>(i % 10) + 0.5);
  });
  const auto snapshot = histogram.snapshot();
  EXPECT_EQ(snapshot.count, 1000u);
  EXPECT_NEAR(snapshot.sum, 100 * (0.5 + 1.5 + 2.5 + 3.5 + 4.5 + 5.5 + 6.5 +
                                   7.5 + 8.5 + 9.5),
              1e-9);
  EXPECT_GT(snapshot.p50, 0.0);
  EXPECT_LE(snapshot.p50, snapshot.p90);
  EXPECT_LE(snapshot.p90, snapshot.p99);
}

TEST(ObsRegistry, SameNameSameMetric) {
  auto& registry = obs::Registry::global();
  obs::Counter& a = registry.counter("obs_test.same_name");
  obs::Counter& b = registry.counter("obs_test.same_name");
  EXPECT_EQ(&a, &b);
  a.reset();
  b.add(3);
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counters.at("obs_test.same_name"), 3u);
}

// --- trace spans -----------------------------------------------------------

TEST(ObsTrace, SpansNestAndParent) {
  obs::set_tracing(true);
  obs::TraceRecorder::global().clear();
  {
    obs::ScopedSpan outer("outer");
    {
      obs::ScopedSpan inner("inner");
      obs::ScopedSpan innermost("innermost");
      EXPECT_NE(inner.id(), 0u);
      EXPECT_NE(innermost.id(), 0u);
    }
    obs::ScopedSpan sibling("sibling");
  }
  obs::set_tracing(false);
  const auto records = obs::TraceRecorder::global().finished();
  ASSERT_EQ(records.size(), 4u);

  auto find = [&](const std::string& name) {
    for (const auto& r : records)
      if (r.name == name) return r;
    ADD_FAILURE() << "span not recorded: " << name;
    return obs::SpanRecord{};
  };
  const auto outer = find("outer");
  const auto inner = find("inner");
  const auto innermost = find("innermost");
  const auto sibling = find("sibling");
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(innermost.parent, inner.id);
  EXPECT_EQ(sibling.parent, outer.id);
  EXPECT_GE(outer.wall_s, inner.wall_s);
  obs::TraceRecorder::global().clear();
}

TEST(ObsTrace, DisabledSpansAreInert) {
  obs::set_tracing(false);
  obs::TraceRecorder::global().clear();
  {
    obs::ScopedSpan span("invisible");
    EXPECT_EQ(span.id(), 0u);
  }
  EXPECT_TRUE(obs::TraceRecorder::global().finished().empty());
}

TEST(ObsTrace, TreeRenderings) {
  obs::set_tracing(true);
  obs::TraceRecorder::global().clear();
  {
    obs::ScopedSpan outer("parent");
    obs::ScopedSpan inner("child");
  }
  obs::set_tracing(false);
  const auto records = obs::TraceRecorder::global().finished();
  const std::string json = obs::span_tree_json(records);
  EXPECT_TRUE(parses(json)) << json;
  EXPECT_NE(json.find("\"parent\""), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
  const std::string text = obs::span_tree_text(records);
  EXPECT_NE(text.find("parent"), std::string::npos);
  EXPECT_NE(text.find("child"), std::string::npos);
  obs::TraceRecorder::global().clear();
}

// --- JSON writer -------------------------------------------------------------

TEST(ObsJson, WriterProducesValidDocuments) {
  obs::JsonWriter json;
  json.begin_object();
  json.kv("name", "quote\"back\\slash\nnewline");
  json.kv("count", std::uint64_t{42});
  json.kv("ratio", 0.25);
  json.kv("flag", true);
  json.key("list").begin_array();
  json.value(1).value(2).value(3);
  json.end_array();
  json.key("nan_is_null").value(std::nan(""));
  json.end_object();
  EXPECT_TRUE(parses(json.str())) << json.str();
  EXPECT_NE(json.str().find("\\n"), std::string::npos);
  EXPECT_NE(json.str().find("null"), std::string::npos);
}

TEST(ObsJson, ValidatorRejectsMalformedText) {
  EXPECT_TRUE(parses("{}"));
  EXPECT_TRUE(parses("[1, 2.5, -3e4, \"x\", null, true]"));
  EXPECT_FALSE(parses(""));
  EXPECT_FALSE(parses("{"));
  EXPECT_FALSE(parses("{\"a\":}"));
  EXPECT_FALSE(parses("[1,]"));
  EXPECT_FALSE(parses("{\"a\":1} trailing"));
  EXPECT_FALSE(parses("-"));
}

// --- run manifest ----------------------------------------------------------

TEST(ObsManifest, CaptureAndRoundTrip) {
  obs::set_tracing(true);
  obs::TraceRecorder::global().clear();
  auto& counter = obs::Registry::global().counter("obs_test.manifest");
  counter.reset();
  { obs::ScopedSpan span("obs_test.work"); counter.add(7); }
  obs::set_tracing(false);

  obs::RunManifest manifest;
  manifest.tool = "obs_test";
  manifest.command = "obs_test --fake";
  manifest.params["paper"] = "6v";
  manifest.seed = 123;
  manifest.jobs = 4;
  manifest.capture();

  EXPECT_FALSE(manifest.git_sha.empty());
  EXPECT_FALSE(manifest.timestamp_utc.empty());
  EXPECT_GT(manifest.peak_rss_bytes, 0);
  EXPECT_EQ(manifest.metrics.counters.at("obs_test.manifest"), 7u);
  ASSERT_FALSE(manifest.spans.empty());

  const std::string json = manifest.to_json();
  EXPECT_TRUE(parses(json)) << json;
  for (const char* key :
       {"\"tool\"", "\"command\"", "\"params\"", "\"seed\"", "\"jobs\"",
        "\"git_sha\"", "\"timestamp_utc\"", "\"peak_rss_bytes\"",
        "\"metrics\"", "\"spans\"", "\"obs_test.work\"",
        "\"obs_test.manifest\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;

  const std::string path = "obs_test_manifest.json";
  manifest.write(path);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), json + "\n");
  std::remove(path.c_str());
  obs::TraceRecorder::global().clear();
}

TEST(ObsManifest, BuildStampNamesTheCommitAndBuildType) {
  // Stamped on every build: 12 hex digits of HEAD, marked dirty when a
  // tracked file differs from it, or "unknown" outside a git work tree.
  const std::string sha = obs::build_git_sha();
  EXPECT_TRUE(std::regex_match(
      sha, std::regex("^[0-9a-f]{12}(-dirty)?$|^unknown$")))
      << sha;
  EXPECT_FALSE(std::string(obs::build_type()).empty());
}

}  // namespace
