// Tests for the persistent solve store (src/store/): serialization
// round-trips (including CsrPattern parts and adversarial payloads), the
// on-disk entry format's corruption detection (version skew, truncation,
// bit flips), LRU eviction and reopen persistence, two-process concurrent
// access through real flock(2), and warm starts across a simulated process
// / nvpd restart (in-memory tiers wiped, disk tier must serve bit-identical
// results with zero recomputation).

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "src/core/analyzer.hpp"
#include "src/core/staged.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/obs/metrics.hpp"
#include "src/service/client.hpp"
#include "src/service/server.hpp"
#include "src/store/serialize.hpp"
#include "src/store/store.hpp"

namespace nvp {
namespace {

namespace fs = std::filesystem;

std::uint64_t counter_value(const std::string& name) {
  const auto snapshot = obs::Registry::global().snapshot();
  for (const auto& [counter, value] : snapshot.counters)
    if (counter == name) return value;
  return 0;
}

std::uint64_t solve_count() {
  return counter_value("markov.solver.mrgp_solves") +
         counter_value("markov.solver.ctmc_solves");
}

/// Fresh scratch directory per test; removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::path(::testing::TempDir()) / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

std::unique_ptr<store::Store> open_store(const ScratchDir& dir,
                                         std::uint64_t capacity = 0) {
  store::Options options;
  options.capacity_bytes = capacity;
  std::string error;
  auto s = store::Store::open(dir.str(), options, &error);
  EXPECT_NE(s, nullptr) << error;
  return s;
}

/// The single entry file of a store that holds exactly one entry.
fs::path only_entry(const ScratchDir& dir) {
  fs::path found;
  int count = 0;
  for (const auto& e : fs::directory_iterator(dir.path() / "entries")) {
    found = e.path();
    ++count;
  }
  EXPECT_EQ(count, 1);
  return found;
}

// ---------------------------------------------------------------------------
// Serialization primitives.

TEST(StoreSerialize, RoundTripsEveryFieldType) {
  store::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-12345);
  w.boolean(true);
  w.boolean(false);
  // Doubles must survive exactly, including the values text formatting
  // mangles: negative zero, denormals, infinities, and a NaN payload.
  const std::vector<double> specials = {
      -0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2,
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  w.vec_f64(specials);
  w.vec_u64({1, 2, 3});
  w.vec_sizes({0, 42, 9999999});
  w.vec_i32({-1, 0, 1});
  w.vec_char({'n', 'v', 'p'});
  const char blob[] = "payload";
  w.bytes(blob, sizeof(blob));

  store::Reader r(w.buffer().data(), w.buffer().size());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -12345);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  const std::vector<double> back = r.vec_f64();
  ASSERT_EQ(back.size(), specials.size());
  for (std::size_t i = 0; i < specials.size(); ++i)
    EXPECT_EQ(std::memcmp(&back[i], &specials[i], sizeof(double)), 0)
        << "double " << i << " not bit-identical";
  EXPECT_EQ(r.vec_u64(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.vec_sizes(), (std::vector<std::size_t>{0, 42, 9999999}));
  EXPECT_EQ(r.vec_i32(), (std::vector<std::int32_t>{-1, 0, 1}));
  EXPECT_EQ(r.vec_char(), (std::vector<char>{'n', 'v', 'p'}));
  EXPECT_EQ(r.u64(), sizeof(blob));  // bytes() length prefix
  ASSERT_EQ(r.remaining(), sizeof(blob));
  for (char expected : blob) EXPECT_EQ(r.u8(), static_cast<uint8_t>(expected));
  r.expect_done();
  EXPECT_THROW(r.u8(), store::SerializationError);
}

TEST(StoreSerialize, TruncatedPayloadThrowsInsteadOfOverrunning) {
  store::Writer w;
  w.u64(7);
  w.vec_f64({1.0, 2.0, 3.0});
  const auto& full = w.buffer();
  // Every strict prefix must throw somewhere before running out of fields;
  // no prefix may crash or read past its end.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    store::Reader r(full.data(), cut);
    EXPECT_THROW(
        {
          r.u64();
          r.vec_f64();
          r.expect_done();
        },
        store::SerializationError)
        << "prefix of " << cut << " bytes";
  }
}

TEST(StoreSerialize, HostileCountCannotForceHugeAllocation) {
  // A corrupt element count larger than the remaining payload must be
  // rejected before any allocation happens.
  store::Writer w;
  w.u64(0xFFFFFFFFFFFFFFF0ULL);  // claimed count
  w.f64(1.0);                    // 8 actual payload bytes
  store::Reader r(w.buffer().data(), w.buffer().size());
  EXPECT_THROW(r.vec_f64(), store::SerializationError);
}

TEST(StoreSerialize, TrailingBytesAreRejected) {
  store::Writer w;
  w.u32(1);
  w.u8(0);  // a newer writer appended a field this reader doesn't know
  store::Reader r(w.buffer().data(), w.buffer().size());
  (void)r.u32();
  EXPECT_FALSE(r.done());
  EXPECT_THROW(r.expect_done(), store::SerializationError);
}

// ---------------------------------------------------------------------------
// CsrPattern round-trip: the bulk array the structure artifact persists.

TEST(StoreSerialize, RandomCsrPatternsRoundTripBitIdentically) {
  std::mt19937_64 rng(20260808);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t rows = 1 + rng() % 40;
    const std::size_t cols = 1 + rng() % 40;
    const std::size_t slots = rng() % 200;  // duplicates very likely
    std::vector<linalg::Triplet> triplets;
    triplets.reserve(slots);
    std::uniform_real_distribution<double> value(-2.0, 2.0);
    for (std::size_t i = 0; i < slots; ++i)
      triplets.push_back({rng() % rows, rng() % cols, 0.0});
    const linalg::CsrPattern original(rows, cols, triplets);

    // Serialize the raw parts the way the artifact codec does.
    store::Writer w;
    w.u64(original.rows());
    w.u64(original.cols());
    w.vec_sizes(original.perm());
    w.vec_sizes(original.sorted_rows());
    w.vec_sizes(original.sorted_cols());
    store::Reader r(w.buffer().data(), w.buffer().size());
    const auto rebuilt_rows = static_cast<std::size_t>(r.u64());
    const auto rebuilt_cols = static_cast<std::size_t>(r.u64());
    // Sequence the three reads explicitly: argument evaluation order is
    // unspecified, so inlining them into the call would scramble the parts.
    std::vector<std::size_t> perm = r.vec_sizes();
    std::vector<std::size_t> sorted_row = r.vec_sizes();
    std::vector<std::size_t> sorted_col = r.vec_sizes();
    r.expect_done();
    const linalg::CsrPattern rebuilt = linalg::CsrPattern::from_parts(
        rebuilt_rows, rebuilt_cols, std::move(perm), std::move(sorted_row),
        std::move(sorted_col));

    // pour() on the rebuilt pattern must be bit-identical to the original
    // (and to direct triplet assembly).
    std::vector<double> values(original.slot_count());
    for (auto& v : values) v = value(rng);
    const linalg::Vector x = [&] {
      linalg::Vector probe(cols);
      for (auto& v : probe) v = value(rng);
      return probe;
    }();
    const linalg::SparseMatrixCsr a = original.pour(values);
    const linalg::SparseMatrixCsr b = rebuilt.pour(values);
    ASSERT_EQ(a.nonzeros(), b.nonzeros()) << "trial " << trial;
    const linalg::Vector ya = a.multiply(x);
    const linalg::Vector yb = b.multiply(x);
    ASSERT_EQ(ya.size(), yb.size());
    for (std::size_t i = 0; i < ya.size(); ++i)
      EXPECT_EQ(ya[i], yb[i]) << "trial " << trial << " row " << i;
  }
}

// ---------------------------------------------------------------------------
// Store: round-trip, misses, overwrite.

TEST(StoreTest, PutGetRoundTripsExactBytes) {
  ScratchDir dir("nvp_store_roundtrip");
  auto s = open_store(dir);
  std::mt19937_64 rng(7);
  for (const std::size_t size : {std::size_t{1}, std::size_t{7},
                                 std::size_t{4096}, std::size_t{100001}}) {
    std::vector<std::uint8_t> payload(size);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
    ASSERT_TRUE(s->put(store::Kind::kRates, size, payload.data(),
                       payload.size()));
    const auto back = s->get(store::Kind::kRates, size);
    ASSERT_TRUE(back.has_value()) << size << " bytes";
    EXPECT_EQ(*back, payload);
  }
  // Same key, different kind: distinct entries.
  EXPECT_FALSE(s->get(store::Kind::kStructure, 7).has_value());
}

TEST(StoreTest, MissingKeyIsAMiss) {
  ScratchDir dir("nvp_store_miss");
  auto s = open_store(dir);
  EXPECT_FALSE(s->get(store::Kind::kRewards, 42).has_value());
}

TEST(StoreTest, OverwriteReplacesThePayload) {
  ScratchDir dir("nvp_store_overwrite");
  auto s = open_store(dir);
  const std::string v1 = "first";
  const std::string v2 = "second, longer payload";
  ASSERT_TRUE(s->put(store::Kind::kRewards, 9, v1.data(), v1.size()));
  ASSERT_TRUE(s->put(store::Kind::kRewards, 9, v2.data(), v2.size()));
  const auto back = s->get(store::Kind::kRewards, 9);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::string(back->begin(), back->end()), v2);
  EXPECT_EQ(s->stats().entries, 1u);
}

// ---------------------------------------------------------------------------
// Corruption detection: every mutation must be a counted miss, never data.

TEST(StoreTest, FutureFormatVersionIsRejected) {
  ScratchDir dir("nvp_store_version");
  auto s = open_store(dir);
  const std::string payload = "from the future";
  ASSERT_TRUE(s->put(store::Kind::kStructure, 3, payload.data(),
                     payload.size()));
  // Re-stamp the header as format_version+1 WITH consistent checksums — a
  // well-formed entry from a newer writer, not random damage. The reader
  // must still reject it (it cannot know the future layout).
  const fs::path path = only_entry(dir);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  std::vector<char> header(store::kHeaderBytes);
  f.read(header.data(), header.size());
  const std::uint32_t future = store::kFormatVersion + 1;
  std::memcpy(header.data() + 8, &future, sizeof(future));
  const std::uint64_t checksum = store::fnv1a(header.data(), 40);
  std::memcpy(header.data() + 40, &checksum, sizeof(checksum));
  f.seekp(0);
  f.write(header.data(), header.size());
  f.close();

  const std::uint64_t corrupt_before = counter_value("store.corrupt");
  EXPECT_FALSE(s->get(store::Kind::kStructure, 3).has_value());
  EXPECT_GT(counter_value("store.corrupt"), corrupt_before);
}

TEST(StoreTest, TruncatedEntryIsACountedMiss) {
  ScratchDir dir("nvp_store_truncate");
  auto s = open_store(dir);
  std::vector<std::uint8_t> payload(1000, 0x5A);
  ASSERT_TRUE(s->put(store::Kind::kRates, 11, payload.data(),
                     payload.size()));
  const fs::path path = only_entry(dir);
  fs::resize_file(path, fs::file_size(path) / 2);

  const std::uint64_t corrupt_before = counter_value("store.corrupt");
  EXPECT_FALSE(s->get(store::Kind::kRates, 11).has_value());
  EXPECT_GT(counter_value("store.corrupt"), corrupt_before);
  // The damaged file must be gone: the next write recreates it cleanly.
  EXPECT_FALSE(fs::exists(path));
  ASSERT_TRUE(s->put(store::Kind::kRates, 11, payload.data(),
                     payload.size()));
  EXPECT_TRUE(s->get(store::Kind::kRates, 11).has_value());
}

TEST(StoreTest, PayloadBitFlipIsACountedMiss) {
  ScratchDir dir("nvp_store_bitflip");
  auto s = open_store(dir);
  std::vector<std::uint8_t> payload(256, 0xC3);
  ASSERT_TRUE(s->put(store::Kind::kRewards, 5, payload.data(),
                     payload.size()));
  const fs::path path = only_entry(dir);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(store::kHeaderBytes + 17);
  char byte;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  f.seekp(store::kHeaderBytes + 17);
  f.write(&byte, 1);
  f.close();

  const std::uint64_t corrupt_before = counter_value("store.corrupt");
  EXPECT_FALSE(s->get(store::Kind::kRewards, 5).has_value());
  EXPECT_GT(counter_value("store.corrupt"), corrupt_before);
}

// ---------------------------------------------------------------------------
// Eviction, reopen, gc.

TEST(StoreTest, LruEvictionKeepsRecentlyReadEntries) {
  ScratchDir dir("nvp_store_lru");
  // Each entry is 64 header + 1000 payload bytes; cap fits ~4 entries.
  const std::uint64_t cap = 4 * (store::kHeaderBytes + 1000) + 500;
  auto s = open_store(dir, cap);
  std::vector<std::uint8_t> payload(1000, 1);
  for (std::uint64_t key = 1; key <= 4; ++key)
    ASSERT_TRUE(s->put(store::Kind::kRewards, key, payload.data(),
                       payload.size()));
  // Refresh key 1 (the oldest write): the read bumps its recency, so the
  // next over-capacity write must evict key 2 instead.
  ASSERT_TRUE(s->get(store::Kind::kRewards, 1).has_value());
  ASSERT_TRUE(s->put(store::Kind::kRewards, 5, payload.data(),
                     payload.size()));
  EXPECT_TRUE(s->get(store::Kind::kRewards, 1).has_value());
  EXPECT_FALSE(s->get(store::Kind::kRewards, 2).has_value());
  EXPECT_TRUE(s->get(store::Kind::kRewards, 5).has_value());
  EXPECT_LE(s->stats().bytes, cap);
}

TEST(StoreTest, ReopenServesPersistedEntries) {
  ScratchDir dir("nvp_store_reopen");
  const std::string payload = "survives the process";
  {
    auto s = open_store(dir);
    ASSERT_TRUE(s->put(store::Kind::kStructure, 77, payload.data(),
                       payload.size()));
  }
  auto s = open_store(dir);
  const auto back = s->get(store::Kind::kStructure, 77);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::string(back->begin(), back->end()), payload);
  const store::Stats stats = s->stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.entries_by_kind[0], 1u);  // kStructure = 1 -> slot 0
}

TEST(StoreTest, GcAdoptsOrphansSweepsTempsAndEvicts) {
  ScratchDir dir("nvp_store_gc");
  std::vector<std::uint8_t> payload(500, 9);
  auto s = open_store(dir);
  for (std::uint64_t key = 1; key <= 3; ++key)
    ASSERT_TRUE(s->put(store::Kind::kRates, key, payload.data(),
                       payload.size()));
  // Simulate crash leftovers: a temp file from a dead writer and a lost
  // index (entries now orphans from the index's point of view).
  std::ofstream(dir.path() / "entries" / "junk.tmp-9999") << "crash";
  fs::remove(dir.path() / "index.v1");
  {
    auto fresh = open_store(dir);  // index rebuild by directory scan
    EXPECT_EQ(fresh->gc(), 0u);    // nothing over cap; temps swept
    EXPECT_FALSE(fs::exists(dir.path() / "entries" / "junk.tmp-9999"));
    EXPECT_EQ(fresh->stats().entries, 3u);
    // gc with an explicit tiny target evicts down to it.
    EXPECT_GT(fresh->gc(store::kHeaderBytes + 600), 0u);
    EXPECT_LE(fresh->stats().bytes, store::kHeaderBytes + 600);
  }
}

// Kind 5 held the whole-result tier, which is gone. A store written while it
// existed holds such entries: the file, kind 5 in its header, and a kind-5
// index record. Opening the store must unlink them and keep them out of the
// byte accounting; an index rebuild must do the same for a lone file.
TEST(StoreTest, OpenPurgesRetiredWholeResultEntries) {
  ScratchDir dir("nvp_store_retired");
  const std::string live = "rewards payload";
  const std::string retired = "whole-result payload";
  {
    auto s = open_store(dir);
    ASSERT_TRUE(s->put(store::Kind::kRewards, 7, live.data(), live.size()));
    ASSERT_TRUE(
        s->put(store::Kind::kRewards, 9, retired.data(), retired.size()));
  }
  const fs::path entries = dir.path() / "entries";
  const fs::path live_path = entries / "rewards-0000000000000007.nvps";
  const fs::path rewards_path = entries / "rewards-0000000000000009.nvps";
  const fs::path retired_path = entries / "whole_result-0000000000000009.nvps";
  std::vector<char> bytes(fs::file_size(rewards_path));
  std::ifstream(rewards_path, std::ios::binary)
      .read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  const std::uint32_t kind = 5;
  std::memcpy(bytes.data() + 12, &kind, sizeof(kind));
  const std::uint64_t header_checksum = store::fnv1a(bytes.data(), 40);
  std::memcpy(bytes.data() + 40, &header_checksum, sizeof(header_checksum));
  const auto write_retired = [&] {
    std::ofstream(retired_path, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  write_retired();
  fs::remove(rewards_path);
  const std::uint64_t live_size = fs::file_size(live_path);
  // index.v1: magic, version, pad, clock, count, then (kind, pad, key,
  // size, last access) per entry and a trailing FNV-1a checksum.
  store::Writer index;
  index.u64(0x3158444950564EULL);
  index.u32(1);
  index.u32(0);
  index.u64(2);
  index.u64(2);
  for (const auto& [k, key, size, clock] :
       {std::array<std::uint64_t, 4>{4, 7, live_size, 1},
        std::array<std::uint64_t, 4>{5, 9, bytes.size(), 2}}) {
    index.u32(static_cast<std::uint32_t>(k));
    index.u32(0);
    index.u64(key);
    index.u64(size);
    index.u64(clock);
  }
  index.u64(store::fnv1a(index.buffer().data(), index.buffer().size()));
  std::ofstream(dir.path() / "index.v1", std::ios::binary)
      .write(reinterpret_cast<const char*>(index.buffer().data()),
             static_cast<std::streamsize>(index.buffer().size()));

  const auto expect_only_live = [&] {
    auto s = open_store(dir);
    EXPECT_FALSE(fs::exists(retired_path));
    const store::Stats stats = s->stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.bytes, live_size);
    EXPECT_TRUE(s->get(store::Kind::kRewards, 7).has_value());
  };
  expect_only_live();
  write_retired();
  fs::remove(dir.path() / "index.v1");
  expect_only_live();
}

// ---------------------------------------------------------------------------
// Cross-process: two stores on one directory through real flock(2).

TEST(StoreTest, TwoProcessesShareOneStore) {
  ScratchDir dir("nvp_store_fork");
  constexpr int kEntries = 40;
  std::vector<std::uint8_t> payload(300);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i);
  {
    auto parent = open_store(dir);
    // Seed half the keys so the child has something to read immediately.
    for (int i = 0; i < kEntries; ++i)
      ASSERT_TRUE(parent->put(store::Kind::kRewards, 1000 + i,
                              payload.data(), payload.size()));
  }

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: open its own Store on the same directory, write its keys
    // while reading the parent's. Any failure exits nonzero.
    std::string error;
    auto child = store::Store::open(dir.str(), store::Options{}, &error);
    if (child == nullptr) _exit(10);
    int bad = 0;
    for (int i = 0; i < kEntries; ++i) {
      if (!child->put(store::Kind::kRewards, 2000 + i, payload.data(),
                      payload.size()))
        ++bad;
      const auto got = child->get(store::Kind::kRewards, 1000 + i);
      if (!got.has_value() || *got != payload) ++bad;
    }
    _exit(bad == 0 ? 0 : 1);
  }

  // Parent: interleave its own writes with the child's.
  auto parent = open_store(dir);
  for (int i = 0; i < kEntries; ++i)
    ASSERT_TRUE(parent->put(store::Kind::kRewardTable, 3000 + i,
                            payload.data(), payload.size()));
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // Everything either process wrote must now validate from the parent.
  for (int i = 0; i < kEntries; ++i) {
    EXPECT_TRUE(parent->get(store::Kind::kRewards, 1000 + i).has_value());
    EXPECT_TRUE(parent->get(store::Kind::kRewards, 2000 + i).has_value());
    EXPECT_TRUE(
        parent->get(store::Kind::kRewardTable, 3000 + i).has_value());
  }
  EXPECT_EQ(parent->stats().entries, 3u * kEntries);
}

// ---------------------------------------------------------------------------
// Warm starts: the disk tier must replace recomputation after a "restart"
// (in-memory caches wiped, global store reopened on the same directory).

class StoreWarmStart : public ::testing::Test {
 protected:
  void SetUp() override {
    store::close_global();
    core::clear_stage_caches();
  }
  void TearDown() override {
    store::close_global();
    core::clear_stage_caches();
  }

  void open_global(const ScratchDir& dir) {
    std::string error;
    ASSERT_TRUE(store::open_global(dir.str(), store::Options{}, &error))
        << error;
  }

  /// Simulates a process restart: every in-memory tier gone, the same
  /// store directory reopened.
  void restart(const ScratchDir& dir) {
    store::close_global();
    core::clear_stage_caches();
    open_global(dir);
  }
};

TEST_F(StoreWarmStart, AnalyzerRestartsWarmWithZeroSolves) {
  ScratchDir dir("nvp_store_warm_analyzer");
  open_global(dir);
  const core::ReliabilityAnalyzer analyzer;
  const auto params = core::SystemParameters::paper_six_version();
  const core::AnalysisResult cold = analyzer.analyze(params);
  EXPECT_GT(counter_value("store.write"), 0u);

  restart(dir);
  const std::uint64_t solves_before = solve_count();
  const std::uint64_t builds_before = counter_value(
      "petri.reachability.builds");
  const std::uint64_t hits_before = counter_value("store.hit");
  const core::AnalysisResult warm = analyzer.analyze(params);

  EXPECT_EQ(solve_count(), solves_before) << "warm analyze re-solved";
  EXPECT_EQ(counter_value("petri.reachability.builds"), builds_before)
      << "warm analyze re-explored";
  EXPECT_GT(counter_value("store.hit"), hits_before);
  EXPECT_EQ(warm.expected_reliability, cold.expected_reliability);
  ASSERT_EQ(warm.state_distribution.size(), cold.state_distribution.size());
  for (std::size_t i = 0; i < cold.state_distribution.size(); ++i)
    EXPECT_EQ(warm.state_distribution[i].probability,
              cold.state_distribution[i].probability);
}

TEST_F(StoreWarmStart, ServiceRestartsWarmFromTheStore) {
  ScratchDir dir("nvp_store_warm_nvpd");
  open_global(dir);
  const std::string request =
      R"({"id":1,"method":"analyze","params":{"paper":"6v"}})";

  double cold_value = 0.0;
  {
    service::Server::Options options;
    options.port = 0;
    options.workers = 1;
    service::Server server(options);
    server.start();
    service::Client client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;
    const auto response = client.call(1, request, &error);
    ASSERT_TRUE(response.has_value()) << error;
    ASSERT_TRUE(response->ok);
    cold_value = response->result->number_or("expected_reliability", -1.0);
    server.shutdown();
  }

  restart(dir);
  const std::uint64_t solves_before = solve_count();
  {
    service::Server::Options options;
    options.port = 0;
    options.workers = 1;
    service::Server server(options);
    server.start();
    service::Client client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;
    const auto response = client.call(1, request, &error);
    ASSERT_TRUE(response.has_value()) << error;
    ASSERT_TRUE(response->ok);
    EXPECT_EQ(response->result->number_or("expected_reliability", -1.0),
              cold_value);
    server.shutdown();
  }
  EXPECT_EQ(solve_count(), solves_before)
      << "restarted daemon re-solved instead of reading the store";
}

}  // namespace
}  // namespace nvp
