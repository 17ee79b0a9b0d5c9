#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace nvp::store {

/// Artifact kinds the store holds, one per staged-pipeline cache level.
/// The numeric value is part of the on-disk format — append, never renumber.
/// Value 5 belonged to the retired whole-result tier and stays unused;
/// Store::open purges the entries a store still holds under it.
enum class Kind : std::uint32_t {
  kStructure = 1,    ///< core::StructureArtifact (graph skeleton + plan)
  kRates = 2,        ///< core::RatesArtifact (stationary vector)
  kRewardTable = 3,  ///< per-class reward table
  kRewards = 4,      ///< staged rewards-stage AnalysisResult
};
inline constexpr std::size_t kKindCount = 4;

/// "structure" / "rates" / "reward_table" / "rewards".
const char* to_string(Kind kind);

/// One entry file on disk:
///
///   64-byte header | payload
///
/// Header fields (fixed-width, host little-endian; the magic doubles as a
/// byte-order sentinel):
///
///   magic u64 | format_version u32 | kind u32 | key u64 | payload_size u64
///   | payload_checksum u64 (FNV-1a) | header_checksum u64 (FNV-1a over the
///   first 40 header bytes) | reserved u64 x2
///
/// The 64-byte header keeps the payload 8-byte aligned, so a reader may
/// mmap the file and view the bulk arrays (CSR patterns, solution vectors)
/// in place — the store's own read path does exactly that. ANY mismatch —
/// magic, version, kind, key, sizes, either checksum — is counted as
/// `store.corrupt`, the entry is dropped, and the caller recomputes; a
/// corrupt store can cost time but never change a result.
inline constexpr std::uint64_t kEntryMagic = 0x31534F5250564EULL;  // "NVPROS1"
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderBytes = 64;

/// Open-time knobs.
struct Options {
  /// Total on-disk budget (headers + payloads). The LRU evictor trims the
  /// store below this bound on every write and on gc(). 0 = unlimited.
  std::uint64_t capacity_bytes = 1ULL << 30;
};

/// Point-in-time accounting of one open store (directory contents per the
/// current index, plus the process-lifetime obs counters).
struct Stats {
  std::string directory;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t capacity_bytes = 0;
  std::uint64_t entries_by_kind[kKindCount] = {0};
  std::uint64_t bytes_by_kind[kKindCount] = {0};
  // Process-lifetime counters (obs registry: store.hit / store.miss / ...).
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writes = 0;
};

/// Persistent, content-addressed artifact store shared by concurrent
/// processes: canonical 64-bit stage keys map to checksummed blobs under
/// one directory.
///
///   <dir>/lock        flock target: LOCK_SH readers, LOCK_EX writers
///   <dir>/index.v1    LRU index (key, kind, size, last-access clock)
///   <dir>/entries/<kind>-<16-hex-key>.nvps
///
/// * Crash-safe writes: entry files and the index are written to a
///   temporary name in the same directory, fsync'd, then atomically
///   renamed — a reader sees the old entry or the new one, never a torn
///   write. A crash can orphan a temp file or an entry missing from the
///   index; both are adopted or swept by the next open()/gc().
/// * Locking: single writer, multiple readers, across processes, via
///   flock(2) on <dir>/lock. Within a process one mutex serializes all
///   store calls (the flock fd is per-Store, and POSIX lock upgrade
///   semantics make per-thread sharing of one fd unsafe).
/// * Eviction: size-capped LRU on a logical access clock persisted in the
///   index. Reads refresh recency in memory and piggyback the update on
///   this process's next write, so the read path never takes the exclusive
///   lock; cross-process recency is therefore approximate (documented
///   trade: readers stay wait-free with respect to each other).
/// * Corruption: every read validates the header and both checksums;
///   failures count `store.corrupt`, delete the entry, and report a miss so
///   the caller recomputes. Bit-identity with the cold path is preserved by
///   construction — the store returns either the exact bytes that were
///   written or nothing.
class Store {
 public:
  /// Opens (creating if needed) the store at `dir`. Returns null and sets
  /// `*error` when the directory cannot be created or the lock file cannot
  /// be opened.
  static std::unique_ptr<Store> open(const std::string& dir,
                                     const Options& options,
                                     std::string* error);
  ~Store();

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Validated payload bytes of (kind, key), or nullopt on miss/corruption.
  /// An armed `store-read` fault site turns reads into counted misses.
  std::optional<std::vector<std::uint8_t>> get(Kind kind, std::uint64_t key);

  /// Writes the entry (write-to-temp + fsync + atomic rename), updates the
  /// index, and evicts LRU entries while over capacity. Returns false on
  /// I/O failure (counted, never thrown: a failed write costs a future
  /// recompute, nothing else). An armed `store-write` fault site fails the
  /// write the same way.
  bool put(Kind kind, std::uint64_t key, const void* data, std::size_t size);

  /// Re-scans the directory (adopting orphans, dropping stale index rows,
  /// sweeping temp files) and evicts down to `capacity_override` bytes when
  /// positive, else the configured capacity. Returns the eviction count.
  std::uint64_t gc(std::uint64_t capacity_override = 0);

  Stats stats() const;
  const std::string& directory() const { return dir_; }
  const Options& options() const { return options_; }

 private:
  struct IndexEntry {
    std::uint64_t size = 0;         ///< file bytes (header + payload)
    std::uint64_t last_access = 0;  ///< logical clock, larger = more recent
  };
  using IndexKey = std::pair<std::uint32_t, std::uint64_t>;  // kind, key

  Store(std::string dir, const Options& options, int lock_fd);

  std::string entry_path(Kind kind, std::uint64_t key) const;
  /// Parses an entries/ file name back to (kind, key); false when the name
  /// is not a store entry.
  static bool parse_entry_name(const std::string& name, IndexKey* out);

  /// flock guards (blocking). Return false when flock itself fails; the
  /// caller then behaves as if the store were unavailable (miss / failed
  /// write) rather than risking unsynchronized access.
  bool lock_shared();
  bool lock_exclusive();
  void unlock();

  /// Loads index.v1, merging this process's pending recency bumps; falls
  /// back to a directory scan when the file is missing or malformed.
  /// Entries of the retired kind go to `retired_` (replacing its previous
  /// contents), never into the index.
  void load_index_locked();
  /// Persists the index; first unlinks the files of `retired_` (the caller
  /// holds the exclusive lock, and the new index no longer lists them).
  bool write_index_locked();
  void scan_entries_locked();
  /// Evicts least-recently-used entries until total size <= cap. Caller
  /// holds the exclusive lock.
  std::uint64_t evict_to_locked(std::uint64_t cap);
  std::uint64_t total_bytes_locked() const;

  std::string dir_;
  Options options_;
  int lock_fd_ = -1;

  mutable std::mutex mutex_;
  std::map<IndexKey, IndexEntry> index_;
  std::uint64_t clock_ = 0;
  bool recency_dirty_ = false;  ///< reads bumped recency since last persist
  std::vector<std::uint64_t> retired_;  ///< retired-kind keys to unlink
};

/// Process-wide store used by the staged pipeline's second cache tier.
/// Null until opened; the pipeline skips the disk tier entirely then.
Store* global();

/// Opens the global store (no-op when already open on the same directory;
/// an attempt to re-point it at a different directory fails). Thread-safe.
bool open_global(const std::string& dir, const Options& options,
                 std::string* error);

/// Closes the global store (tests; flushes pending recency).
void close_global();

/// Reads NVP_STORE (directory; empty/unset = disabled) and NVP_STORE_CAP_MB
/// and opens the global store accordingly. Returns the directory in use, or
/// empty. Called by drivers after CLI flags had their chance.
std::string open_global_from_env();

}  // namespace nvp::store
