#include "src/store/store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <utility>

#include "src/fault/injector.hpp"
#include "src/obs/metrics.hpp"
#include "src/store/serialize.hpp"

namespace nvp::store {

namespace fs = std::filesystem;

namespace {

// Entry-file prefix of each kind value, value - 1 indexed. The last one
// names the retired whole-result kind, whose leftover entries are purged.
constexpr const char* kKindNames[] = {"structure", "rates", "reward_table",
                                      "rewards", "whole_result"};
constexpr std::uint32_t kRetiredKind = 5;
static_assert(std::size(kKindNames) == kRetiredKind &&
              kRetiredKind == kKindCount + 1);

const char* file_prefix(std::uint32_t kind) {
  return kind >= 1 && kind <= std::size(kKindNames) ? kKindNames[kind - 1]
                                                    : "?";
}

constexpr std::uint64_t kIndexMagic = 0x3158444950564EULL;  // "NVPIDX1"
constexpr std::uint32_t kIndexVersion = 1;

struct Counters {
  obs::Counter& hit;
  obs::Counter& miss;
  obs::Counter& corrupt;
  obs::Counter& evict;
  obs::Counter& write;
  obs::Histogram& read_seconds;
  obs::Histogram& write_seconds;
  obs::Histogram& open_seconds;

  static Counters& instance() {
    auto& reg = obs::Registry::global();
    static Counters c{reg.counter("store.hit"),
                      reg.counter("store.miss"),
                      reg.counter("store.corrupt"),
                      reg.counter("store.evict"),
                      reg.counter("store.write"),
                      reg.histogram("store.read_seconds"),
                      reg.histogram("store.write_seconds"),
                      reg.histogram("store.open_seconds")};
    return c;
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// 64-byte entry header; see the format comment in store.hpp. Serialized by
/// memcpy of the whole struct — all members are naturally aligned and the
/// layout is fixed by the explicit padding-free field order.
struct EntryHeader {
  std::uint64_t magic;
  std::uint32_t format_version;
  std::uint32_t kind;
  std::uint64_t key;
  std::uint64_t payload_size;
  std::uint64_t payload_checksum;
  std::uint64_t header_checksum;  ///< FNV-1a over the first 40 bytes
  std::uint64_t reserved[2];
};
static_assert(sizeof(EntryHeader) == kHeaderBytes,
              "entry header must be exactly 64 bytes");

EntryHeader make_header(Kind kind, std::uint64_t key, const void* payload,
                        std::size_t payload_size) {
  EntryHeader h{};
  h.magic = kEntryMagic;
  h.format_version = kFormatVersion;
  h.kind = static_cast<std::uint32_t>(kind);
  h.key = key;
  h.payload_size = payload_size;
  h.payload_checksum = fnv1a(payload, payload_size);
  h.header_checksum = fnv1a(&h, 40);
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// fsync the directory containing `path` so a rename into it is durable.
void fsync_parent(const std::string& path) {
  const fs::path parent = fs::path(path).parent_path();
  const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Writes `header? + payload` to a sibling temp file, fsyncs, and atomically
/// renames it over `path`. Returns false on any I/O failure (temp removed).
bool atomic_write_file(const std::string& path,
                       const void* header, std::size_t header_size,
                       const void* payload, std::size_t payload_size) {
  const std::string tmp =
      path + ".tmp-" + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  auto write_all = [fd](const void* data, std::size_t size) {
    const char* p = static_cast<const char*>(data);
    while (size > 0) {
      const ssize_t n = ::write(fd, p, size);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += n;
      size -= static_cast<std::size_t>(n);
    }
    return true;
  };
  bool ok = true;
  if (header_size > 0) ok = write_all(header, header_size);
  if (ok && payload_size > 0) ok = write_all(payload, payload_size);
  if (ok) ok = ::fsync(fd) == 0;
  ::close(fd);
  if (ok) ok = ::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    ::unlink(tmp.c_str());
    return false;
  }
  fsync_parent(path);
  return true;
}

}  // namespace

const char* to_string(Kind kind) {
  const std::uint32_t i = static_cast<std::uint32_t>(kind);
  return i >= 1 && i <= kKindCount ? kKindNames[i - 1] : "?";
}

Store::Store(std::string dir, const Options& options, int lock_fd)
    : dir_(std::move(dir)), options_(options), lock_fd_(lock_fd) {}

Store::~Store() {
  // Persist any read-recency bumps accumulated since the last write so the
  // next process's evictor sees them.
  if (recency_dirty_ && lock_exclusive()) {
    load_index_locked();
    write_index_locked();
    unlock();
  }
  if (lock_fd_ >= 0) ::close(lock_fd_);
}

std::unique_ptr<Store> Store::open(const std::string& dir,
                                   const Options& options,
                                   std::string* error) {
  const auto t0 = std::chrono::steady_clock::now();
  std::error_code ec;
  fs::create_directories(fs::path(dir) / "entries", ec);
  if (ec) {
    if (error != nullptr)
      *error = "store: cannot create '" + dir + "': " + ec.message();
    return nullptr;
  }
  const std::string lock_path = (fs::path(dir) / "lock").string();
  const int lock_fd = ::open(lock_path.c_str(), O_RDWR | O_CREAT, 0644);
  if (lock_fd < 0) {
    if (error != nullptr)
      *error = "store: cannot open lock file '" + lock_path +
               "': " + std::strerror(errno);
    return nullptr;
  }
  std::unique_ptr<Store> store(new Store(dir, options, lock_fd));
  if (store->lock_shared()) {
    std::lock_guard<std::mutex> guard(store->mutex_);
    store->load_index_locked();
    store->unlock();
  }
  // A store written before the whole-result tier was removed: drop its
  // entries, so eviction and `stats` account only for live kinds.
  if (!store->retired_.empty() && store->lock_exclusive()) {
    std::lock_guard<std::mutex> guard(store->mutex_);
    store->load_index_locked();
    store->write_index_locked();
    store->unlock();
  }
  Counters::instance().open_seconds.observe(seconds_since(t0));
  return store;
}

std::string Store::entry_path(Kind kind, std::uint64_t key) const {
  return (fs::path(dir_) / "entries" /
          (std::string(file_prefix(static_cast<std::uint32_t>(kind))) +
           "-" + hex16(key) + ".nvps"))
      .string();
}

bool Store::parse_entry_name(const std::string& name, IndexKey* out) {
  // <kind-name>-<16 hex>.nvps
  constexpr std::size_t kSuffix = 16 + 5;  // hex key + ".nvps"
  if (name.size() <= kSuffix + 1) return false;
  if (name.compare(name.size() - 5, 5, ".nvps") != 0) return false;
  const std::string kind_name = name.substr(0, name.size() - kSuffix - 1);
  if (name[name.size() - kSuffix - 1] != '-') return false;
  std::uint32_t kind = 0;
  for (std::size_t i = 0; i < std::size(kKindNames); ++i)
    if (kind_name == kKindNames[i]) kind = static_cast<std::uint32_t>(i + 1);
  if (kind == 0) return false;
  const std::string hex = name.substr(name.size() - kSuffix, 16);
  std::uint64_t key = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    key = (key << 4) | static_cast<std::uint64_t>(digit);
  }
  out->first = kind;
  out->second = key;
  return true;
}

bool Store::lock_shared() {
  while (::flock(lock_fd_, LOCK_SH) != 0)
    if (errno != EINTR) return false;
  return true;
}

bool Store::lock_exclusive() {
  while (::flock(lock_fd_, LOCK_EX) != 0)
    if (errno != EINTR) return false;
  return true;
}

void Store::unlock() { ::flock(lock_fd_, LOCK_UN); }

void Store::load_index_locked() {
  retired_.clear();  // re-collected from the index (or scan) read below
  std::map<IndexKey, IndexEntry> loaded;
  std::uint64_t disk_clock = 0;
  bool ok = false;
  const std::string path = (fs::path(dir_) / "index.v1").string();
  if (FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<std::uint8_t> bytes(size > 0 ? static_cast<std::size_t>(size)
                                             : 0);
    if (!bytes.empty() &&
        std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
        bytes.size() > sizeof(std::uint64_t)) {
      // Trailing u64 is an FNV-1a checksum over everything before it.
      const std::size_t body = bytes.size() - sizeof(std::uint64_t);
      std::uint64_t recorded;
      std::memcpy(&recorded, bytes.data() + body, sizeof(recorded));
      if (recorded == fnv1a(bytes.data(), body)) {
        try {
          Reader r(bytes.data(), body);
          if (r.u64() == kIndexMagic && r.u32() == kIndexVersion) {
            r.u32();  // pad
            disk_clock = r.u64();
            const std::uint64_t count = r.u64();
            for (std::uint64_t i = 0; i < count; ++i) {
              IndexKey key;
              key.first = r.u32();
              r.u32();  // pad
              key.second = r.u64();
              IndexEntry entry;
              entry.size = r.u64();
              entry.last_access = r.u64();
              if (key.first == kRetiredKind)
                retired_.push_back(key.second);
              else
                loaded[key] = entry;
            }
            r.expect_done();
            ok = true;
          }
        } catch (const SerializationError&) {
          ok = false;
        }
      }
    }
    std::fclose(f);
  }
  if (!ok) {
    // Missing or malformed index: rebuild from the directory contents.
    index_.clear();
    scan_entries_locked();
    recency_dirty_ = true;
    return;
  }
  // Merge this process's view into the disk state: recency is max of both;
  // entries we know about that another process's index lost (orphan
  // adoptions) survive if their file still exists.
  for (const auto& [key, mine] : index_) {
    auto it = loaded.find(key);
    if (it != loaded.end()) {
      if (mine.last_access > it->second.last_access)
        it->second.last_access = mine.last_access;
    } else {
      std::error_code ec;
      if (fs::exists(entry_path(static_cast<Kind>(key.first), key.second),
                     ec))
        loaded[key] = mine;
    }
  }
  index_ = std::move(loaded);
  if (disk_clock > clock_) clock_ = disk_clock;
}

bool Store::write_index_locked() {
  for (const std::uint64_t key : retired_)
    ::unlink(entry_path(static_cast<Kind>(kRetiredKind), key).c_str());
  retired_.clear();
  Writer w;
  w.u64(kIndexMagic);
  w.u32(kIndexVersion);
  w.u32(0);
  w.u64(clock_);
  w.u64(index_.size());
  for (const auto& [key, entry] : index_) {
    w.u32(key.first);
    w.u32(0);
    w.u64(key.second);
    w.u64(entry.size);
    w.u64(entry.last_access);
  }
  const std::uint64_t checksum = fnv1a(w.buffer().data(), w.buffer().size());
  w.u64(checksum);
  const std::string path = (fs::path(dir_) / "index.v1").string();
  const bool ok = atomic_write_file(path, nullptr, 0, w.buffer().data(),
                                    w.buffer().size());
  if (ok) recency_dirty_ = false;
  return ok;
}

void Store::scan_entries_locked() {
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(fs::path(dir_) / "entries",
                                               ec)) {
    const std::string name = de.path().filename().string();
    IndexKey key;
    if (!parse_entry_name(name, &key)) continue;
    if (key.first == kRetiredKind) {
      retired_.push_back(key.second);
      continue;
    }
    std::error_code size_ec;
    const std::uint64_t size = de.file_size(size_ec);
    if (size_ec) continue;
    auto it = index_.find(key);
    if (it == index_.end()) {
      // Orphan (crash between rename and index write, or an index loss):
      // adopt at the current clock — orphans are usually the newest writes.
      index_[key] = IndexEntry{size, clock_};
    } else {
      it->second.size = size;
    }
  }
}

std::uint64_t Store::total_bytes_locked() const {
  std::uint64_t total = 0;
  for (const auto& [key, entry] : index_) total += entry.size;
  return total;
}

std::uint64_t Store::evict_to_locked(std::uint64_t cap) {
  if (cap == 0) return 0;  // 0 = unlimited
  std::uint64_t evicted = 0;
  std::uint64_t total = total_bytes_locked();
  while (total > cap && !index_.empty()) {
    auto victim = index_.begin();
    for (auto it = index_.begin(); it != index_.end(); ++it)
      if (it->second.last_access < victim->second.last_access) victim = it;
    ::unlink(entry_path(static_cast<Kind>(victim->first.first),
                        victim->first.second)
                 .c_str());
    total -= victim->second.size;
    index_.erase(victim);
    ++evicted;
  }
  if (evicted > 0) Counters::instance().evict.add(evicted);
  return evicted;
}

std::optional<std::vector<std::uint8_t>> Store::get(Kind kind,
                                                    std::uint64_t key) {
  const auto t0 = std::chrono::steady_clock::now();
  auto& counters = Counters::instance();
  std::lock_guard<std::mutex> guard(mutex_);
  if (fault::fire(fault::Site::kStoreRead)) {
    counters.miss.add();
    return std::nullopt;
  }
  if (!lock_shared()) {
    counters.miss.add();
    return std::nullopt;
  }
  const std::string path = entry_path(kind, key);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    unlock();
    counters.miss.add();
    return std::nullopt;
  }
  struct stat st{};
  std::optional<std::vector<std::uint8_t>> result;
  bool corrupt = false;
  if (::fstat(fd, &st) == 0 &&
      static_cast<std::uint64_t>(st.st_size) >= kHeaderBytes) {
    const std::size_t file_size = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      EntryHeader h{};
      std::memcpy(&h, map, sizeof(h));
      const std::uint8_t* payload =
          static_cast<const std::uint8_t*>(map) + kHeaderBytes;
      const std::size_t payload_size = file_size - kHeaderBytes;
      if (h.magic != kEntryMagic || h.format_version != kFormatVersion ||
          h.kind != static_cast<std::uint32_t>(kind) || h.key != key ||
          h.payload_size != payload_size ||
          h.header_checksum != fnv1a(&h, 40) ||
          h.payload_checksum != fnv1a(payload, payload_size)) {
        corrupt = true;
      } else {
        result.emplace(payload, payload + payload_size);
      }
      ::munmap(map, file_size);
    } else {
      corrupt = true;  // unreadable content is indistinguishable from bad
    }
  } else {
    corrupt = true;  // short file: torn or truncated
  }
  ::close(fd);
  unlock();

  const IndexKey ikey{static_cast<std::uint32_t>(kind), key};
  if (corrupt) {
    // Detected damage: count it, drop the entry so the recompute's put()
    // replaces it, and report a miss. Never trust partial content.
    counters.corrupt.add();
    counters.miss.add();
    ::unlink(path.c_str());
    index_.erase(ikey);
    recency_dirty_ = true;
    return std::nullopt;
  }
  if (!result) {
    counters.miss.add();
    return std::nullopt;
  }
  auto it = index_.find(ikey);
  if (it == index_.end())
    it = index_.emplace(ikey, IndexEntry{static_cast<std::uint64_t>(
                                             st.st_size),
                                         0})
             .first;
  it->second.last_access = ++clock_;
  recency_dirty_ = true;
  counters.hit.add();
  counters.read_seconds.observe(seconds_since(t0));
  return result;
}

bool Store::put(Kind kind, std::uint64_t key, const void* data,
                std::size_t size) {
  const auto t0 = std::chrono::steady_clock::now();
  auto& counters = Counters::instance();
  std::lock_guard<std::mutex> guard(mutex_);
  if (fault::fire(fault::Site::kStoreWrite)) return false;
  if (!lock_exclusive()) return false;
  load_index_locked();
  const EntryHeader header = make_header(kind, key, data, size);
  const std::string path = entry_path(kind, key);
  if (!atomic_write_file(path, &header, sizeof(header), data, size)) {
    unlock();
    return false;
  }
  index_[IndexKey{static_cast<std::uint32_t>(kind), key}] =
      IndexEntry{kHeaderBytes + size, ++clock_};
  evict_to_locked(options_.capacity_bytes);
  write_index_locked();
  unlock();
  counters.write.add();
  counters.write_seconds.observe(seconds_since(t0));
  return true;
}

std::uint64_t Store::gc(std::uint64_t capacity_override) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (!lock_exclusive()) return 0;
  load_index_locked();
  // Reconcile with reality: drop rows whose file vanished, adopt orphans,
  // sweep temp files (any temp visible under the exclusive lock is a crash
  // leftover — live writers hold the lock for the temp's whole lifetime).
  std::error_code ec;
  for (const auto& de :
       fs::directory_iterator(fs::path(dir_) / "entries", ec)) {
    const std::string name = de.path().filename().string();
    if (name.find(".tmp-") != std::string::npos) {
      std::error_code rm_ec;
      fs::remove(de.path(), rm_ec);
    }
  }
  for (auto it = index_.begin(); it != index_.end();) {
    std::error_code exists_ec;
    if (!fs::exists(entry_path(static_cast<Kind>(it->first.first),
                               it->first.second),
                    exists_ec))
      it = index_.erase(it);
    else
      ++it;
  }
  scan_entries_locked();
  const std::uint64_t cap = capacity_override > 0 ? capacity_override
                                                  : options_.capacity_bytes;
  const std::uint64_t evicted = evict_to_locked(cap);
  write_index_locked();
  unlock();
  return evicted;
}

Stats Store::stats() const {
  auto& counters = Counters::instance();
  Stats s;
  s.directory = dir_;
  s.capacity_bytes = options_.capacity_bytes;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    // Refresh from disk so `store stats` sees other processes' writes.
    auto* self = const_cast<Store*>(this);
    if (self->lock_shared()) {
      self->load_index_locked();
      self->unlock();
    }
    for (const auto& [key, entry] : index_) {
      ++s.entries;
      s.bytes += entry.size;
      if (key.first >= 1 && key.first <= kKindCount) {
        ++s.entries_by_kind[key.first - 1];
        s.bytes_by_kind[key.first - 1] += entry.size;
      }
    }
  }
  s.hits = counters.hit.value();
  s.misses = counters.miss.value();
  s.corrupt = counters.corrupt.value();
  s.evictions = counters.evict.value();
  s.writes = counters.write.value();
  return s;
}

// ---------------------------------------------------------------------------
// Global instance

namespace {
std::mutex g_global_mutex;
std::unique_ptr<Store> g_global;
}  // namespace

Store* global() {
  std::lock_guard<std::mutex> guard(g_global_mutex);
  return g_global.get();
}

bool open_global(const std::string& dir, const Options& options,
                 std::string* error) {
  std::lock_guard<std::mutex> guard(g_global_mutex);
  if (g_global != nullptr) {
    std::error_code ec;
    const fs::path a = fs::weakly_canonical(g_global->directory(), ec);
    const fs::path b = fs::weakly_canonical(dir, ec);
    if (a == b) return true;
    if (error != nullptr)
      *error = "store: already open on '" + g_global->directory() + "'";
    return false;
  }
  auto store = Store::open(dir, options, error);
  if (store == nullptr) return false;
  g_global = std::move(store);
  return true;
}

void close_global() {
  std::lock_guard<std::mutex> guard(g_global_mutex);
  g_global.reset();
}

std::string open_global_from_env() {
  const char* dir = std::getenv("NVP_STORE");
  if (dir == nullptr || dir[0] == '\0') return "";
  Options options;
  if (const char* cap = std::getenv("NVP_STORE_CAP_MB")) {
    char* end = nullptr;
    const unsigned long long mb = std::strtoull(cap, &end, 10);
    if (end != cap && *end == '\0')
      options.capacity_bytes = static_cast<std::uint64_t>(mb) << 20;
  }
  std::string error;
  if (!open_global(dir, options, &error)) {
    std::fprintf(stderr, "NVP_STORE ignored: %s\n", error.c_str());
    return "";
  }
  return dir;
}

}  // namespace nvp::store
