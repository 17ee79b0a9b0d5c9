#include "src/fault/injector.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/util/rng.hpp"

namespace nvp::fault {

namespace {

constexpr const char* kSiteNames[kSiteCount] = {
    "lu",    "gmres", "power", "uniformization", "cache",
    "pool",  "alloc", "mfree", "store-read",     "store-write"};

obs::Counter& injected_counter(Site site) {
  // Every site's counter, resolved once by the (thread-safe) initializer of
  // the function-local static; pool threads only read the array.
  static const std::array<obs::Counter*, kSiteCount> counters = [] {
    std::array<obs::Counter*, kSiteCount> out{};
    for (std::size_t i = 0; i < kSiteCount; ++i)
      out[i] = &obs::Registry::global().counter(
          std::string("fault.injected.") + kSiteNames[i]);
    return out;
  }();
  return *counters[static_cast<std::size_t>(site)];
}

}  // namespace

const char* to_string(Site site) {
  const std::size_t i = static_cast<std::size_t>(site);
  return i < kSiteCount ? kSiteNames[i] : "?";
}

std::optional<Site> parse_site(std::string_view name) {
  for (std::size_t i = 0; i < kSiteCount; ++i)
    if (name == kSiteNames[i]) return static_cast<Site>(i);
  return std::nullopt;
}

Injector::Injector() = default;

Injector& Injector::global() {
  static Injector instance;
  // One-shot environment pickup, thread-safe through the static init.
  static const bool configured = [] {
    if (const char* env = std::getenv("NVP_FAULT_INJECT")) {
      std::string error;
      if (!instance.configure(env, &error))
        std::fprintf(stderr, "NVP_FAULT_INJECT ignored: %s\n", error.c_str());
    }
    return true;
  }();
  (void)configured;
  return instance;
}

bool Injector::configure(std::string_view spec, std::string* error) {
  struct Parsed {
    Site site;
    double rate;
    std::uint64_t seed;
  };
  std::vector<Parsed> parsed;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };

  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string_view entry = spec.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    pos = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    if (entry.empty()) continue;

    const std::size_t c1 = entry.find(':');
    if (c1 == std::string_view::npos)
      return fail("entry '" + std::string(entry) +
                  "' is not <site>:<rate>[:<seed>]");
    const std::size_t c2 = entry.find(':', c1 + 1);
    const std::string_view site_name = entry.substr(0, c1);
    const std::string rate_str(entry.substr(
        c1 + 1, c2 == std::string_view::npos ? std::string_view::npos
                                             : c2 - c1 - 1));
    const auto site = parse_site(site_name);
    if (!site)
      return fail("unknown site '" + std::string(site_name) +
                  "' (expected lu|gmres|power|uniformization|cache|pool|"
                  "alloc|mfree|store-read|store-write)");
    char* end = nullptr;
    const double rate = std::strtod(rate_str.c_str(), &end);
    if (end == rate_str.c_str() || *end != '\0' || !(rate >= 0.0) ||
        rate > 1.0)
      return fail("rate '" + rate_str + "' is not a number in [0, 1]");
    std::uint64_t seed = 0;
    if (c2 != std::string_view::npos) {
      const std::string seed_str(entry.substr(c2 + 1));
      end = nullptr;
      const unsigned long long value =
          std::strtoull(seed_str.c_str(), &end, 10);
      if (end == seed_str.c_str() || *end != '\0')
        return fail("seed '" + seed_str + "' is not an unsigned integer");
      seed = static_cast<std::uint64_t>(value);
    }
    parsed.push_back({*site, rate, seed});
  }
  for (const Parsed& p : parsed) set(p.site, p.rate, p.seed);
  return true;
}

void Injector::set(Site site, double rate, std::uint64_t seed) {
  SiteState& s = sites_[static_cast<std::size_t>(site)];
  s.rate.store(rate, std::memory_order_relaxed);
  s.seed.store(seed, std::memory_order_relaxed);
  s.counter.store(0, std::memory_order_relaxed);
  s.fired.store(0, std::memory_order_relaxed);
  if (rate > 0.0) {
    any_.store(true, std::memory_order_release);
    return;
  }
  bool armed = false;
  for (const SiteState& other : sites_)
    if (other.rate.load(std::memory_order_relaxed) > 0.0) armed = true;
  any_.store(armed, std::memory_order_release);
}

void Injector::reset() {
  for (SiteState& s : sites_) {
    s.rate.store(0.0, std::memory_order_relaxed);
    s.seed.store(0, std::memory_order_relaxed);
    s.counter.store(0, std::memory_order_relaxed);
    s.fired.store(0, std::memory_order_relaxed);
  }
  any_.store(false, std::memory_order_release);
}

bool Injector::active() const noexcept {
  return any_.load(std::memory_order_acquire);
}

double Injector::rate(Site site) const noexcept {
  return sites_[static_cast<std::size_t>(site)].rate.load(
      std::memory_order_relaxed);
}

bool Injector::fire(Site site) noexcept {
  if (!any_.load(std::memory_order_acquire)) return false;
  SiteState& s = sites_[static_cast<std::size_t>(site)];
  const double rate = s.rate.load(std::memory_order_relaxed);
  if (rate <= 0.0) return false;
  const std::uint64_t k = s.counter.fetch_add(1, std::memory_order_relaxed);
  if (rate < 1.0) {
    // Decision k is a pure function of (seed, k): hash through the same
    // substream derivation parallel replication uses, map the top 53 bits
    // to [0, 1).
    util::SplitMix64 mix(
        util::substream_seed(s.seed.load(std::memory_order_relaxed), k));
    const double u =
        static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
    if (u >= rate) return false;
  }
  s.fired.fetch_add(1, std::memory_order_relaxed);
  injected_counter(site).add();
  return true;
}

std::uint64_t Injector::decisions(Site site) const noexcept {
  return sites_[static_cast<std::size_t>(site)].counter.load(
      std::memory_order_relaxed);
}

std::uint64_t Injector::fired(Site site) const noexcept {
  return sites_[static_cast<std::size_t>(site)].fired.load(
      std::memory_order_relaxed);
}

}  // namespace nvp::fault
