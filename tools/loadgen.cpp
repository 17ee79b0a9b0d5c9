// loadgen — multi-connection load generator for nvpd (`nvpcli serve`).
//
// Drives a running daemon with pipelined requests over N connections and
// reports client-observed latency percentiles, throughput, and the daemon's
// own coalescing / rejection / deadline counters (measured as a before/after
// delta of the `stats` protocol request, so a shared daemon still yields
// per-run numbers).
//
//   loadgen --port 9000 [--host 127.0.0.1]
//           [--connections 16] [--window 640]
//           [--requests 10240 | --duration 10] [--rate 0]
//           [--mode analyze|sweep] [--paper 6v] [--distinct 1]
//           [--deadline-ms 0] [--label scenario] [--out BENCH_service.json]
//
// Concurrency = connections x window: each connection keeps up to `window`
// requests in flight (pipelined on one socket; the daemon responds in
// completion order). With --requests set, exactly that many requests are
// sent in one burst and the run ends when all responses arrived (closed
// loop); with --duration, connections keep the window full for that many
// seconds. --rate R > 0 throttles to ~R requests/second across all
// connections (open loop). --distinct D cycles D parameter variants, so
// D=1 makes every request identical (the coalescing showcase) and a large
// D exercises distinct solves.
//
// The scenario's rows (case = --label, layer "service") replace that case's
// rows in --out (default bench_results/BENCH_service.json), keeping every
// other case, so one file collects a run of scenarios. Every scenario
// gates on having measured responses, throughput and latency percentiles;
// the acceptance burst (--label coalesce_burst) also on >= 10000 requests
// in flight, a coalescing rate >= 0.9 and no errors of either kind.
// tools/check_bench_regression.py evaluates them.
//
// Exit code 0 on success, 1 on usage errors, 2 when the run itself failed
// (could not connect, transport errors, or zero responses).

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/json_result.hpp"
#include "src/service/client.hpp"
#include "src/service/protocol.hpp"
#include "src/service/wire.hpp"
#include "src/util/cli.hpp"
#include "src/util/stats.hpp"
#include "src/util/string_util.hpp"

namespace {

using namespace nvp;
using Clock = std::chrono::steady_clock;

int usage() {
  std::fprintf(
      stderr,
      "usage: loadgen --port <port> [--host 127.0.0.1]\n"
      "  [--connections 16] [--window 640] [--requests N | --duration 10]\n"
      "  [--rate 0] [--mode analyze|sweep] [--paper 6v] [--distinct 1]\n"
      "  [--deadline-ms 0] [--label scenario]\n"
      "  [--out bench_results/BENCH_service.json]\n");
  return 1;
}

struct Config {
  std::string host = "127.0.0.1";
  int port = 0;
  std::size_t connections = 16;
  std::size_t window = 640;
  std::size_t requests = 0;  ///< total across connections; 0 = duration mode
  double duration_s = 10.0;
  double rate = 0.0;  ///< requests/second across connections; 0 = closed loop
  std::string mode = "analyze";
  std::string paper = "6v";
  std::size_t distinct = 1;
  double deadline_ms = 0.0;
  std::string label = "scenario";
  std::string out_path = "bench_results/BENCH_service.json";
};

/// Request payload for sequence number `n`. Variants cycle through
/// `distinct` parameter points (rejuvenation interval offsets), so distinct
/// = 1 keeps every request cache- and coalesce-identical.
std::string request_json(const Config& config, std::uint64_t id,
                         std::uint64_t n) {
  obs::JsonWriter json;
  json.begin_object();
  json.kv("id", id);
  json.kv("method", config.mode);
  if (config.deadline_ms > 0.0) json.kv("deadline_ms", config.deadline_ms);
  json.key("params").begin_object();
  json.kv("paper", config.paper);
  if (config.distinct > 1)
    json.kv("interval",
            600.0 + 10.0 * static_cast<double>(n % config.distinct));
  json.end_object();
  if (config.mode == "sweep") {
    json.key("sweep").begin_object();
    json.kv("param", "mttc");
    json.kv("from", 500.0);
    json.kv("to", 5000.0);
    json.kv("points", static_cast<std::int64_t>(24));
    json.end_object();
  }
  json.end_object();
  return json.str();
}

/// Daemon-side counters relevant to the run, via the `stats` request.
struct DaemonStats {
  double executed = 0.0;
  double coalesced = 0.0;
  double rejected = 0.0;
  double deadline_missed = 0.0;
  bool ok = false;
};

DaemonStats fetch_stats(const Config& config) {
  DaemonStats stats;
  service::Client client;
  std::string error;
  if (!client.connect(config.host, config.port, &error)) return stats;
  const auto response =
      client.call(1, "{\"id\":1,\"method\":\"stats\"}", &error);
  if (!response || !response->ok) return stats;
  const service::wire::Value* block = response->result->get("service");
  if (block == nullptr) return stats;
  stats.executed = block->number_or("executed", 0.0);
  stats.coalesced = block->number_or("coalesced", 0.0);
  stats.rejected = block->number_or("rejected", 0.0);
  stats.deadline_missed = block->number_or("deadline_missed", 0.0);
  stats.ok = true;
  return stats;
}

/// One connection's worth of work: a writer keeping the window full and a
/// reader collecting responses. Results accumulate locally; the driver
/// merges after join.
struct ConnectionRun {
  std::vector<double> latencies_s;  ///< ok + structured-error responses
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;    ///< structured error responses
  std::uint64_t rejected = 0;  ///< resource-category errors (backpressure)
  std::uint64_t deadline = 0;  ///< deadline-exceeded errors
  std::uint64_t transport_errors = 0;
};

/// Global in-flight gauge for peak-concurrency tracking.
std::atomic<std::uint64_t> g_in_flight{0};
std::atomic<std::uint64_t> g_peak_in_flight{0};

void track_in_flight_up() {
  const std::uint64_t now = g_in_flight.fetch_add(1) + 1;
  std::uint64_t peak = g_peak_in_flight.load();
  while (now > peak && !g_peak_in_flight.compare_exchange_weak(peak, now)) {
  }
}

void run_connection(const Config& config, std::size_t index,
                    std::size_t quota, Clock::time_point stop_at,
                    ConnectionRun& result) {
  service::Client client;
  std::string error;
  if (!client.connect(config.host, config.port, &error)) {
    result.transport_errors += 1;
    return;
  }

  std::mutex mutex;  // guards sent_at + writer_done w.r.t. the reader
  std::unordered_map<std::uint64_t, Clock::time_point> sent_at;
  bool writer_done = false;
  std::atomic<bool> reader_dead{false};

  std::thread reader([&] {
    while (true) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (writer_done && sent_at.empty()) return;
      }
      std::string recv_error;
      const auto response = client.receive(&recv_error);
      const Clock::time_point now = Clock::now();
      if (!response) {
        // EOF after the writer finished and all responses arrived is the
        // normal end; anything else is a transport failure.
        const std::lock_guard<std::mutex> lock(mutex);
        if (!(writer_done && sent_at.empty())) result.transport_errors += 1;
        reader_dead.store(true);
        return;
      }
      Clock::time_point started;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        const auto it = sent_at.find(response->id);
        if (it == sent_at.end()) continue;  // unsolicited id; ignore
        started = it->second;
        sent_at.erase(it);
      }
      g_in_flight.fetch_sub(1);
      result.latencies_s.push_back(
          std::chrono::duration<double>(now - started).count());
      if (response->ok) {
        result.ok += 1;
      } else {
        result.errors += 1;
        const std::string category =
            response->error->string_or("category", "");
        if (category == "resource") result.rejected += 1;
        if (category == "deadline-exceeded") result.deadline += 1;
      }
    }
  });

  // Writer: keep up to `window` requests in flight until the quota or the
  // clock runs out. Ids are globally unique per connection slot.
  const double per_conn_rate =
      config.rate > 0.0
          ? config.rate / static_cast<double>(config.connections)
          : 0.0;
  Clock::time_point next_send = Clock::now();
  std::uint64_t n = 0;
  while (!reader_dead.load()) {
    if (quota > 0 && result.sent >= quota) break;
    if (quota == 0 && Clock::now() >= stop_at) break;
    // Window backpressure.
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (sent_at.size() >= config.window) {
        // Reader drains the window; yield briefly.
      } else {
        const std::uint64_t id =
            static_cast<std::uint64_t>(index) * 1000000000ull + (++n);
        if (per_conn_rate > 0.0 && Clock::now() < next_send) {
          // rate-limited: fall through to the sleep below
        } else {
          sent_at.emplace(id, Clock::now());
          track_in_flight_up();
          if (!client.send(request_json(config, id, n))) {
            sent_at.erase(id);
            g_in_flight.fetch_sub(1);
            result.transport_errors += 1;
            break;
          }
          result.sent += 1;
          if (per_conn_rate > 0.0)
            next_send += std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(1.0 / per_conn_rate));
          continue;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    writer_done = true;
  }
  // Drain: wait for the reader to collect every outstanding response, then
  // shut the socket down — the reader may be blocked in receive() on a
  // quiet socket, and EOF is its signal to exit. A stuck daemon is cut off
  // after a generous grace period and counted as a transport failure.
  const Clock::time_point drain_deadline =
      Clock::now() + std::chrono::seconds(300);
  while (!reader_dead.load()) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (sent_at.empty()) break;
    }
    if (Clock::now() >= drain_deadline) {
      result.transport_errors += 1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (client.fd() >= 0) ::shutdown(client.fd(), SHUT_RDWR);
  reader.join();
  client.close();
}

/// The rows of the schema-2 document at `path` whose case is not `label`
/// (none when the file is absent or of another schema).
std::vector<bench::Row> other_cases(const std::string& path,
                                    const std::string& label) {
  std::vector<bench::Row> rows;
  std::ifstream in(path);
  if (!in) return rows;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto document = service::wire::parse(buffer.str(), nullptr);
  if (!document || document->number_or("schema_version", 0.0) != 2.0)
    return rows;
  const service::wire::Value* recorded = document->get("rows");
  if (recorded == nullptr) return rows;
  for (const service::wire::Value& row : recorded->array) {
    bench::Row kept{row.string_or("case", ""),  row.string_or("layer", ""),
                    row.string_or("metric", ""), row.string_or("unit", ""),
                    row.number_or("value", 0.0), row.string_or("config", ""),
                    {}};
    if (kept.case_name == label) continue;
    if (const service::wire::Value* rule = row.get("rule")) {
      kept.rule.op = rule->string_or("op", "");
      kept.rule.ratio = rule->get("ratio") != nullptr;
      kept.rule.limit = rule->number_or(kept.rule.ratio ? "ratio" : "bound",
                                        0.0);
    }
    rows.push_back(std::move(kept));
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  Config config;
  config.host = args.get("host", config.host);
  config.port = args.get_int("port", 0);
  config.connections = static_cast<std::size_t>(
      args.get_int("connections", static_cast<int>(config.connections)));
  config.window = static_cast<std::size_t>(
      args.get_int("window", static_cast<int>(config.window)));
  config.requests =
      static_cast<std::size_t>(args.get_int("requests", 0));
  config.duration_s = args.get_double("duration", config.duration_s);
  config.rate = args.get_double("rate", 0.0);
  config.mode = args.get("mode", config.mode);
  config.paper = args.get("paper", config.paper);
  config.distinct = static_cast<std::size_t>(args.get_int("distinct", 1));
  config.deadline_ms = args.get_double("deadline-ms", 0.0);
  config.label = args.get("label", config.label);
  config.out_path = args.get("out", config.out_path);
  if (config.port <= 0 || config.connections == 0 || config.window == 0 ||
      (config.mode != "analyze" && config.mode != "sweep") ||
      config.distinct == 0)
    return usage();

  const DaemonStats before = fetch_stats(config);
  if (!before.ok) {
    std::fprintf(stderr, "error: no nvpd reachable at %s:%d\n",
                 config.host.c_str(), config.port);
    return 2;
  }

  const std::size_t per_conn_quota =
      config.requests > 0
          ? (config.requests + config.connections - 1) / config.connections
          : 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop_at =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.duration_s));

  std::vector<ConnectionRun> runs(config.connections);
  std::vector<std::thread> threads;
  threads.reserve(config.connections);
  for (std::size_t i = 0; i < config.connections; ++i)
    threads.emplace_back([&, i] {
      run_connection(config, i, per_conn_quota, stop_at, runs[i]);
    });
  for (std::thread& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  const DaemonStats after = fetch_stats(config);

  ConnectionRun total;
  std::vector<double> latencies;
  for (const ConnectionRun& run : runs) {
    total.sent += run.sent;
    total.ok += run.ok;
    total.errors += run.errors;
    total.rejected += run.rejected;
    total.deadline += run.deadline;
    total.transport_errors += run.transport_errors;
    latencies.insert(latencies.end(), run.latencies_s.begin(),
                     run.latencies_s.end());
  }
  const std::uint64_t responses = total.ok + total.errors;
  if (responses == 0) {
    std::fprintf(stderr, "error: no responses received\n");
    return 2;
  }
  const double p50_ms = 1e3 * util::quantile(latencies, 0.50);
  const double p95_ms = 1e3 * util::quantile(latencies, 0.95);
  const double p99_ms = 1e3 * util::quantile(latencies, 0.99);
  const double throughput = static_cast<double>(responses) / wall_s;
  const double d_executed = after.executed - before.executed;
  const double d_coalesced = after.coalesced - before.coalesced;
  const double d_rejected = after.rejected - before.rejected;
  const double d_deadline = after.deadline_missed - before.deadline_missed;
  const double coalesce_rate = (d_executed + d_coalesced) > 0.0
                                   ? d_coalesced / (d_executed + d_coalesced)
                                   : 0.0;
  const double rejection_rate =
      total.sent > 0
          ? static_cast<double>(total.rejected) /
                static_cast<double>(total.sent)
          : 0.0;
  const std::uint64_t peak = g_peak_in_flight.load();

  bench::JsonResult json(
      "loadgen",
      "nvpd load scenarios, one case each: latency percentiles are "
      "client-observed over pipelined connections, daemon_* counters are "
      "before/after deltas of the daemon's stats request");
  for (bench::Row& row : other_cases(config.out_path, config.label))
    json.add(std::move(row));
  const std::string settings = util::format(
      "mode=%s,connections=%zu,window=%zu,requests=%zu,distinct=%zu,"
      "rate=%g,deadline_ms=%g",
      config.mode.c_str(), config.connections, config.window, config.requests,
      config.distinct, config.rate, config.deadline_ms);
  // The service's acceptance burst (CI service-smoke, README).
  const bool burst = config.label == "coalesce_burst";
  const auto add = [&](const char* metric, const char* unit, double value,
                       bench::Rule rule = {}) {
    json.add(config.label, "service", metric, unit, value, settings,
             std::move(rule));
  };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  add("sent", "count", count(total.sent));
  add("responses", "count", count(responses), bench::bound("gt", 0.0));
  add("ok", "count", count(total.ok));
  add("errors", "count", count(total.errors),
      burst ? bench::bound("eq", 0.0) : bench::Rule{});
  add("rejected", "count", count(total.rejected));
  add("deadline_missed_client", "count", count(total.deadline));
  add("transport_errors", "count", count(total.transport_errors),
      burst ? bench::bound("eq", 0.0) : bench::Rule{});
  add("peak_concurrent", "count", count(peak),
      burst ? bench::bound("ge", 10000.0) : bench::Rule{});
  add("wall_seconds", "s", wall_s);
  add("throughput_rps", "1/s", throughput, bench::bound("gt", 0.0));
  add("p50_ms", "ms", p50_ms, bench::bound("gt", 0.0));
  add("p95_ms", "ms", p95_ms, bench::bound("gt", 0.0));
  add("p99_ms", "ms", p99_ms, bench::bound("gt", 0.0));
  add("daemon_executed", "count", d_executed);
  add("daemon_coalesced", "count", d_coalesced);
  add("daemon_rejected", "count", d_rejected);
  add("daemon_deadline_missed", "count", d_deadline);
  add("coalesce_rate", "ratio", coalesce_rate,
      burst ? bench::bound("ge", 0.9) : bench::Rule{});
  add("rejection_rate", "ratio", rejection_rate);

  std::fprintf(stderr,
               "%s: %llu sent, %llu ok, %llu errors (%llu rejected), "
               "peak %llu in flight, %.1f req/s, "
               "p50 %.2f ms p95 %.2f ms p99 %.2f ms, "
               "coalesce rate %.3f (daemon: %g executed, %g coalesced)\n",
               config.label.c_str(),
               static_cast<unsigned long long>(total.sent),
               static_cast<unsigned long long>(total.ok),
               static_cast<unsigned long long>(total.errors),
               static_cast<unsigned long long>(total.rejected),
               static_cast<unsigned long long>(peak), throughput, p50_ms,
               p95_ms, p99_ms, coalesce_rate, d_executed, d_coalesced);

  if (!config.out_path.empty() && !json.write(config.out_path)) return 2;
  if (total.transport_errors > 0) return 2;
  return 0;
}
