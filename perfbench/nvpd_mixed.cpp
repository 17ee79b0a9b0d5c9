// nvpd_mixed: an open-loop traffic mix against service::Server on loopback
// (default workers), hosted in this process so the daemon-side numbers are
// readable. Arrivals are Poisson, drawn from the workload seed, first at a
// fixed base rate and then up a fixed ladder of higher rates. The generator
// uses nproc/2 connections, one thread each, and times every request from
// its scheduled send, so a stall is charged to every request it delays.
//
// Mix: mostly `analyze` of points solved during set-up (warm: wire parse,
// admission, coalescing, the Engine envelope and the socket write), a few
// percent `analyze` of never-seen points (rates-only re-solves at a new
// interval and MTTC: the solver on the tail), and a few percent short
// reward-parameter `sweep`s. The cold share sits well above 1% so p99 falls
// inside the cold population rather than on the warm/cold boundary.

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "src/obs/json.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/service/client.hpp"
#include "src/service/protocol.hpp"
#include "src/service/server.hpp"
#include "src/service/wire.hpp"
#include "src/util/rng.hpp"
#include "src/util/string_util.hpp"

namespace perfbench {

namespace {

namespace nc = nvp::core;
namespace ns = nvp::service;

constexpr double kBaseRate = 1000.0;  ///< requests per second
constexpr std::size_t kMinBaseRequests = 1000;
constexpr double kColdShare = 0.04;
constexpr double kSweepShare = 0.02;
constexpr std::size_t kWorkingSet = 48;
constexpr std::size_t kSweepPoints = 5;
/// A ladder step passes when its p99 and its drain stay within this limit,
/// nothing failed or was refused, and the generator kept to its schedule.
constexpr double kLatencyLimitMs = 100.0;
/// Generator lag (p99 of actual - scheduled send) beyond which the base
/// phase is invalid; a ladder step may lag up to half the latency limit
/// (the lag is charged to every latency anyway).
constexpr double kLagLimitMs = 10.0;
constexpr double kLadderLagLimitMs = 50.0;
/// The ladder doubles from twice the base rate up to 32x; then the bracket
/// between the last pass and the first failure is bisected (in log-rate)
/// with longer steps, and max_rps is the bracket's geometric midpoint.
constexpr double kStepSeconds = 1.0;
constexpr int kLadderFirst = 1;
constexpr int kLadderLast = 5;
constexpr double kBisectSeconds = 1.5;
constexpr int kBisections = 2;
/// How long the generator keeps reading after a phase's last send.
constexpr double kDrainCapSeconds = 5.0;

/// One request of the mix: `analyze` of a 6v point, or a short reward-
/// parameter `sweep` at one (sweep_param non-empty).
struct Query {
  nc::SystemParameters params;
  std::string sweep_param;
  double from = 0.0;
  double to = 0.0;
};

Query point_query(nvp::util::RandomStream& rng) {
  Query q;
  q.params = nc::SystemParameters::paper_six_version();
  // Narrow ranges: a cold point's solve cost grows with the interval, and
  // p99 should not depend on which intervals a seed happens to draw.
  q.params.rejuvenation_interval = rng.uniform(550.0, 650.0);
  q.params.mean_time_to_compromise = rng.uniform(1400.0, 1650.0);
  return q;
}

std::string request_json(std::uint64_t id, const Query& q) {
  nvp::obs::JsonWriter json;
  json.begin_object();
  json.kv("id", id);
  json.kv("method", q.sweep_param.empty() ? "analyze" : "sweep");
  json.key("params").begin_object();
  json.kv("paper", "6v");
  json.kv("interval", q.params.rejuvenation_interval);
  json.kv("mttc", q.params.mean_time_to_compromise);
  json.end_object();
  if (!q.sweep_param.empty()) {
    json.key("sweep").begin_object();
    json.kv("param", q.sweep_param);
    json.kv("from", q.from);
    json.kv("to", q.to);
    json.kv("points", static_cast<std::uint64_t>(kSweepPoints));
    json.end_object();
  }
  json.end_object();
  return json.str();
}

/// The response must equal what the in-process Engine answers for the same
/// point (every sweep point included).
bool verify(const nc::Engine& engine, const Query& q, const std::string& raw) {
  const auto doc = ns::wire::parse(raw);
  if (!doc || !doc->bool_or("ok", false)) return false;
  const ns::wire::Value* result = doc->get("result");
  if (result == nullptr) return false;
  if (q.sweep_param.empty()) {
    const nc::RunResult want = engine.analyze(q.params);
    return want.ok &&
           result->number_or("expected_reliability", -1.0) ==
               want.analysis.expected_reliability &&
           result->u64_or("tangible_states", 0) ==
               want.analysis.tangible_states &&
           result->string_or("backend", std::string()) ==
               nvp::markov::to_string(want.analysis.backend_used);
  }
  const ns::wire::Value* points = result->get("points");
  const std::vector<double> xs = nc::linspace(q.from, q.to, kSweepPoints);
  if (points == nullptr || !points->is_array() ||
      points->array.size() != xs.size())
    return false;
  const nc::ParameterSetter setter =
      q.sweep_param == "alpha" ? nc::set_alpha() : nc::set_p_prime();
  for (std::size_t k = 0; k < xs.size(); ++k) {
    nc::SystemParameters p = q.params;
    setter(p, xs[k]);
    const nc::RunResult want = engine.analyze(p);
    if (!want.ok || points->array[k].number_or("value", -1.0) !=
                        want.analysis.expected_reliability)
      return false;
  }
  return true;
}

struct Planned {
  double due_s = 0.0;  ///< scheduled send, from the phase start
  std::size_t query = 0;
};

/// A Poisson process at `rate` conditioned on its count: sorted uniform
/// arrival times over count / rate seconds. Cold and sweep requests append
/// fresh queries, so every cold point is one no earlier request named.
std::vector<Planned> plan_phase(nvp::util::RandomStream& rng, double rate,
                                double seconds, std::size_t min_count,
                                std::vector<Query>& queries) {
  const std::size_t n = std::max(
      min_count, static_cast<std::size_t>(std::llround(rate * seconds)));
  const double span = double(n) / rate;
  std::vector<Planned> plan(n);
  for (Planned& p : plan) p.due_s = rng.uniform(0.0, span);
  std::sort(plan.begin(), plan.end(),
            [](const Planned& a, const Planned& b) { return a.due_s < b.due_s; });
  for (Planned& p : plan) {
    const double u = rng.uniform01();
    if (u < kColdShare) {
      queries.push_back(point_query(rng));
      p.query = queries.size() - 1;
    } else if (u < kColdShare + kSweepShare) {
      Query q = queries[rng.uniform_index(kWorkingSet)];
      q.sweep_param = rng.uniform01() < 0.5 ? "alpha" : "p-prime";
      q.from = rng.uniform(0.2, 0.4);
      q.to = rng.uniform(0.6, 0.8);
      queries.push_back(q);
      p.query = queries.size() - 1;
    } else {
      p.query = rng.uniform_index(kWorkingSet);
    }
  }
  return plan;
}

struct Outcome {
  double latency_ms = -1.0;  ///< < 0: never answered
  double lag_ms = 0.0;       ///< actual send - scheduled send
  bool ok = false;
  std::string raw;
};

struct Phase {
  std::vector<Planned> plan;
  std::vector<Outcome> outcomes;
  std::uint64_t first_id = 0;
  double span_s = 0.0;      ///< last scheduled send
  double wall_s = 0.0;      ///< phase start to last response
  double max_depth = 0.0;   ///< admission queue depth, sampled at sends

  std::vector<double> latencies() const {
    std::vector<double> v;
    for (const Outcome& o : outcomes)
      if (o.latency_ms >= 0.0) v.push_back(o.latency_ms);
    return v;
  }
  std::vector<double> lags() const {
    std::vector<double> v;
    for (const Outcome& o : outcomes) v.push_back(o.lag_ms);
    return v;
  }
  std::size_t answered_ok() const {
    std::size_t n = 0;
    for (const Outcome& o : outcomes) n += o.ok ? 1 : 0;
    return n;
  }
};

Clock::duration from_seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// One generator thread: sends requests g, g + stride, ... of the plan on
/// its own connection at their scheduled times and reads responses in
/// between, until every request is answered or the drain cap passes.
void drive(ns::Client& client, std::size_t g, std::size_t stride,
           const std::vector<std::string>& payloads, Phase& phase,
           Clock::time_point start, double* max_depth,
           Clock::time_point* last_response) {
  nvp::obs::Gauge& depth =
      nvp::obs::Registry::global().gauge("service.queue_depth");
  const Clock::time_point hard_end =
      start + from_seconds(phase.span_s + kDrainCapSeconds);
  std::size_t next = g;
  std::size_t pending = 0;
  while (next < phase.plan.size() || pending > 0) {
    Clock::time_point now = Clock::now();
    if (next < phase.plan.size()) {
      const Clock::time_point due = start + from_seconds(phase.plan[next].due_s);
      if (due <= now) {
        phase.outcomes[next].lag_ms =
            std::chrono::duration<double, std::milli>(now - due).count();
        if (!client.send(payloads[next])) return;
        ++pending;
        next += stride;
        *max_depth = std::max(*max_depth, depth.value());
        continue;
      }
    }
    if (now >= hard_end) return;
    Clock::time_point wake = hard_end;
    if (next < phase.plan.size())
      wake = std::min(wake, start + from_seconds(phase.plan[next].due_s));
    const auto wait_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
            .count();
    timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                     static_cast<long>(wait_ns % 1000000000)};
    pollfd pfd{client.fd(), POLLIN, 0};
    const int rc = ::ppoll(&pfd, 1, &timeout, nullptr);
    if (rc < 0 && errno != EINTR) return;
    if (rc <= 0) continue;
    if ((pfd.revents & POLLIN) == 0) return;  // error or hang-up
    std::string error;
    auto response = client.receive(&error);
    const Clock::time_point at = Clock::now();
    if (!response) return;
    if (response->id < phase.first_id) continue;
    const std::size_t i = response->id - phase.first_id;
    if (i >= phase.plan.size() || i % stride != g) continue;
    Outcome& o = phase.outcomes[i];
    if (o.latency_ms >= 0.0) continue;
    o.latency_ms = std::chrono::duration<double, std::milli>(
                       at - (start + from_seconds(phase.plan[i].due_s)))
                       .count();
    o.ok = response->ok;
    o.raw = std::move(response->raw);
    --pending;
    *last_response = at;
  }
}

struct Service {
  std::unique_ptr<ns::Server> server;
  std::vector<ns::Client> clients;
  std::uint64_t next_id = 1;

  void start(std::size_t connections) {
    ns::Server::Options options;
    options.port = 0;
    server = std::make_unique<ns::Server>(options);
    server->start();
    clients.resize(connections);
    for (ns::Client& c : clients) {
      std::string error;
      if (!c.connect("127.0.0.1", server->port(), &error))
        throw std::runtime_error("connect: " + error);
    }
  }

  void stop() {
    for (ns::Client& c : clients) c.close();
    clients.clear();
    if (server) server->shutdown();
    server.reset();
  }

  ~Service() { stop(); }

  /// Solves the working set through the server (pipelined on one
  /// connection), so the measured traffic finds it warm.
  void warm(const std::vector<Query>& queries) {
    ns::Client& c = clients.front();
    for (std::size_t i = 0; i < kWorkingSet; ++i)
      c.send(request_json(next_id++, queries[i]));
    for (std::size_t i = 0; i < kWorkingSet; ++i) {
      std::string error;
      const auto r = c.receive(&error);
      if (!r || !r->ok) throw std::runtime_error("warm-up failed: " + error);
    }
  }

  /// Assigns ids to a plan and renders its request payloads.
  std::vector<std::string> prepare(Phase& phase, std::vector<Planned> plan,
                                   const std::vector<Query>& queries) {
    phase.plan = std::move(plan);
    phase.outcomes.resize(phase.plan.size());
    phase.first_id = next_id;
    next_id += phase.plan.size();
    phase.span_s = phase.plan.empty() ? 0.0 : phase.plan.back().due_s;
    std::vector<std::string> payloads;
    payloads.reserve(phase.plan.size());
    for (std::size_t i = 0; i < phase.plan.size(); ++i)
      payloads.push_back(
          request_json(phase.first_id + i, queries[phase.plan[i].query]));
    return payloads;
  }

  Phase run(std::vector<Planned> plan, const std::vector<Query>& queries) {
    Phase phase;
    const std::vector<std::string> payloads =
        prepare(phase, std::move(plan), queries);

    const std::size_t stride = clients.size();
    std::vector<double> depth(stride, 0.0);
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    std::vector<Clock::time_point> last(stride, start);
    {
      std::vector<std::jthread> threads;
      for (std::size_t g = 0; g < stride; ++g)
        threads.emplace_back([&, g] {
          drive(clients[g], g, stride, payloads, phase, start, &depth[g],
                &last[g]);
        });
    }
    phase.max_depth = *std::max_element(depth.begin(), depth.end());
    phase.wall_s = std::chrono::duration<double>(
                       *std::max_element(last.begin(), last.end()) - start)
                       .count();
    return phase;
  }
};

/// Checks a phase's answers. `counted`: every request is one operation
/// (the base phase); otherwise only answers that came back ok are checked —
/// refusals under overload are the ladder's signal, not failures.
void check_phase(Report& report, const nc::Engine& engine, const Phase& phase,
                 const std::vector<Query>& queries, bool counted) {
  for (std::size_t i = 0; i < phase.plan.size(); ++i) {
    const Outcome& o = phase.outcomes[i];
    if (!counted && !o.ok) continue;
    const bool ok =
        o.ok && verify(engine, queries[phase.plan[i].query], o.raw);
    report.check(ok, nvp::util::format(
                         "nvpd request %llu: %s",
                         static_cast<unsigned long long>(phase.first_id + i),
                         o.latency_ms < 0.0 ? "no response"
                         : o.ok             ? "differs from Engine::analyze"
                                            : "error response"));
  }
}

/// Runs one ladder step, prints its latencies, and says whether it passed.
bool run_step(Report& report, const nc::Engine& engine, Service& service,
              nvp::util::RandomStream& rng, std::vector<Query>& queries,
              double rate, double seconds) {
  const Phase phase =
      service.run(plan_phase(rng, rate, seconds, 50, queries), queries);
  check_phase(report, engine, phase, queries, false);
  const std::vector<double> latencies = phase.latencies();
  // A request never answered misses any limit.
  const double p99_ms = latencies.size() == phase.plan.size()
                            ? quantile(latencies, 0.99)
                            : 1e9;
  const double drain_ms = 1e3 * (phase.wall_s - phase.span_s);
  const double lag_p99 = quantile(phase.lags(), 0.99);
  const bool pass = phase.answered_ok() == phase.plan.size() &&
                    p99_ms <= kLatencyLimitMs && drain_ms <= kLatencyLimitMs &&
                    lag_p99 <= kLadderLagLimitMs;
  std::printf("ladder rate=%8.1f/s requests=%5zu p50=%8.3fms p99=%9.3fms "
              "drain=%8.3fms lag_p99=%.3fms queue_max=%.0f %s\n",
              rate, phase.plan.size(), quantile(latencies, 0.5), p99_ms,
              drain_ms, lag_p99, phase.max_depth, pass ? "pass" : "FAIL");
  return pass;
}

/// Highest sustained rate: double the rate from the base until a step
/// fails, then bisect (geometrically) between the last pass and the first
/// failure; the result is the final bracket's geometric midpoint.
double max_rate(Report& report, const nc::Engine& engine, Service& service,
                nvp::util::RandomStream& rng, std::vector<Query>& queries) {
  double pass = kBaseRate;
  double fail = 0.0;
  for (int k = kLadderFirst; k <= kLadderLast; ++k) {
    const double rate = kBaseRate * std::ldexp(1.0, k);
    if (!run_step(report, engine, service, rng, queries, rate,
                  kStepSeconds)) {
      fail = rate;
      break;
    }
    pass = rate;
  }
  if (fail == 0.0) return pass;
  for (int b = 0; b < kBisections; ++b) {
    const double rate = std::sqrt(pass * fail);
    (run_step(report, engine, service, rng, queries, rate, kBisectSeconds)
         ? pass
         : fail) = rate;
  }
  return std::sqrt(pass * fail);
}

}  // namespace

int run_nvpd_mixed(const Args& args) {
  Report report(args);
  nvp::runtime::set_default_jobs(nproc());
  const std::size_t connections = std::max<std::size_t>(1, nproc() / 2);
  nvp::util::RandomStream rng(nvp::util::substream_seed(args.seed, 2));
  std::vector<Query> queries;
  for (std::size_t i = 0; i < kWorkingSet; ++i)
    queries.push_back(point_query(rng));
  const nc::Engine engine;

  // Set-up: start the server, connect, and solve the working set through
  // it — three times from empty caches; setup_s is the median.
  Service service;
  std::vector<double> setups;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    service.stop();
    nc::clear_stage_caches();
    service.start(connections);
    service.warm(queries);
    setups.push_back(seconds_since(start));
  }

  const double base_seconds =
      std::max(double(kMinBaseRequests) / kBaseRate,
               0.4 * args.seconds);

  if (!args.trace) {
    const Phase base = service.run(
        plan_phase(rng, kBaseRate, base_seconds, kMinBaseRequests, queries),
        queries);
    check_phase(report, engine, base, queries, true);
    const std::vector<double> latencies = base.latencies();
    const double lag_p99 = quantile(base.lags(), 0.99);
    report.check(lag_p99 <= kLagLimitMs,
                 nvp::util::format("generator fell behind on the base phase "
                                   "(lag p99 %.3f ms): run invalid",
                                   lag_p99));
    const double p99 = quantile(latencies, 0.99);
    // Peak memory before the ladder, whose response buffers grow with the
    // rates it reaches.
    const double rss_mib = peak_rss_mib();
    const double ladder_rps = max_rate(report, engine, service, rng, queries);

    const std::string basis = nvp::util::format(
        "base rate %.0f/s, %zu answered of %zu, from scheduled send",
        kBaseRate, latencies.size(), base.plan.size());
    report.metric("setup_s", median(setups), "s",
                  "median of 3 set-ups (server start + warm working set)");
    report.metric("wall_s", base.wall_s, "s",
                  nvp::util::format("base phase, %.3f s schedule + drain",
                                    base.span_s));
    report.metric("p50_ms", quantile(latencies, 0.5), "ms", basis);
    report.metric("p99_ms", p99, "ms", basis);
    report.metric("peak_rss_mb", rss_mib, "MiB",
                  "VmHWM after set-up and the base phase");
    report.figure("max_rps", ladder_rps, "1/s",
                  nvp::util::format("highest ladder rate with p99 <= %.0f ms, "
                                    "no backlog, no refusals (not gated: "
                                    "too noisy on a shared 4-core machine)",
                                    kLatencyLimitMs));
    report.figure("generator_lag_p99_ms", lag_p99, "ms", "base phase");
    service.stop();
    return report.finish();
  }

  // Traced run: an untraced and a traced base phase (overhead from their
  // median latencies); the registry is reset first so the daemon's
  // histograms cover the traced phase only.
  const Phase plain = service.run(
      plan_phase(rng, kBaseRate, base_seconds, kMinBaseRequests, queries),
      queries);
  check_phase(report, engine, plain, queries, true);
  nvp::obs::Registry::global().reset();
  Phase phase;
  const Window window = traced([&] {
    phase = service.run(
        plan_phase(rng, kBaseRate, base_seconds, kMinBaseRequests, queries),
        queries);
  });
  check_phase(report, engine, phase, queries, true);

  report.span_table(window);
  report.layers_from(window);
  const auto daemon = window.after.histogram("service.request_seconds");
  report.layer("service.daemon_p50_ms", 1e3 * daemon.p50,
               "service.request_seconds, power-of-2 bucket bound");
  report.layer("service.daemon_p99_ms", 1e3 * daemon.p99,
               "service.request_seconds, power-of-2 bucket bound");
  report.layer("service.queue_depth_max", phase.max_depth,
               "service.queue_depth sampled at every send");
  report.layer("service.generator_lag_ms", quantile(phase.lags(), 0.99),
               "p99 of actual - scheduled send");
  report.layer("obs.trace_overhead_pct",
               100.0 * (quantile(phase.latencies(), 0.5) /
                            quantile(plain.latencies(), 0.5) -
                        1.0),
               "median latency, traced / untraced base phase");

  // The benchmark's own calls into the protocol layer.
  std::vector<double> parse_us, encode_us;
  for (std::size_t i = 0; i < 500; ++i) {
    const std::string payload = request_json(i + 1, queries[i % kWorkingSet]);
    const auto start = Clock::now();
    const auto value = ns::wire::parse(payload);
    ns::Request request;
    std::string error;
    const bool ok = value && ns::parse_request(*value, &request, &error);
    parse_us.push_back(1e6 * seconds_since(start));
    report.check(ok, "parse_request rejected a benchmark request: " + error);
  }
  const nc::AnalysisResult warm =
      engine.analyze(queries.front().params).analysis;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const auto start = Clock::now();
    const std::string response =
        ns::ok_response(i, ns::analyze_result_json(warm));
    encode_us.push_back(1e6 * seconds_since(start));
    if (response.empty()) report.check(false, "empty ok_response");
  }
  report.layer("service.parse_us", median(parse_us),
               "wire::parse + parse_request, median of 500");
  report.layer("service.encode_us", median(encode_us),
               "analyze_result_json + ok_response, median of 500");
  report.layer("core.engine.envelope_us",
               engine_envelope_us(engine, queries.front().params),
               "median Engine::analyze - median analyze_raw, warm 6v");
  probe_stages("6v N=6 f=1 r=1", queries.front().params);
  service.stop();
  return report.finish();
}

}  // namespace perfbench
