#include "src/service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/core/staged.hpp"
#include "src/core/sweep.hpp"
#include "src/monitor/session.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/store/store.hpp"
#include "src/util/string_util.hpp"

namespace nvp::service {

namespace {

using Clock = std::chrono::steady_clock;

obs::Counter& requests_total() {
  static obs::Counter& c = obs::Registry::global().counter("service.requests");
  return c;
}
obs::Counter& executed_total() {
  static obs::Counter& c = obs::Registry::global().counter("service.executed");
  return c;
}
obs::Counter& coalesced_total() {
  static obs::Counter& c =
      obs::Registry::global().counter("service.coalesced");
  return c;
}
obs::Counter& rejected_total() {
  static obs::Counter& c = obs::Registry::global().counter("service.rejected");
  return c;
}
obs::Counter& deadline_missed_total() {
  static obs::Counter& c =
      obs::Registry::global().counter("service.deadline_missed");
  return c;
}
obs::Counter& protocol_errors_total() {
  static obs::Counter& c =
      obs::Registry::global().counter("service.protocol_errors");
  return c;
}
obs::Counter& responses_total() {
  static obs::Counter& c =
      obs::Registry::global().counter("service.responses");
  return c;
}
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("service.queue_depth");
  return g;
}
obs::Gauge& connections_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("service.connections");
  return g;
}
obs::Histogram& request_seconds() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("service.request_seconds");
  return h;
}

fault::ErrorInfo make_error(fault::Category category, std::string message,
                            std::string site) {
  fault::ErrorInfo info;
  info.category = category;
  info.message = std::move(message);
  info.site = std::move(site);
  return info;
}

}  // namespace

ServiceStats service_stats() {
  ServiceStats stats;
  stats.requests = requests_total().value();
  stats.executed = executed_total().value();
  stats.coalesced = coalesced_total().value();
  stats.rejected = rejected_total().value();
  stats.deadline_missed = deadline_missed_total().value();
  stats.protocol_errors = protocol_errors_total().value();
  stats.responses = responses_total().value();
  stats.queue_depth = static_cast<std::size_t>(
      std::max(0.0, queue_depth_gauge().value()));
  stats.connections = static_cast<std::size_t>(
      std::max(0.0, connections_gauge().value()));
  return stats;
}

std::string stats_result_json(const ServiceStats& stats) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("service").begin_object();
  json.kv("requests", stats.requests);
  json.kv("executed", stats.executed);
  json.kv("coalesced", stats.coalesced);
  json.kv("rejected", stats.rejected);
  json.kv("deadline_missed", stats.deadline_missed);
  json.kv("protocol_errors", stats.protocol_errors);
  json.kv("responses", stats.responses);
  json.kv("queue_depth", static_cast<std::uint64_t>(stats.queue_depth));
  json.kv("connections", static_cast<std::uint64_t>(stats.connections));
  json.end_object();
  const auto caches = core::stage_cache_stats();
  const auto cache_block = [&](const char* name,
                               const runtime::CacheStats& s) {
    json.key(name).begin_object();
    json.kv("hits", static_cast<std::uint64_t>(s.hits));
    json.kv("misses", static_cast<std::uint64_t>(s.misses));
    json.kv("evictions", static_cast<std::uint64_t>(s.evictions));
    json.end_object();
  };
  json.key("caches").begin_object();
  cache_block("structure", caches.structure);
  cache_block("rates", caches.rates);
  cache_block("reward_table", caches.reward_table);
  cache_block("rewards", caches.rewards);
  json.end_object();
  if (store::Store* disk = store::global()) {
    const store::Stats s = disk->stats();
    json.key("store").begin_object();
    json.kv("directory", s.directory);
    json.kv("entries", s.entries);
    json.kv("bytes", s.bytes);
    json.kv("capacity_bytes", s.capacity_bytes);
    json.kv("hits", s.hits);
    json.kv("misses", s.misses);
    json.kv("corrupt", s.corrupt);
    json.kv("evictions", s.evictions);
    json.kv("writes", s.writes);
    json.end_object();
  }
  json.end_object();
  return json.str();
}

// ---------------------------------------------------------------------------

/// One accepted socket. The fd is closed as soon as the reader has exited
/// AND no response is still owed to this peer (close_if_idle, both
/// transitions under write_mutex), so a worker finishing a solve for a
/// vanished client writes into a shut-down-but-still-allocated fd — an
/// EPIPE, never a reused descriptor.
struct Server::Connection {
  int fd = -1;
  std::mutex write_mutex;
  bool open = true;    ///< reader still running (guarded by write_mutex)
  bool broken = false; ///< a write failed; no further frames (write_mutex)
  int pending = 0;     ///< responses owed (guarded by write_mutex)
  std::thread reader;
  std::atomic<bool> done{false};  ///< reader exited (acceptor reaps)

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  bool send(std::string_view payload) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    if (fd < 0 || broken) return false;
    if (write_frame(fd, payload)) return true;
    // Peer hung up, or a pipelining client stopped reading long enough for
    // the socket's SO_SNDTIMEO to fire. Either way the frame stream may be
    // mid-frame, so the connection is unusable: drop it. The shutdown(2)
    // unblocks the reader, which retires the fd via the normal idle path,
    // and `broken` makes every later response to this peer fail fast
    // instead of waiting out the timeout again.
    broken = true;
    ::shutdown(fd, SHUT_RDWR);
    return false;
  }

  void add_pending() {
    const std::lock_guard<std::mutex> lock(write_mutex);
    ++pending;
  }

  void release_pending() {
    const std::lock_guard<std::mutex> lock(write_mutex);
    --pending;
    close_if_idle_locked();
  }

  /// Reader exit: stop further writes from racing a peer that is gone.
  void finish_read() {
    const std::lock_guard<std::mutex> lock(write_mutex);
    open = false;
    close_if_idle_locked();
  }

  /// Server shutdown: unblock the reader's read(2).
  void begin_close() {
    const std::lock_guard<std::mutex> lock(write_mutex);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }

 private:
  void close_if_idle_locked() {
    if (!open && pending == 0 && fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
};

/// One admissible unit of work: a leader request plus every coalesced
/// request attached to it. `attached` and `completed` are guarded by the
/// server's queue_mutex_ (attach, dequeue-triage, and completion snapshot
/// must be mutually atomic).
struct Server::Task {
  Request request;
  std::uint64_t key = 0;

  struct Attached {
    std::shared_ptr<Connection> conn;
    std::uint64_t id = 0;
    Clock::time_point arrival;
    Clock::time_point deadline;
    bool has_deadline = false;
  };
  std::vector<Attached> attached;
  bool completed = false;
};

namespace {
fault::Context listen_context() {
  fault::Context ctx;
  ctx.site = "service.listen";
  return ctx;
}
}  // namespace

Server::Server(Options options) : options_(std::move(options)) {}

Server::~Server() {
  if (started_) shutdown();
}

void Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw fault::Error(fault::Category::kResource, "socket() failed",
                       listen_context());
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw fault::Error(fault::Category::kResource,
                       "invalid listen address '" + options_.host + "'",
                       listen_context());
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw fault::Error(
        fault::Category::kResource,
        util::format("cannot bind %s:%d: %s", options_.host.c_str(),
                     options_.port, why.c_str()),
        listen_context());
  }
  if (::listen(listen_fd_, 1024) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw fault::Error(fault::Category::kResource,
                       "listen() failed: " + why,
                       listen_context());
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  bound_port_ = ntohs(bound.sin_port);

  std::size_t workers = options_.workers;
  if (workers == 0) workers = runtime::default_jobs();
  if (workers == 0) workers = 1;
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  acceptor_ = std::thread([this] { accept_loop(); });
  started_ = true;
}

int Server::port() const { return bound_port_; }

bool Server::stopped() const { return stopped_.load(); }

bool Server::shutdown_requested() const { return shutdown_requested_.load(); }

void Server::wait() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  state_cv_.wait(lock, [this] {
    return shutdown_requested_.load() || stopped_.load();
  });
}

void Server::shutdown() {
  const std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (stopped_.load() || !started_) return;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    shutdown_requested_.store(true);
  }
  draining_.store(true);
  state_cv_.notify_all();

  // Unblock and retire the acceptor; no new connections from here on.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Drain: every admitted request must have its response written. New work
  // arriving on still-open connections is rejected (draining_), which also
  // flows through the pending counter, so the wait below is exact.
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [this] { return pending_responses_ == 0; });
  }

  // Workers: queue is empty once pending hit zero; let them exit.
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    workers_stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  // Readers: unblock their read(2), join, release the sockets.
  std::vector<std::shared_ptr<Connection>> connections;
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    connections.swap(connections_);
  }
  for (const auto& conn : connections) conn->begin_close();
  for (const auto& conn : connections)
    if (conn->reader.joinable()) conn->reader.join();
  connections.clear();
  connections_gauge().set(0.0);

  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    stopped_.store(true);
  }
  state_cv_.notify_all();
}

void Server::accept_loop() {
  while (true) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (draining_.load()) return;
      // Transient accept failure (EMFILE under fd exhaustion): keep
      // serving, but back off briefly — the error can persist for a while,
      // and a bare retry loop would spin this thread at 100% of a core.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    if (draining_.load()) {
      ::close(fd);
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.send_timeout_ms > 0.0) {
      const auto usec = static_cast<long>(options_.send_timeout_ms * 1000.0);
      timeval timeout{};
      timeout.tv_sec = usec / 1000000;
      timeout.tv_usec = usec % 1000000;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    }

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      const std::lock_guard<std::mutex> lock(conn_mutex_);
      // Reap connections whose reader already exited (join + drop; the
      // destructor closes any fd still held once workers released it).
      connections_.erase(
          std::remove_if(connections_.begin(), connections_.end(),
                         [](const std::shared_ptr<Connection>& c) {
                           if (!c->done.load()) return false;
                           if (c->reader.joinable()) c->reader.join();
                           return true;
                         }),
          connections_.end());
      connections_.push_back(conn);
      connections_gauge().set(static_cast<double>(connections_.size()));
    }
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  std::string payload;
  while (!draining_.load()) {
    const FrameStatus status =
        read_frame(conn->fd, payload, options_.max_frame_bytes);
    if (status == FrameStatus::kOk) {
      if (!handle_payload(conn, payload)) break;
      continue;
    }
    if (status == FrameStatus::kTooLarge) {
      // The stream can no longer be frame-aligned (the oversized payload
      // was never consumed): answer structurally, then hang up.
      protocol_errors_total().add();
      conn->send(error_response(
          0, make_error(fault::Category::kInvalidModel,
                        util::format("frame exceeds %u-byte limit",
                                     options_.max_frame_bytes),
                        "service.frame")));
    }
    break;  // kEof / kTruncated / kIoError / kTooLarge: connection is done
  }
  conn->finish_read();
  conn->done.store(true);
}

bool Server::handle_payload(const std::shared_ptr<Connection>& conn,
                            const std::string& payload) {
  const obs::ScopedSpan span("service.request");
  std::string error;
  const auto parsed = wire::parse(payload, &error);
  if (!parsed) {
    protocol_errors_total().add();
    conn->send(error_response(
        0, make_error(fault::Category::kInvalidModel, error,
                      "service.request")));
    return true;  // frame boundary intact; connection stays usable
  }
  Request request;
  // Seed the daemon's analyzer configuration before parsing: the request's
  // `options` keys overlay it, so the solve (and the coalesce key, which
  // hashes the same merged options) honors exactly what the client asked
  // for, with absent keys inheriting the server's defaults.
  request.options = options_.analyzer;
  if (!parse_request(*parsed, &request, &error)) {
    protocol_errors_total().add();
    conn->send(error_response(
        request.id, make_error(fault::Category::kInvalidModel, error,
                               "service.request")));
    return true;
  }
  switch (request.method) {
    case Method::kPing:
      conn->send(ok_response(request.id, "{\"pong\":true}"));
      return true;
    case Method::kStats:
      conn->send(ok_response(request.id, stats_result_json(service_stats())));
      return true;
    case Method::kShutdown:
      conn->send(ok_response(request.id, "{\"shutting_down\":true}"));
      {
        // Store under state_mutex_ so wait() cannot check its predicate,
        // see the flag still false, and then sleep through this notify.
        const std::lock_guard<std::mutex> lock(state_mutex_);
        shutdown_requested_.store(true);
      }
      state_cv_.notify_all();
      return true;
    case Method::kAnalyze:
    case Method::kSweep:
    case Method::kSimulate:
    case Method::kMonitor:
      requests_total().add();
      admit(conn, std::move(request));
      return true;
  }
  return true;
}

void Server::admit(const std::shared_ptr<Connection>& conn, Request request) {
  // The response owed by this request is accounted before it can possibly
  // be answered, so the drain wait in shutdown() never undercounts.
  {
    const std::lock_guard<std::mutex> lock(drain_mutex_);
    ++pending_responses_;
  }
  conn->add_pending();

  const Clock::time_point arrival = Clock::now();
  double deadline_ms = request.deadline_ms;
  if (deadline_ms <= 0.0) deadline_ms = options_.default_deadline_ms;
  const bool has_deadline = deadline_ms > 0.0;
  const Clock::time_point deadline =
      arrival + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(deadline_ms));

  Task::Attached waiter{conn, request.id, arrival, deadline, has_deadline};

  if (draining_.load()) {
    rejected_total().add();
    respond(conn, error_response(request.id,
                                 make_error(fault::Category::kResource,
                                            "service is shutting down",
                                            "service.queue")));
    return;
  }

  const std::uint64_t key = coalesce_key(request);
  double retry_after_ms = 0.0;
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (key != 0) {
      const auto it = in_flight_keys_.find(key);
      if (it != in_flight_keys_.end() && !it->second->completed) {
        it->second->attached.push_back(std::move(waiter));
        coalesced_total().add();
        return;
      }
    }
    if (queue_.size() >= options_.queue_capacity) {
      // Backpressure hint: roughly how long until a slot frees up, scaled
      // by the backlog each worker already owns.
      const std::size_t workers = workers_.empty() ? 1 : workers_.size();
      retry_after_ms = std::min(
          1000.0, 10.0 * (double(queue_.size()) / double(workers) + 1.0));
    } else {
      auto task = std::make_shared<Task>();
      task->request = std::move(request);
      task->key = key;
      task->attached.push_back(std::move(waiter));
      if (key != 0) in_flight_keys_[key] = task;
      queue_.push_back(std::move(task));
      queue_depth_gauge().set(static_cast<double>(queue_.size()));
      lock.unlock();
      queue_cv_.notify_one();
      return;
    }
  }
  rejected_total().add();
  respond(conn,
          error_response(
              waiter.id,
              make_error(fault::Category::kResource,
                         util::format("admission queue full (capacity %zu)",
                                      options_.queue_capacity),
                         "service.queue"),
              retry_after_ms));
}

void Server::worker_loop() {
  while (true) {
    std::shared_ptr<Task> task;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return !queue_.empty() || workers_stopping_; });
      if (queue_.empty()) return;  // workers_stopping_
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_gauge().set(static_cast<double>(queue_.size()));

      // Dequeue triage: when every request attached so far is already past
      // its deadline, the solve is pure waste — skip it. Retiring the key
      // under the same lock means a late identical request starts a fresh
      // task instead of attaching to a dead one.
      const Clock::time_point now = Clock::now();
      bool all_expired = true;
      for (const Task::Attached& a : task->attached)
        if (!a.has_deadline || now < a.deadline) {
          all_expired = false;
          break;
        }
      if (all_expired) {
        if (task->key != 0) in_flight_keys_.erase(task->key);
        task->completed = true;
        std::vector<Task::Attached> attached;
        attached.swap(task->attached);
        lock.unlock();
        for (const Task::Attached& a : attached) {
          deadline_missed_total().add();
          respond(a.conn, error_response(a.id, core::Engine::deadline_error(
                                                   "service.queue", -1.0)));
        }
        continue;
      }
    }

    executed_total().add();
    bool ok = true;
    fault::ErrorInfo error;
    std::string result_json;
    {
      const obs::ScopedSpan span("service.execute");
      // A throw here would end the process (worker threads have no outer
      // handler); it becomes this request's error envelope instead.
      try {
        result_json = run_engine(task->request, &ok, &error);
      } catch (const std::exception& e) {
        ok = false;
        error = fault::ErrorInfo::from(e);
      }
    }

    // Completion: retire the coalescing key and freeze the waiter list.
    std::vector<Task::Attached> attached;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      if (task->key != 0) in_flight_keys_.erase(task->key);
      task->completed = true;
      attached.swap(task->attached);
    }
    const Clock::time_point done = Clock::now();
    for (const Task::Attached& a : attached) {
      if (a.has_deadline && done > a.deadline) {
        deadline_missed_total().add();
        const double overrun_s =
            std::chrono::duration<double>(done - a.deadline).count();
        respond(a.conn, error_response(a.id, core::Engine::deadline_error(
                                                 "service.deadline",
                                                 overrun_s)));
        continue;
      }
      request_seconds().observe(
          std::chrono::duration<double>(done - a.arrival).count());
      respond(a.conn, ok ? ok_response(a.id, result_json)
                         : error_response(a.id, error));
    }
  }
}

std::string Server::run_engine(const Request& request, bool* ok,
                               fault::ErrorInfo* error) {
  *ok = true;
  // The request's merged options drive this solve (never the daemon's
  // construction-time configuration alone). Per-request construction is
  // trivially cheap — Engine and its analyzer only hold configuration; the
  // staged caches are process-wide and keyed on (params, options).
  // Default engine options: never strict (failures must degrade to
  // envelopes), no store directory of its own — the process-wide store, if
  // `serve --store` opened one, is already global and the staged pipeline's
  // disk tier reads through it regardless.
  const core::Engine engine(request.options, core::Engine::Options{});
  switch (request.method) {
    case Method::kAnalyze: {
      const core::RunResult result = engine.analyze(request.params);
      if (!result.ok) {
        *ok = false;
        *error = result.error;
        return {};
      }
      return analyze_result_json(result.analysis);
    }
    case Method::kSweep: {
      // parse_request accepts only names setter_for maps.
      const std::vector<core::SweepPoint> points = engine.sweep(
          request.params, core::setter_for(request.sweep_param),
          core::linspace(request.sweep_from, request.sweep_to,
                         request.sweep_points));
      obs::JsonWriter json;
      json.begin_object();
      json.kv("param", request.sweep_param);
      std::uint64_t failed = 0;
      json.key("points").begin_array();
      for (const core::SweepPoint& point : points) {
        json.begin_object();
        json.kv("x", point.x);
        if (point.ok) {
          json.kv("value", point.expected_reliability);
        } else {
          ++failed;
          json.key("error").begin_object();
          json.kv("category", fault::to_string(point.error.category));
          json.kv("message", point.error.message);
          json.end_object();
        }
        json.end_object();
      }
      json.end_array();
      json.kv("failed", failed);
      json.end_object();
      return json.str();
    }
    case Method::kSimulate: {
      const core::Engine::SimulateOptions& sim = request.simulate;
      const core::RunResult result = engine.simulate(request.params, sim);
      if (!result.ok) {
        *ok = false;
        *error = result.error;
        return {};
      }
      obs::JsonWriter json;
      json.begin_object();
      json.kv("mean", result.estimate.mean);
      json.kv("ci_lo", result.estimate.ci.lo);
      json.kv("ci_hi", result.estimate.ci.hi);
      json.kv("horizon", sim.horizon);
      json.kv("replications",
              static_cast<std::uint64_t>(sim.replications));
      json.kv("seed", static_cast<std::uint64_t>(sim.seed));
      json.end_object();
      return json.str();
    }
    case Method::kMonitor: {
      const monitor::SessionConfig& config = request.monitor;
      const monitor::SessionResult session =
          monitor::run_monitor_session(engine, config);
      obs::JsonWriter json;
      json.begin_object();
      json.kv("schedule",
              monitor::DriftSchedule::kind_name(config.schedule.kind));
      json.kv("horizon", config.duration);
      json.kv("policy", config.policy);
      json.kv("seed", static_cast<std::uint64_t>(config.seed));
      json.kv("reliability", session.reliability);
      json.kv("updates", session.updates);
      json.kv("resolves", session.resolves);
      json.kv("retunes", session.retunes);
      json.kv("degraded_updates", session.degraded_updates);
      json.kv("detections", session.detections);
      json.kv("final_interval", session.final_interval);
      json.kv("mean_interval", session.mean_interval);
      json.key("records").begin_array();
      for (const monitor::ControlRecord& r : session.records) {
        json.begin_object();
        json.kv("time", r.time);
        json.kv("lambda_mean", r.lambda.mean);
        json.kv("pprime_mean", r.p_prime.mean);
        json.kv("target", r.target_interval);
        json.kv("applied", r.applied_interval);
        if (r.solved()) json.kv("expected_reliability", r.expected_reliability);
        json.kv("retuned", r.retuned);
        if (r.degraded) json.kv("error", r.error);
        json.end_object();
      }
      json.end_array().end_object();
      return json.str();
    }
    default:
      *ok = false;
      *error = make_error(fault::Category::kInternal,
                          "non-work method reached the worker",
                          "service.worker");
      return {};
  }
}

void Server::respond(const std::shared_ptr<Connection>& conn,
                     std::string_view response) {
  if (conn->send(response)) responses_total().add();
  conn->release_pending();
  finish_one();
}

void Server::finish_one() {
  {
    const std::lock_guard<std::mutex> lock(drain_mutex_);
    --pending_responses_;
  }
  drain_cv_.notify_all();
}

}  // namespace nvp::service
