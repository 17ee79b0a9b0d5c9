#include "src/runtime/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "src/fault/error.hpp"
#include "src/fault/injector.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/contracts.hpp"

namespace nvp::runtime {

namespace {

/// Pool metrics, looked up once. Loops and indices are counted per
/// parallel_for call (one add each), not per index, so the inner loop stays
/// untouched.
struct PoolMetrics {
  obs::Counter& loops;
  obs::Counter& indices;
  obs::Gauge& jobs;
  static const PoolMetrics& get() {
    static PoolMetrics m{
        obs::Registry::global().counter("runtime.pool.parallel_loops"),
        obs::Registry::global().counter("runtime.pool.indices"),
        obs::Registry::global().gauge("runtime.pool.jobs")};
    return m;
  }
};

/// Throws the injected task-dispatch failure of the `pool` fault site.
[[noreturn]] void throw_injected_dispatch_failure() {
  fault::Context context;
  context.site = "runtime.pool";
  context.detail = "injected";
  throw fault::Error(fault::Category::kResource,
                     "parallel_for: injected task-dispatch failure",
                     std::move(context));
}

/// Completion state shared by the tasks of one parallel_for call.
struct LoopGroup {
  std::atomic<std::size_t> next{0};      ///< next unclaimed index
  std::atomic<bool> failed{false};       ///< a body threw; stop claiming
  std::atomic<std::size_t> inflight{0};  ///< pool tasks not yet finished
  std::mutex error_mutex;
  /// Every captured exception (guarded by error_mutex): once one body has
  /// thrown no new indices start, but bodies already in flight on other
  /// workers can still fail — all of them are collected, none dropped.
  std::vector<std::exception_ptr> errors;

  void drain(std::size_t n, const std::function<void(std::size_t)>& body) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        errors.push_back(std::current_exception());
        failed.store(true, std::memory_order_relaxed);
      }
    }
  }
};

/// Rethrows a loop's failure on the caller: a single exception propagates
/// unchanged (so catch sites keyed on the concrete type keep working); two
/// or more aggregate into one fault::Error whose context lists every
/// worker's message, instead of silently dropping all but the first.
[[noreturn]] void rethrow_loop_errors(
    const std::vector<std::exception_ptr>& errors) {
  if (errors.size() == 1) std::rethrow_exception(errors.front());
  fault::Context context;
  context.site = "runtime.pool";
  fault::Category category = fault::Category::kInternal;
  for (std::size_t i = 0; i < errors.size(); ++i) {
    try {
      std::rethrow_exception(errors[i]);
    } catch (const std::exception& e) {
      if (i == 0) category = fault::category_of(e);
      context.causes.push_back(e.what());
    } catch (...) {
      context.causes.push_back("non-standard exception");
    }
  }
  throw fault::Error(category,
                     "parallel_for: " + std::to_string(errors.size()) +
                         " loop bodies failed",
                     std::move(context));
}

}  // namespace

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable wake;
  std::deque<std::function<void()>> queue;
  bool stopping = false;
  std::vector<std::thread> workers;

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex);
        wake.wait(lock, [&] { return stopping || !queue.empty(); });
        if (queue.empty()) return;  // stopping and drained
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(std::move(task));
    }
    // notify_all (not _one): both idle workers and callers blocked in
    // wait_for_group() listen on this condition variable.
    wake.notify_all();
  }

  /// Blocks the caller until the group's helper tasks have all finished.
  /// While waiting, the caller steals and runs queued tasks — this is what
  /// makes nested parallel_for calls deadlock-free: a caller whose helpers
  /// are stuck behind other groups' tasks works those tasks off itself
  /// instead of sleeping.
  void wait_for_group(LoopGroup& group) {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      if (group.inflight.load(std::memory_order_acquire) == 0) return;
      if (!queue.empty()) {
        auto task = std::move(queue.front());
        queue.pop_front();
        lock.unlock();
        task();
        lock.lock();
        continue;
      }
      wake.wait(lock, [&] {
        return !queue.empty() ||
               group.inflight.load(std::memory_order_acquire) == 0;
      });
    }
  }

  /// Called by a helper task that finished last: wake any caller blocked in
  /// wait_for_group(). The empty critical section orders the inflight
  /// decrement against the caller's predicate check, so the wakeup cannot
  /// be missed.
  void notify_group_done() {
    { std::lock_guard<std::mutex> lock(mutex); }
    wake.notify_all();
  }
};

ThreadPool::ThreadPool(std::size_t jobs) : impl_(std::make_unique<Impl>()) {
  if (jobs == 0) jobs = default_jobs();
  for (std::size_t i = 0; i + 1 < jobs; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->wake.notify_all();
  for (auto& worker : impl_->workers) worker.join();
}

std::size_t ThreadPool::jobs() const { return impl_->workers.size() + 1; }

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  NVP_EXPECTS(body != nullptr);
  if (n == 0) return;
  PoolMetrics::get().loops.add();
  PoolMetrics::get().indices.add(n);
  // The `pool` fault decision: one per loop, drawn on the caller before any
  // index runs, so an injected dispatch failure reads the same for any
  // schedule and job count.
  if (fault::fire(fault::Site::kPool)) throw_injected_dispatch_failure();
  if (impl_->workers.empty() || n == 1) {
    // Serial pool (jobs == 1) or trivial loop: run inline, exceptions
    // propagate naturally (a single failure, same as the parallel path's
    // single-error rethrow).
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto group = std::make_shared<LoopGroup>();
  const std::size_t fan_out = std::min(impl_->workers.size(), n - 1);
  group->inflight.store(fan_out, std::memory_order_relaxed);
  for (std::size_t t = 0; t < fan_out; ++t) {
    // `body` is captured by reference: parallel_for does not return before
    // every helper finished, and a helper that starts after all indices
    // were claimed returns without touching it.
    impl_->submit([this, group, n, &body] {
      group->drain(n, body);
      if (group->inflight.fetch_sub(1, std::memory_order_acq_rel) == 1)
        impl_->notify_group_done();
    });
  }

  // The caller works the same queue of indices, then waits for stragglers
  // (stealing unrelated queued tasks while it waits).
  group->drain(n, body);
  impl_->wait_for_group(*group);
  // All helpers are done: errors needs no lock anymore.
  if (!group->errors.empty()) rethrow_loop_errors(group->errors);
}

namespace {

std::size_t env_jobs() {
  if (const char* env = std::getenv("NVP_JOBS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && value > 0) return static_cast<std::size_t>(value);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::mutex g_default_mutex;
std::size_t g_default_jobs = 0;  // 0 = auto (env / hardware)
std::shared_ptr<ThreadPool> g_default_pool;

}  // namespace

std::size_t default_jobs() {
  std::lock_guard<std::mutex> lock(g_default_mutex);
  return g_default_jobs > 0 ? g_default_jobs : env_jobs();
}

void set_default_jobs(std::size_t jobs) {
  std::lock_guard<std::mutex> lock(g_default_mutex);
  g_default_jobs = jobs;
}

std::shared_ptr<ThreadPool> default_pool() {
  const std::size_t want = default_jobs();
  std::lock_guard<std::mutex> lock(g_default_mutex);
  if (!g_default_pool || g_default_pool->jobs() != want) {
    g_default_pool = std::make_shared<ThreadPool>(want);
    PoolMetrics::get().jobs.set(static_cast<double>(want));
  }
  return g_default_pool;
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  default_pool()->parallel_for(n, body);
}

}  // namespace nvp::runtime
