#include "service/executor.hpp"

#include <algorithm>
#include <future>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/algorithms.hpp"
#include "core/cancellation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/thread_pool.hpp"
#include "storage/blocked_graph.hpp"
#include "support/cpu.hpp"
#include "support/failpoint.hpp"
#include "support/timer.hpp"

namespace smpst::service {

namespace {

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) noexcept {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Internal marker: the algorithm completed but produced a forest that fails
/// validation. Retried like a thrown attempt; surfaces as kInvalid when every
/// attempt (including degradation) produces invalid results.
class InvalidResultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

ExecutorOptions sanitized(ExecutorOptions opts) {
  opts.num_workers = std::max<std::size_t>(1, opts.num_workers);
  opts.queue_capacity = std::max<std::size_t>(1, opts.queue_capacity);
  opts.watchdog_poll_ms = std::max<std::size_t>(1, opts.watchdog_poll_ms);
  return opts;
}

/// The one delivery channel, for inline rejections and worker results alike.
/// A throwing completion is contained: neither the submitter nor the worker
/// (which owes the rest of the queue) may see it.
void deliver(const QueryExecutor::Completion& done,
             QueryResult result) noexcept {
  try {
    done(std::move(result));
  } catch (...) {
  }
}

/// A completion that fulfils a promise, and the promise's future.
std::pair<QueryExecutor::Completion, std::future<QueryResult>> promised() {
  auto promise = std::make_shared<std::promise<QueryResult>>();
  auto future = promise->get_future();
  return {[promise](QueryResult r) { promise->set_value(std::move(r)); },
          std::move(future)};
}

}  // namespace

/// Publishes the in-flight query's CancelToken and hard deadline to the
/// slot's watch entry so the watchdog thread can hard-cancel an overrun; the
/// destructor withdraws it before the token leaves scope.
class QueryExecutor::WatchGuard {
 public:
  WatchGuard(QueryExecutor& executor, std::size_t slot, CancelToken& token,
             bool has_deadline, std::chrono::steady_clock::time_point enqueued,
             std::int64_t timeout_ms)
      : watch_(*executor.watches_[slot]) {
    if (!has_deadline || executor.opts_.watchdog_factor <= 1.0) return;
    const auto budget = std::chrono::duration<double, std::milli>(
        static_cast<double>(timeout_ms) * executor.opts_.watchdog_factor);
    LockGuard<Mutex> lk(watch_.mutex);
    watch_.token = &token;
    watch_.hard_deadline =
        enqueued +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            budget);
    watch_.cancelled = false;
    active_ = true;
  }

  ~WatchGuard() {
    if (!active_) return;
    LockGuard<Mutex> lk(watch_.mutex);
    watch_.token = nullptr;
  }

  WatchGuard(const WatchGuard&) = delete;
  WatchGuard& operator=(const WatchGuard&) = delete;

  [[nodiscard]] bool fired() const {
    LockGuard<Mutex> lk(watch_.mutex);
    return watch_.cancelled;
  }

 private:
  SlotWatch& watch_;
  bool active_ = false;
};

QueryExecutor::QueryExecutor(GraphRegistry& registry, ExecutorOptions opts)
    : registry_(registry),
      opts_(sanitized(opts)),
      queue_(opts_.queue_capacity),
      paused_(opts_.start_paused) {
  const std::size_t workers = opts_.num_workers;
  threads_per_query_ =
      opts_.threads_per_query != 0
          ? opts_.threads_per_query
          : std::max<std::size_t>(1, hardware_threads() / workers);
  pools_.reserve(workers);
  watches_.reserve(workers);
  for (std::size_t s = 0; s < workers; ++s) {
    pools_.push_back(std::make_unique<ThreadPool>(threads_per_query_));
    watches_.push_back(std::make_unique<SlotWatch>());
  }
  workers_.reserve(workers);
  for (std::size_t s = 0; s < workers; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
  if (opts_.watchdog_factor > 1.0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

QueryExecutor::~QueryExecutor() { shutdown(); }

/// One accepted request fully completed (its completion delivered).
void QueryExecutor::finish_pending() {
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Empty critical section orders the notify after any drain() caller has
    // entered its wait; without it the last decrement could slip between the
    // waiter's predicate check and its sleep.
    { LockGuard<Mutex> lk(drain_mutex_); }
    drain_cv_.notify_all();
  }
}

/// The one admission body: queues every item or answers each one kRejected
/// inline. It never throws, even when the queue itself faults (failpoints,
/// allocation failure).
void QueryExecutor::admit(std::vector<Item> items, std::string reject_reason) {
  const std::size_t count = items.size();
  submitted_.fetch_add(count, std::memory_order_relaxed);
  bool pushed = false;
  pending_.fetch_add(count, std::memory_order_acq_rel);
  try {
    pushed = queue_.try_push_all(items);
  } catch (const std::exception& e) {
    reject_reason = std::string("admission failure: ") + e.what();
  }
  if (!pushed) {
    rejected_.fetch_add(count, std::memory_order_relaxed);
    for (auto& item : items) {
      QueryResult r;
      r.status = QueryStatus::kRejected;
      r.error = reject_reason;
      r.graph = item.req.graph;
      r.algorithm = item.req.algorithm;
      deliver(item.done, std::move(r));
      finish_pending();
    }
    return;
  }
  accepted_.fetch_add(count, std::memory_order_relaxed);
}

void QueryExecutor::submit(SpanningTreeRequest req, Completion done) {
  std::vector<Item> items;
  items.push_back(Item{std::move(req), std::chrono::steady_clock::now(),
                       std::move(done), {}});
  admit(std::move(items), "request queue full");
}

void QueryExecutor::submit_batch(std::vector<SpanningTreeRequest> reqs,
                                 std::vector<Completion> dones) {
  if (reqs.size() != dones.size()) {
    throw std::invalid_argument("submit_batch: one completion per request");
  }
  const auto now = std::chrono::steady_clock::now();
  std::vector<Item> items;
  items.reserve(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    items.push_back(Item{std::move(reqs[i]), now, std::move(dones[i]), {}});
  }
  admit(std::move(items), "request queue cannot take the whole batch");
}

std::future<QueryResult> QueryExecutor::submit(SpanningTreeRequest req) {
  auto [done, future] = promised();
  submit(std::move(req), std::move(done));
  return std::move(future);
}

std::vector<std::future<QueryResult>> QueryExecutor::submit_batch(
    std::vector<SpanningTreeRequest> reqs) {
  std::vector<Completion> dones;
  std::vector<std::future<QueryResult>> futures;
  dones.reserve(reqs.size());
  futures.reserve(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    auto [done, future] = promised();
    dones.push_back(std::move(done));
    futures.push_back(std::move(future));
  }
  submit_batch(std::move(reqs), std::move(dones));
  return futures;
}

bool QueryExecutor::submit_task(std::function<void()> task) {
  if (!task) return false;
  Item item;
  item.task = std::move(task);
  item.enqueued = std::chrono::steady_clock::now();
  pending_.fetch_add(1, std::memory_order_acq_rel);
  bool pushed = false;
  try {
    pushed = queue_.try_push(std::move(item));
  } catch (const std::exception&) {
    // Injected admission fault: same outcome as a full queue.
  }
  if (!pushed) {
    finish_pending();
    return false;
  }
  return true;
}

bool QueryExecutor::drain(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  LockGuard<Mutex> lk(drain_mutex_);
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (drain_cv_.wait_until(drain_mutex_, deadline) ==
            std::cv_status::timeout &&
        pending_.load(std::memory_order_acquire) != 0) {
      return false;
    }
  }
  return true;
}

void QueryExecutor::resume() {
  {
    LockGuard<Mutex> lk(pause_mutex_);
    paused_ = false;
  }
  pause_cv_.notify_all();
}

void QueryExecutor::shutdown() {
  // acq_rel: the winner's subsequent close/join sequence must not be
  // reordered before the claim, and a losing caller must observe the
  // winner's prior writes before returning into teardown.
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  queue_.close();
  resume();  // a paused worker must still drain and exit
  for (auto& w : workers_) w.join();
  {
    LockGuard<Mutex> lk(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

ServiceStats QueryExecutor::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.served_ok = served_ok_.load(std::memory_order_relaxed);
  s.timed_out = timed_out_.load(std::memory_order_relaxed);
  s.not_found = not_found_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.invalid = invalid_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.watchdog_cancels = watchdog_cancels_.load(std::memory_order_relaxed);
  s.latency = latency_.snapshot();
  s.registry = registry_.stats();
  return s;
}

void QueryExecutor::wait_if_paused() {
  LockGuard<Mutex> lk(pause_mutex_);
  while (paused_) pause_cv_.wait(pause_mutex_);
}

void QueryExecutor::watchdog_loop() {
  const auto poll = std::chrono::milliseconds(opts_.watchdog_poll_ms);
  for (;;) {
    {
      // Sleep one poll period, or until shutdown() interrupts the nap. The
      // deadline re-arms each iteration, so a spurious wake just re-sleeps.
      const auto wake_at = std::chrono::steady_clock::now() + poll;
      LockGuard<Mutex> lk(watchdog_mutex_);
      while (!watchdog_stop_ &&
             watchdog_cv_.wait_until(watchdog_mutex_, wake_at) !=
                 std::cv_status::timeout) {
      }
      if (watchdog_stop_) return;
    }
    const auto now = std::chrono::steady_clock::now();
    for (auto& watch : watches_) {
      LockGuard<Mutex> wl(watch->mutex);
      if (watch->token != nullptr && !watch->cancelled &&
          now >= watch->hard_deadline) {
        watch->cancelled = true;
        watch->token->request_cancel();
        watchdog_cancels_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void QueryExecutor::worker_loop(std::size_t slot) {
  obs::trace::label_current_thread("executor-slot", slot);
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& m_queries = reg.counter("service.queries");
  obs::Counter& m_ok = reg.counter("service.served_ok");
  obs::Counter& m_timed_out = reg.counter("service.timed_out");
  obs::Counter& m_failed = reg.counter("service.failed");
  obs::Gauge& m_inflight = reg.gauge("service.inflight");
  obs::LatencyHistogram& m_latency = reg.histogram("service.latency_ms");
  for (;;) {
    wait_if_paused();
    Item item;
    try {
      if (!queue_.pop(item)) return;
    } catch (const std::exception&) {
      // Injected dequeue fault: nothing was taken, so nothing is owed.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    if (item.task) {
      // Offloaded admin work: contained like a completion, bypasses query
      // accounting (it is not a query), still settles pending()/drain().
      try {
        item.task();
      } catch (...) {
      }
      finish_pending();
      continue;
    }
    // The queue-wait span is emitted at dequeue, stamped from the recorded
    // submission time, so traces separate time-in-queue from compute.
    if (obs::trace::enabled()) {
      obs::trace::emit_complete("query.queue_wait",
                                obs::trace::to_trace_ns(item.enqueued),
                                obs::trace::now_ns());
    }
    m_queries.add(1);
    m_inflight.add(1);
    // Containment boundary: no exception may escape the worker thread (it
    // would std::terminate the process) and the completion must always get
    // a typed outcome.
    QueryResult result;
    std::string failure;
    try {
      SMPST_FAILPOINT("service.executor.dequeue");
      result = execute(item, *pools_[slot], slot);
      SMPST_FAILPOINT("service.executor.respond");
    } catch (const std::exception& e) {
      failure = std::string("worker exception: ") + e.what();
    } catch (...) {
      failure = "worker exception of unknown type";
    }
    if (!failure.empty()) {
      result = QueryResult{};
      result.status = QueryStatus::kFailed;
      result.error = std::move(failure);
      result.graph = item.req.graph;
      result.algorithm = item.req.algorithm;
      result.total_ms =
          ms_between(item.enqueued, std::chrono::steady_clock::now());
    }
    switch (result.status) {
      case QueryStatus::kOk:
        served_ok_.fetch_add(1, std::memory_order_relaxed);
        m_ok.add(1);
        break;
      case QueryStatus::kTimedOut:
        timed_out_.fetch_add(1, std::memory_order_relaxed);
        m_timed_out.add(1);
        break;
      case QueryStatus::kNotFound:
        not_found_.fetch_add(1, std::memory_order_relaxed);
        m_failed.add(1);
        break;
      case QueryStatus::kInvalid:
        invalid_.fetch_add(1, std::memory_order_relaxed);
        m_failed.add(1);
        break;
      default:
        failed_.fetch_add(1, std::memory_order_relaxed);
        m_failed.add(1);
        break;
    }
    latency_.record_ms(result.total_ms);
    m_latency.record_ms(result.total_ms);
    m_inflight.add(-1);
    deliver(item.done, std::move(result));
    finish_pending();
  }
}

QueryResult QueryExecutor::execute(Item& item, ThreadPool& pool,
                                   std::size_t slot) {
  SMPST_TRACE_SCOPE("query.execute");
  const SpanningTreeRequest& req = item.req;
  QueryResult r;
  r.graph = req.graph;
  r.algorithm = req.algorithm;
  r.stats_requested = req.want_stats;
  r.queue_ms = ms_between(item.enqueued, std::chrono::steady_clock::now());

  const bool has_deadline = req.timeout_ms >= 0;
  const auto deadline =
      item.enqueued + std::chrono::milliseconds(has_deadline ? req.timeout_ms
                                                             : 0);
  auto finish = [&](QueryStatus status, std::string error) {
    r.status = status;
    r.error = std::move(error);
    r.total_ms = ms_between(item.enqueued, std::chrono::steady_clock::now());
  };

  const AlgorithmSpec* spec = find_algorithm(req.algorithm);
  if (spec == nullptr) {
    finish(QueryStatus::kInvalidArgument,
           "unknown algorithm: " + req.algorithm);
    return r;
  }
  // Pre-dispatch admission: an already-expired deadline (notably 0 ms) never
  // starts the traversal, so the timed-out outcome is deterministic.
  CancelToken token;
  if (has_deadline) {
    token.set_deadline(deadline);
    if (std::chrono::steady_clock::now() >= deadline) {
      finish(QueryStatus::kTimedOut, "deadline expired in queue");
      return r;
    }
  }
  WatchGuard watch(*this, slot, token, has_deadline, item.enqueued,
                   req.timeout_ms);
  auto timeout_error = [&]() -> std::string {
    if (!watch.fired()) return "deadline expired mid-traversal";
    r.watchdog_cancelled = true;
    return "hard-cancelled by watchdog after overrunning the deadline";
  };

  WallTimer exec_timer;
  std::string last_error;
  bool invalid_result = false;

  // The one run-on-graph step, taken by every attempt and by the degradation
  // run: look up the graph, check the root, run `algorithm` on whichever
  // backend holds the graph, re-root, and validate if asked (or in paranoid
  // mode). An invalid forest counts as a thrown attempt. kFinished: the
  // lookup, the root check or a cancellation has already finished `r`.
  enum class Step { kServed, kThrew, kUnsupported, kFinished };
  auto run_on_graph = [&](const std::string& algorithm) -> Step {
    try {
      SMPST_FAILPOINT("service.executor.execute");
      const GraphRegistry::GraphHandle graph = registry_.get_any(req.graph);
      if (!graph) {
        finish(QueryStatus::kNotFound, "graph not in registry: " + req.graph);
        return Step::kFinished;
      }
      const VertexId n = graph.resident != nullptr
                             ? graph.resident->num_vertices()
                             : graph.blocked->num_vertices();
      if (req.root != kInvalidVertex && req.root >= n) {
        finish(QueryStatus::kInvalidArgument, "root vertex out of range");
        return Step::kFinished;
      }
      if (graph.resident == nullptr && !algorithm_supports_blocked(algorithm)) {
        last_error = "algorithm \"" + algorithm +
                     "\" has no blocked-backend implementation";
        return Step::kUnsupported;
      }
      RunOptions run;
      run.seed = req.seed;
      run.cancel = &token;
      run.stats = req.want_stats ? &r.stats : nullptr;
      auto run_on = [&](const auto& g) {
        {
          SMPST_TRACE_SCOPE("query.compute");
          r.forest = run_algorithm(algorithm, g, pool, run);
        }
        if (req.root != kInvalidVertex) reroot(r.forest, req.root);
        if (req.validate || opts_.paranoid_validate) {
          SMPST_TRACE_SCOPE("query.validate");
          r.validated = true;
          r.validation = validate_spanning_forest(g, r.forest);
          if (!r.validation.ok) {
            throw InvalidResultError("validation failed: " +
                                     r.validation.error);
          }
        }
        r.num_trees = r.forest.num_trees();
      };
      if (graph.resident != nullptr) {
        run_on(*graph.resident);
      } else {
        run_on(*graph.blocked);
      }
      return Step::kServed;
    } catch (const CancelledError&) {
      finish(QueryStatus::kTimedOut, timeout_error());
      return Step::kFinished;
    } catch (const InvalidResultError& e) {
      invalid_result = true;
      last_error = e.what();
    } catch (const std::exception& e) {
      invalid_result = false;
      last_error = e.what();
    }
    return Step::kThrew;
  };

  const std::size_t max_attempts = 1 + opts_.max_retries;
  Step step = Step::kThrew;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      auto backoff = std::chrono::milliseconds(
          opts_.retry_backoff_ms << (attempt - 1));
      if (has_deadline) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
          r.exec_ms = exec_timer.elapsed_millis();
          finish(QueryStatus::kTimedOut,
                 "deadline expired between retries (last error: " +
                     last_error + ")");
          return r;
        }
        backoff = std::min(
            backoff,
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now));
      }
      if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
    }
    r.attempts = static_cast<std::uint32_t>(attempt + 1);
    step = run_on_graph(req.algorithm);
    if (step != Step::kThrew) break;
  }

  // Degradation chain: serve the query with the sequential baseline rather
  // than failing it, when every attempt at a parallel algorithm threw or
  // produced an invalid forest, or at once (no retries) when the graph is
  // blocked and the algorithm has no blocked instantiation (dfs, hcs).
  if (opts_.degrade_to_sequential &&
      ((step == Step::kThrew && spec->parallel) ||
       step == Step::kUnsupported)) {
    step = run_on_graph("bfs");
    if (step == Step::kServed) {
      r.degraded = true;
      degraded_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  r.exec_ms = exec_timer.elapsed_millis();
  if (step == Step::kFinished) return r;
  if (step != Step::kServed) {
    finish(invalid_result ? QueryStatus::kInvalid : QueryStatus::kFailed,
           last_error);
    return r;
  }
  if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
    // Completed late (the algorithm may lack a cancellation hook); the forest
    // is kept but the latency contract was missed.
    finish(QueryStatus::kTimedOut, "completed after deadline");
    return r;
  }
  finish(QueryStatus::kOk, {});
  return r;
}

}  // namespace smpst::service
