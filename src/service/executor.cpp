#include "service/executor.hpp"

#include <algorithm>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
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

/// Extra attempts after a thrown attempt. A CancelledError (deadline) is
/// never retried.
constexpr std::size_t kMaxRetries = 2;

/// Backoff before the first retry; doubles per retry, capped by any remaining
/// deadline budget.
constexpr std::chrono::milliseconds kRetryBackoff{1};

/// Longest accepted timeout. A larger one would overflow the nanosecond
/// deadline arithmetic and wrap into the past.
constexpr std::int64_t kMaxTimeoutMs = 24LL * 60 * 60 * 1000;  // one day

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

QueryExecutor::QueryExecutor(GraphRegistry& registry, ExecutorOptions opts)
    : registry_(registry),
      opts_(sanitized(opts)),
      queue_(opts_.queue_capacity) {
  const std::size_t workers = opts_.num_workers;
  threads_per_query_ =
      opts_.threads_per_query != 0
          ? opts_.threads_per_query
          : std::max<std::size_t>(1, hardware_threads() / workers);
  pools_.reserve(workers);
  for (std::size_t s = 0; s < workers; ++s) {
    pools_.push_back(std::make_unique<ThreadPool>(threads_per_query_));
  }
  workers_.reserve(workers);
  for (std::size_t s = 0; s < workers; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
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

void QueryExecutor::shutdown() {
  // acq_rel: the winner's subsequent close/join sequence must not be
  // reordered before the claim, and a losing caller must observe the
  // winner's prior writes before returning into teardown.
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  queue_.close();
  for (auto& w : workers_) w.join();
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
  s.latency = latency_.snapshot();
  s.registry = registry_.stats();
  return s;
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
      result = execute(item, *pools_[slot]);
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

QueryResult QueryExecutor::execute(Item& item, ThreadPool& pool) {
  SMPST_TRACE_SCOPE("query.execute");
  const SpanningTreeRequest& req = item.req;
  QueryResult r;
  r.graph = req.graph;
  r.algorithm = req.algorithm;
  r.stats_requested = req.want_stats;
  r.queue_ms = ms_between(item.enqueued, std::chrono::steady_clock::now());
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
  if (req.timeout_ms > kMaxTimeoutMs) {
    finish(QueryStatus::kInvalidArgument, "timeout exceeds one day");
    return r;
  }
  const bool has_deadline = req.timeout_ms >= 0;
  const auto deadline =
      item.enqueued + std::chrono::milliseconds(has_deadline ? req.timeout_ms
                                                             : 0);
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
  WallTimer exec_timer;
  std::string last_error;
  bool invalid_result = false;

  // The one run-on-graph step, taken by every attempt and by the degradation
  // run: look up the graph, check the root, run `algorithm` on whichever
  // backend holds the graph, re-root, compare the tree count with the
  // graph's component count, and validate if asked (or in paranoid mode).
  // An invalid forest counts as a thrown attempt. kFinished: the
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
        if (SMPST_FAILPOINT_TRIGGERED("service.executor.exit_invariant")) {
          // Split one tree, which the exit invariant below must catch.
          auto& parent = r.forest.parent;
          for (VertexId v = 0; v < parent.size(); ++v) {
            if (parent[v] != v) {
              parent[v] = v;
              break;
            }
          }
        }
        r.num_trees = r.forest.num_trees();
        if (r.num_trees != graph.components) {
          throw InvalidResultError(
              "forest has " + std::to_string(r.num_trees) +
              " trees but graph has " + std::to_string(graph.components) +
              " components");
        }
        if (req.validate || opts_.paranoid_validate) {
          SMPST_TRACE_SCOPE("query.validate");
          r.validated = true;
          r.validation = validate_spanning_forest(g, r.forest);
          if (!r.validation.ok) {
            throw InvalidResultError("validation failed: " +
                                     r.validation.error);
          }
        }
      };
      if (graph.resident != nullptr) {
        run_on(*graph.resident);
      } else {
        run_on(*graph.blocked);
      }
      return Step::kServed;
    } catch (const CancelledError&) {
      finish(QueryStatus::kTimedOut, "deadline expired mid-traversal");
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

  Step step = Step::kThrew;
  for (std::size_t attempt = 0; attempt <= kMaxRetries; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      auto backoff = kRetryBackoff * (1 << (attempt - 1));
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
  if ((step == Step::kThrew && spec->parallel) ||
      step == Step::kUnsupported) {
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
