// QueryExecutor — the serving loop that turns the invoke-once library into a
// long-lived query engine.
//
// Producers call submit(); requests flow through a bounded MPMC queue
// (admission control: reject-on-full, never unbounded buffering) to a fixed
// set of worker threads. Each worker owns one persistent sched::ThreadPool
// that is reused by every parallel query it executes — thread creation is
// paid once at startup, exactly the property the paper's benchmark harness
// relies on, now extended to a multi-tenant serving context. Deadlines are
// cooperative and enforced at three points: pre-dispatch (an expired request
// is never run, so a 0 ms deadline deterministically times out), in flight
// via the CancelToken hooks in the traversal loops, and at completion (a
// late forest is answered kTimedOut).
//
// Execution is exception-safe end to end: worker threads contain every
// exception (a thrown attempt is retried with backoff, then degraded to the
// sequential baseline, and only then surfaced as a typed kFailed outcome),
// and the completion of every request always fires. With
// paranoid_validate, every successful forest is additionally checked against
// the validation oracle before being reported kOk. See docs/ROBUSTNESS.md.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "service/bounded_queue.hpp"
#include "service/graph_registry.hpp"
#include "service/query.hpp"
#include "support/thread_annotations.hpp"

namespace smpst {
class ThreadPool;
}

namespace smpst::service {

struct ExecutorOptions {
  /// Concurrent query slots; each gets a dedicated worker thread + pool.
  std::size_t num_workers = 2;

  /// ThreadPool size per slot. 0 = hardware threads split evenly across
  /// slots (at least 1).
  std::size_t threads_per_query = 0;

  /// Bounded request-queue depth; submissions beyond it are rejected.
  std::size_t queue_capacity = 64;

  /// Validate every successful result (even when the request did not ask);
  /// a forest that fails validation surfaces as kInvalid instead of kOk.
  bool paranoid_validate = false;
};

/// Point-in-time service counters plus the latency distribution.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t served_ok = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t not_found = 0;
  std::uint64_t failed = 0;   ///< kError + kInvalidArgument + kFailed outcomes
  std::uint64_t invalid = 0;  ///< kInvalid (paranoid validation rejections)

  std::uint64_t retries = 0;   ///< retry attempts consumed
  std::uint64_t degraded = 0;  ///< queries served by the fallback

  obs::LatencyHistogram::Snapshot latency;  ///< total_ms of executed requests
  GraphRegistry::Stats registry;
};

class QueryExecutor {
 public:
  /// The registry must outlive the executor.
  explicit QueryExecutor(GraphRegistry& registry, ExecutorOptions opts = {});

  /// Drains already-accepted requests, then joins the workers.
  ~QueryExecutor();

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// How every request is answered. Invoked exactly once per request — from
  /// the worker thread that executed it, or inline from submit() for a
  /// rejected request — and handed the result to keep. It must not block for
  /// long (it runs on the serving path) and must not re-enter the executor.
  using Completion = std::function<void(QueryResult)>;

  /// Event-driven submit for network front ends: no future, no waiting
  /// thread. Never blocks: a request the queue cannot take is answered
  /// kRejected inline. `done` always fires, even on executor shutdown. A
  /// throwing completion is contained, never propagated.
  void submit(SpanningTreeRequest req, Completion done);

  /// Admits the batch atomically: either every request is queued or the whole
  /// batch is rejected (partial admission would make batch latency depend on
  /// its own rejected remainder). `dones` must be the same length as `reqs`
  /// and every entry fires exactly once.
  void submit_batch(std::vector<SpanningTreeRequest> reqs,
                    std::vector<Completion> dones);

  /// Future flavours of the two above: each future is fulfilled by the
  /// request's completion, so it is always eventually satisfied.
  std::future<QueryResult> submit(SpanningTreeRequest req);
  std::vector<std::future<QueryResult>> submit_batch(
      std::vector<SpanningTreeRequest> reqs);

  /// Runs an opaque task on a worker slot. Sessions use this to keep heavy
  /// admin commands (graph load/gen from disk, trace dumps) off the network
  /// loop thread — the loop must never block on file I/O or long compute.
  /// Tasks share the bounded queue with queries (same admission control) and
  /// count toward pending()/drain(), but not query stats. Returns false when
  /// the queue is full or closed; the caller then answers the client itself.
  /// A throwing task is contained, never propagated.
  [[nodiscard]] bool submit_task(std::function<void()> task);

  /// Stops admissions, drains accepted requests, joins workers. Idempotent.
  void shutdown();

  /// Blocks until every accepted request has completed (its completion
  /// invoked) or `timeout` elapses; does NOT stop admissions —
  /// the caller is expected to have stopped submitting. Returns true when the
  /// executor went idle within the deadline.
  bool drain(std::chrono::milliseconds timeout);

  /// Requests currently queued (admission headroom = capacity - depth).
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t queue_capacity() const noexcept {
    return queue_.capacity();
  }

  /// Accepted-but-not-completed requests (queued + in flight).
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }

  [[nodiscard]] ServiceStats stats() const;

  [[nodiscard]] std::size_t num_workers() const noexcept {
    return workers_.size();
  }
  [[nodiscard]] std::size_t threads_per_query() const noexcept {
    return threads_per_query_;
  }

 private:
  struct Item {
    SpanningTreeRequest req;
    std::chrono::steady_clock::time_point enqueued;
    Completion done;  ///< invoked exactly once
    /// Offloaded admin work; when set, req/done are unused and the worker
    /// runs the task instead of executing a query.
    std::function<void()> task;
  };

  void worker_loop(std::size_t slot);
  QueryResult execute(Item& item, ThreadPool& pool);
  bool admit(std::vector<Item> items, std::string reject_reason);
  void finish_pending();

  GraphRegistry& registry_;
  const ExecutorOptions opts_;
  std::size_t threads_per_query_ = 1;
  BoundedQueue<Item> queue_;

  std::atomic<bool> shut_down_{false};
  std::vector<std::unique_ptr<ThreadPool>> pools_;
  std::vector<std::thread> workers_;

  /// Accepted-but-not-completed count; drain() waits for it to hit zero.
  std::atomic<std::size_t> pending_{0};
  Mutex drain_mutex_{lockdep::rank::kExecutorDrain};
  CondVar drain_cv_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> served_ok_{0};
  std::atomic<std::uint64_t> timed_out_{0};
  std::atomic<std::uint64_t> not_found_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> invalid_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> degraded_{0};
  obs::LatencyHistogram latency_;
};

}  // namespace smpst::service
