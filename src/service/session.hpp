// Session — one client's command stream against the query service.
//
// This is the shared dispatch path behind every front end: the stdin loop and
// the TCP server both frame bytes into lines (service/codec.hpp) and feed
// them here. The session parses each line, runs synchronous commands (load /
// gen / stats / metrics / trace / list / evict) inline, submits queries to
// the QueryExecutor through its callback API, and re-serializes responses so
// that they leave in exactly the order the requests arrived — the pipelining
// contract a line protocol needs.
//
// Response invariant: every fed line produces at least one response line, and
// (except for `list`, which emits one line per resident graph plus a summary)
// exactly one. Query responses may be emitted later, from an executor worker
// thread; the session's internal slot buffer holds completed-out-of-order
// responses until their turn.
//
// Overload + drain semantics (docs/SERVICE.md):
//   - a query the executor rejects (bounded queue full) is answered with a
//     typed `overloaded` error carrying a retry_after_ms hint derived from
//     the current queue depth and service latency;
//   - after begin_drain(), new queries and registry mutations are shed with
//     `shutting-down`; read-only commands still answer; queries accepted
//     before the drain complete normally.
//
// Threading: on_line / on_oversized_line / on_eof must be called by one
// thread at a time (the connection's reader). The sink may be invoked from
// that thread or from executor workers, serialized by an internal mutex; it
// must be quick and must not re-enter the session. Sessions are created via
// the `create` factory and held by std::shared_ptr because in-flight
// executor completions keep the session alive past a disconnect — detach()
// turns the sink into a no-op so a dead connection's responses drain into
// the void without blocking the executor.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "service/executor.hpp"
#include "service/query.hpp"
#include "service/wire.hpp"
#include "support/thread_annotations.hpp"

namespace smpst::service {

struct SessionOptions {
  /// Upper bound accepted for `batch count=K`.
  std::size_t max_batch = 4096;

  /// Invoked (outside the session mutex' critical path) when the client
  /// issues `shutdown`. When unset, `shutdown` behaves like `quit`.
  std::function<void()> on_shutdown;

  /// Run heavy admin commands (load / gen / trace — disk I/O and big
  /// compute) on an executor worker instead of the caller's thread. The TCP
  /// front end enables this so the epoll loop thread never blocks; while an
  /// offloaded command runs, subsequent input events are deferred in arrival
  /// order and replayed via pump_deferred() (see resume_ready()), keeping
  /// the pipelining contract intact. The stdin front end leaves it off:
  /// there, blocking the (dedicated) reader thread is fine.
  bool offload_heavy = false;
};

class Session : public std::enable_shared_from_this<Session> {
 public:
  /// Receives one rendered response line (no trailing newline). Called with
  /// the session mutex held; keep it O(append) and non-reentrant.
  using Sink = std::function<void(std::string&&)>;

  using Options = SessionOptions;

  /// Sessions must be shared_ptr-owned (executor completions capture one).
  [[nodiscard]] static std::shared_ptr<Session> create(
      GraphRegistry& registry, QueryExecutor& executor, Sink sink,
      Options opts = Options());

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Feeds one complete request line (newline already stripped).
  void on_line(std::string line);

  /// Reports a line the codec rejected for exceeding the wire cap; answers
  /// with a typed `too-large` error so the count of responses still matches
  /// the count of (attempted) requests.
  void on_oversized_line(std::size_t observed_bytes);

  /// End of the request stream: finalizes a half-collected batch (the
  /// remaining announced lines are answered with typed truncation errors).
  void on_eof();

  /// Shed new work from now on: queries and registry mutations get
  /// `shutting-down`; in-flight queries still complete and flush.
  void begin_drain() noexcept;

  /// The client asked to end the session (`quit`, or `shutdown` with no
  /// handler installed). The front end should flush and close.
  [[nodiscard]] bool quit_requested() const noexcept;

  /// Responses not yet handed to the sink (queries in flight + out-of-order
  /// completions waiting for their turn).
  [[nodiscard]] std::size_t pending() const;

  /// Blocks until every fed line has been answered, or the timeout elapses.
  [[nodiscard]] bool wait_idle(std::chrono::milliseconds timeout);

  /// Replaces the sink with a no-op: responses for a disconnected client are
  /// dropped (in order) instead of delivered. Idempotent.
  void detach();

  /// True when deferred input events are waiting and no offloaded admin
  /// command is in flight — the reader thread should call pump_deferred().
  /// Only meaningful with offload_heavy; reader-thread callers only.
  [[nodiscard]] bool resume_ready() const;

  /// Replays deferred input events in arrival order until they are exhausted
  /// or another offloaded command starts. Reader-thread callers only.
  void pump_deferred();

 private:
  Session(GraphRegistry& registry, QueryExecutor& executor, Sink sink,
          Options opts);

  struct DeferredEvent {
    enum class Kind { kLine, kOversized, kEof };
    Kind kind = Kind::kLine;
    std::string line;        ///< kLine payload
    std::size_t bytes = 0;   ///< kOversized payload
  };

  [[nodiscard]] std::uint64_t alloc_slot();
  void process_line(std::string line);
  void process_oversized_line(std::size_t observed_bytes);
  void process_eof();
  [[nodiscard]] bool must_defer() const;
  void defer(DeferredEvent ev);
  void offload(std::uint64_t slot, const std::string& cmd, Fields f);
  void deliver(std::uint64_t slot, std::vector<std::string> lines,
               bool executor_stats = false);
  void deliver_one(std::uint64_t slot, std::string line);
  void complete_query(std::uint64_t slot, const QueryResult& r);
  void dispatch(std::uint64_t slot, const std::string& line);
  void handle_batch_announce(std::uint64_t slot, std::int64_t count);
  void collect_batch_line(const std::string& line);
  void finalize_batch();
  [[nodiscard]] std::vector<std::string> run_sync(const std::string& cmd,
                                                  const Fields& f);
  [[nodiscard]] std::int64_t retry_after_hint_ms();

  GraphRegistry& registry_;
  QueryExecutor& executor_;
  const Options opts_;

  mutable Mutex mutex_{lockdep::rank::kSession};
  Sink sink_ SMPST_GUARDED_BY(mutex_);
  std::uint64_t next_slot_ SMPST_GUARDED_BY(mutex_) = 0;
  std::uint64_t flush_slot_ SMPST_GUARDED_BY(mutex_) = 0;
  /// A completed slot waiting for its turn. `executor_stats` (the `stats`
  /// command) is rendered when the slot is written, so it counts every
  /// query answered before it on this connection.
  struct Ready {
    std::vector<std::string> lines;
    bool executor_stats = false;
  };
  std::map<std::uint64_t, Ready> ready_ SMPST_GUARDED_BY(mutex_);
  CondVar idle_cv_;

  std::int64_t retry_hint_ms_ SMPST_GUARDED_BY(mutex_) = 1;
  std::chrono::steady_clock::time_point retry_hint_at_
      SMPST_GUARDED_BY(mutex_){};

  std::atomic<bool> drain_{false};
  std::atomic<bool> quit_{false};

  // Batch collection state; touched only by the reader thread.
  std::size_t batch_remaining_ = 0;
  std::vector<SpanningTreeRequest> batch_reqs_;
  std::vector<std::uint64_t> batch_req_slots_;

  // Offload state (offload_heavy only). admin_inflight_ is set by the reader
  // thread when a heavy command is handed to the executor and cleared by the
  // worker just before it delivers the response; deferred_ is owned by the
  // reader thread exclusively, with deferred_count_ mirroring its size for
  // pending() callers on other threads.
  std::atomic<bool> admin_inflight_{false};
  std::deque<DeferredEvent> deferred_;
  std::atomic<std::size_t> deferred_count_{0};
};

}  // namespace smpst::service
