#include "service/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/wire.hpp"
#include "storage/blocked_graph.hpp"
#include "support/failpoint.hpp"

namespace smpst::service {

namespace {

std::string get(const Fields& f, const std::string& key,
                const std::string& fallback) {
  const auto it = f.find(key);
  return it == f.end() ? fallback : it->second;
}

std::int64_t get_int(const Fields& f, const std::string& key,
                     std::int64_t fallback) {
  const auto it = f.find(key);
  if (it == f.end() || it->second.empty()) return fallback;
  std::size_t consumed = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(it->second, &consumed);
  } catch (const std::exception&) {
  }
  if (consumed != it->second.size()) {
    throw std::invalid_argument(key + " must be an integer, got: " +
                                it->second);
  }
  return value;
}

bool get_bool(const Fields& f, const std::string& key, bool fallback) {
  const auto it = f.find(key);
  if (it == f.end() || it->second.empty()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  throw std::invalid_argument(key + " must be a boolean, got: " + it->second);
}

std::string require(const Fields& f, const std::string& key) {
  const auto it = f.find(key);
  if (it == f.end() || it->second.empty()) {
    throw std::invalid_argument("missing required field: " + key);
  }
  return it->second;
}

SpanningTreeRequest parse_request(const Fields& f) {
  // A typo in a field name must not silently drop (say) the timeout: reject
  // anything we would otherwise ignore.
  static const char* const known[] = {"cmd",     "graph",      "algo",
                                      "algorithm", "root",     "timeout",
                                      "timeout_ms", "seed",    "validate",
                                      "stats"};
  for (const auto& [key, value] : f) {
    bool ok = false;
    for (const char* k : known) ok = ok || key == k;
    if (!ok) throw std::invalid_argument("unknown query field: " + key);
  }
  SpanningTreeRequest req;
  req.graph = require(f, "graph");
  req.algorithm = get(f, "algo", get(f, "algorithm", "bader-cong"));
  if (f.count("root") != 0) {
    // Validate before the narrowing cast: root=-1 would otherwise wrap to
    // kInvalidVertex and silently mean "default root".
    const std::int64_t root = get_int(f, "root", 0);
    if (root < 0 || root >= static_cast<std::int64_t>(kInvalidVertex)) {
      throw std::invalid_argument("root out of range: " +
                                  std::to_string(root));
    }
    req.root = static_cast<VertexId>(root);
  } else {
    req.root = kInvalidVertex;
  }
  req.seed = static_cast<std::uint64_t>(get_int(f, "seed", 0x5eed));
  req.timeout_ms = get_int(f, "timeout", get_int(f, "timeout_ms", -1));
  req.validate = get_bool(f, "validate", false);
  req.want_stats = get_bool(f, "stats", false);
  return req;
}

std::string describe(const GraphRegistry::EntryInfo& e) {
  JsonWriter w;
  w.field("name", e.name);
  w.field("vertices", static_cast<std::uint64_t>(e.vertices));
  w.field("edges", e.edges);
  w.field("bytes", static_cast<std::uint64_t>(e.bytes));
  // Additive: resident entries keep the seed wire shape exactly.
  if (e.blocked) w.field("blocked", true);
  return w.str();
}

bool is_registry_mutation(const std::string& cmd) {
  return cmd == "load" || cmd == "loadblocked" || cmd == "gen" ||
         cmd == "evict";
}

// Commands that block or burn CPU for unbounded time: graph load (disk
// I/O), gen (builds a whole CSR), trace (writes a file). With offload_heavy
// these must leave the reader thread — the TCP server's epoll loop must
// never wait on a disk.
bool is_heavy(const std::string& cmd) {
  return cmd == "load" || cmd == "loadblocked" || cmd == "gen" ||
         cmd == "trace";
}

}  // namespace

std::shared_ptr<Session> Session::create(GraphRegistry& registry,
                                         QueryExecutor& executor, Sink sink,
                                         Options opts) {
  // Not make_shared: the constructor is private and completions rely on
  // shared_from_this, so shared ownership must exist before the first line.
  return std::shared_ptr<Session>(
      new Session(registry, executor, std::move(sink), std::move(opts)));
}

Session::Session(GraphRegistry& registry, QueryExecutor& executor, Sink sink,
                 Options opts)
    : registry_(registry),
      executor_(executor),
      opts_(std::move(opts)),
      sink_(std::move(sink)) {
  if (!sink_) sink_ = [](std::string&&) {};
}

std::uint64_t Session::alloc_slot() {
  LockGuard<Mutex> lk(mutex_);
  return next_slot_++;
}

void Session::deliver(std::uint64_t slot, std::vector<std::string> lines,
                      bool executor_stats) {
  LockGuard<Mutex> lk(mutex_);
  ready_.emplace(slot, Ready{std::move(lines), executor_stats});
  // Release every contiguously-completed slot, in order. The map is keyed by
  // slot, so begin() is always the lowest outstanding completion.
  while (!ready_.empty() && ready_.begin()->first == flush_slot_) {
    Ready& ready = ready_.begin()->second;
    if (ready.executor_stats) {
      // The executor counts a query's outcome before it completes the
      // query's slot, so every earlier slot's outcome is in this snapshot.
      ready.lines.push_back(render_stats(executor_.stats()));
    }
    for (std::string& line : ready.lines) {
      // The TCP front end's sink posts into the server mailbox, taking
      // mail_mutex_ (rank kNetMailbox) under our mutex_ (rank kSession) —
      // declare the indirect call so the static lock-order graph sees it.
      // smpst-analyze: calls(smpst::net::TcpServer::post_response)
      sink_(std::move(line));
    }
    ready_.erase(ready_.begin());
    ++flush_slot_;
  }
  if (flush_slot_ == next_slot_) idle_cv_.notify_all();
}

void Session::deliver_one(std::uint64_t slot, std::string line) {
  std::vector<std::string> lines;
  lines.push_back(std::move(line));
  deliver(slot, std::move(lines));
}

std::int64_t Session::retry_after_hint_ms() {
  {
    LockGuard<Mutex> lk(mutex_);
    const auto now = std::chrono::steady_clock::now();
    if (now - retry_hint_at_ < std::chrono::milliseconds(100)) {
      return retry_hint_ms_;
    }
  }
  // Recomputed at most every 100 ms per session: a shed storm must not turn
  // the hint into a per-rejection stats() scrape. The hint models "time for
  // the queued backlog to clear one slot": p50 service time times the queue
  // depth per worker slot.
  const ServiceStats s = executor_.stats();
  double p50 = s.latency.count > 0 ? s.latency.percentile(50) : 0.0;
  if (p50 <= 0.0) p50 = 1.0;
  const double backlog_per_slot =
      (static_cast<double>(executor_.queue_depth()) + 1.0) /
      static_cast<double>(executor_.num_workers());
  const auto hint = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(p50 * (backlog_per_slot + 1.0)), 1, 10'000);
  LockGuard<Mutex> lk(mutex_);
  retry_hint_ms_ = hint;
  retry_hint_at_ = std::chrono::steady_clock::now();
  return hint;
}

void Session::complete_query(std::uint64_t slot, const QueryResult& r) {
  std::string line;
  try {
    if (r.status == QueryStatus::kRejected) {
      // Shed path: typed overload signal plus a backoff hint instead of the
      // generic result shape. The failpoint lets chaos runs storm the shed
      // path itself; a throw here is contained below, so the slot always
      // completes and the one-response-per-line invariant holds.
      SMPST_FAILPOINT("service.session.shed");
      obs::MetricsRegistry::instance().counter("service.shed").add(1);
      line = render_error(WireErrorCode::kOverloaded, r.error,
                          retry_after_hint_ms());
    } else {
      line = render_result(r);
    }
  } catch (const std::exception& e) {
    line = render_error(WireErrorCode::kInternal,
                        std::string("response path fault: ") + e.what());
  } catch (...) {
    line = render_error(WireErrorCode::kInternal, "response path fault");
  }
  deliver_one(slot, std::move(line));
}

bool Session::must_defer() const {
  return opts_.offload_heavy &&
         (admin_inflight_.load(std::memory_order_acquire) ||
          !deferred_.empty());
}

void Session::defer(DeferredEvent ev) {
  deferred_.push_back(std::move(ev));
  deferred_count_.fetch_add(1, std::memory_order_release);
}

bool Session::resume_ready() const {
  return opts_.offload_heavy && !deferred_.empty() &&
         !admin_inflight_.load(std::memory_order_acquire);
}

void Session::pump_deferred() {
  // An event replayed here can start another offloaded command, which flips
  // admin_inflight_ back on; the remaining events keep waiting, still in
  // arrival order (process_* never re-defers — only the on_* entry points
  // do, so replay cannot loop on itself).
  while (!deferred_.empty() &&
         !admin_inflight_.load(std::memory_order_acquire)) {
    DeferredEvent ev = std::move(deferred_.front());
    deferred_.pop_front();
    deferred_count_.fetch_sub(1, std::memory_order_release);
    switch (ev.kind) {
      case DeferredEvent::Kind::kLine:
        process_line(std::move(ev.line));
        break;
      case DeferredEvent::Kind::kOversized:
        process_oversized_line(ev.bytes);
        break;
      case DeferredEvent::Kind::kEof:
        process_eof();
        break;
    }
  }
}

void Session::on_line(std::string line) {
  if (must_defer()) {
    DeferredEvent ev;
    ev.kind = DeferredEvent::Kind::kLine;
    ev.line = std::move(line);
    defer(std::move(ev));
    return;
  }
  process_line(std::move(line));
}

void Session::on_oversized_line(std::size_t observed_bytes) {
  if (must_defer()) {
    DeferredEvent ev;
    ev.kind = DeferredEvent::Kind::kOversized;
    ev.bytes = observed_bytes;
    defer(std::move(ev));
    return;
  }
  process_oversized_line(observed_bytes);
}

void Session::on_eof() {
  if (must_defer()) {
    DeferredEvent ev;
    ev.kind = DeferredEvent::Kind::kEof;
    defer(std::move(ev));
    return;
  }
  process_eof();
}

void Session::process_line(std::string line) {
  if (line.empty()) return;  // blank keep-alive, no response owed
  if (quit_.load(std::memory_order_acquire)) {
    deliver_one(alloc_slot(),
                render_error(WireErrorCode::kShuttingDown, "session closed"));
    return;
  }
  if (batch_remaining_ > 0) {
    collect_batch_line(line);
    return;
  }
  dispatch(alloc_slot(), line);
}

void Session::process_oversized_line(std::size_t observed_bytes) {
  obs::MetricsRegistry::instance().counter("service.too_large").add(1);
  const std::uint64_t slot = alloc_slot();
  std::string msg = "request line exceeds " + std::to_string(kMaxLineBytes) +
                    " bytes (got at least " + std::to_string(observed_bytes) +
                    "); discarded through the next newline";
  if (batch_remaining_ > 0) {
    // The oversized line was one of the announced batch positions.
    --batch_remaining_;
    deliver_one(slot, render_error(WireErrorCode::kTooLarge, std::move(msg)));
    if (batch_remaining_ == 0) finalize_batch();
    return;
  }
  deliver_one(slot, render_error(WireErrorCode::kTooLarge, std::move(msg)));
}

void Session::process_eof() {
  while (batch_remaining_ > 0) {
    --batch_remaining_;
    deliver_one(alloc_slot(),
                render_error(WireErrorCode::kBadRequest,
                             "batch truncated by end of input"));
  }
  finalize_batch();
}

void Session::begin_drain() noexcept {
  drain_.store(true, std::memory_order_release);
}

bool Session::quit_requested() const noexcept {
  return quit_.load(std::memory_order_acquire);
}

std::size_t Session::pending() const {
  // Deferred input events count: they are accepted work that has not been
  // answered yet, so close barriers and pipelining backpressure must see
  // them even in the window where every allocated slot has flushed.
  const std::size_t deferred = deferred_count_.load(std::memory_order_acquire);
  LockGuard<Mutex> lk(mutex_);
  return static_cast<std::size_t>(next_slot_ - flush_slot_) + deferred;
}

bool Session::wait_idle(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  LockGuard<Mutex> lk(mutex_);
  while (flush_slot_ != next_slot_) {
    if (idle_cv_.wait_until(mutex_, deadline) == std::cv_status::timeout &&
        flush_slot_ != next_slot_) {
      return false;
    }
  }
  return true;
}

void Session::detach() {
  LockGuard<Mutex> lk(mutex_);
  sink_ = [](std::string&&) {};
}

void Session::dispatch(std::uint64_t slot, const std::string& line) {
  Fields f;
  std::string cmd;
  try {
    f = parse_line(line);
    cmd = require(f, "cmd");
  } catch (const std::exception& e) {
    deliver_one(slot, render_error(WireErrorCode::kBadRequest, e.what()));
    return;
  }
  try {
    if (cmd == "quit" || cmd == "exit") {
      deliver_one(slot,
                  JsonWriter().field("ok", true).field("bye", true).str());
      quit_.store(true, std::memory_order_release);
      return;
    }
    if (cmd == "shutdown") {
      deliver_one(
          slot,
          JsonWriter().field("ok", true).field("draining", true).str());
      begin_drain();
      if (opts_.on_shutdown) {
        opts_.on_shutdown();
      } else {
        quit_.store(true, std::memory_order_release);
      }
      return;
    }
    if (cmd == "query") {
      if (drain_.load(std::memory_order_acquire)) {
        obs::MetricsRegistry::instance().counter("service.drain_shed").add(1);
        deliver_one(slot,
                    render_error(WireErrorCode::kShuttingDown,
                                 "server is draining; no new queries"));
        return;
      }
      SpanningTreeRequest req = parse_request(f);
      auto self = shared_from_this();
      executor_.submit(std::move(req),
                       [self, slot](const QueryResult& r) {
                         self->complete_query(slot, r);
                       });
      return;
    }
    if (cmd == "batch") {
      handle_batch_announce(slot, get_int(f, "count", 0));
      return;
    }
    if (drain_.load(std::memory_order_acquire) && is_registry_mutation(cmd)) {
      obs::MetricsRegistry::instance().counter("service.drain_shed").add(1);
      deliver_one(slot, render_error(WireErrorCode::kShuttingDown,
                                     "server is draining; registry is "
                                     "read-only"));
      return;
    }
    if (opts_.offload_heavy && is_heavy(cmd)) {
      offload(slot, cmd, std::move(f));
      return;
    }
    if (cmd == "stats") {
      deliver(slot, {}, /*executor_stats=*/true);
      return;
    }
    // On loop-thread (TCP) sessions the heavy commands — load, gen, trace:
    // disk I/O and pool-joining compute — were dispatched to the executor
    // just above, so this inline path runs only the bounded registry/stat
    // commands.  Stdin sessions run everything inline by design (a
    // dedicated reader thread may block).
    // smpst-analyze: allow(SA4): heavy commands took the offload branch above; the inline remainder is bounded registry lookups
    deliver(slot, run_sync(cmd, f));
  } catch (const std::invalid_argument& e) {
    deliver_one(slot, render_error(WireErrorCode::kBadRequest, e.what()));
  } catch (const std::exception& e) {
    deliver_one(slot, render_error(WireErrorCode::kInternal, e.what()));
  } catch (...) {
    // A request must never take the server down, whatever it threw.
    deliver_one(slot,
                render_error(WireErrorCode::kInternal, "unknown exception"));
  }
}

void Session::handle_batch_announce(std::uint64_t slot, std::int64_t count) {
  if (count <= 0) {
    deliver_one(slot, render_error(WireErrorCode::kBadRequest,
                                   "batch needs count>=1"));
    return;
  }
  if (count > static_cast<std::int64_t>(opts_.max_batch)) {
    deliver_one(slot,
                render_error(WireErrorCode::kBadRequest,
                             "batch count too large (max " +
                                 std::to_string(opts_.max_batch) + ")"));
    return;
  }
  batch_remaining_ = static_cast<std::size_t>(count);
  batch_reqs_.clear();
  batch_req_slots_.clear();
  batch_reqs_.reserve(batch_remaining_);
  batch_req_slots_.reserve(batch_remaining_);
  // The announce line itself gets no response line (seed protocol: K
  // announced sub-lines yield exactly K responses); an empty slot keeps the
  // release order intact without emitting anything.
  deliver(slot, {});
}

void Session::collect_batch_line(const std::string& line) {
  const std::uint64_t slot = alloc_slot();
  --batch_remaining_;
  if (line.empty()) {
    deliver_one(slot, render_error(WireErrorCode::kBadRequest,
                                   "empty batch query line"));
  } else {
    try {
      batch_reqs_.push_back(parse_request(parse_line(line)));
      batch_req_slots_.push_back(slot);
    } catch (const std::exception& e) {
      deliver_one(slot, render_error(WireErrorCode::kBadRequest, e.what()));
    }
  }
  if (batch_remaining_ == 0) finalize_batch();
}

void Session::finalize_batch() {
  std::vector<SpanningTreeRequest> reqs = std::move(batch_reqs_);
  std::vector<std::uint64_t> slots = std::move(batch_req_slots_);
  batch_reqs_.clear();
  batch_req_slots_.clear();
  batch_remaining_ = 0;
  if (reqs.empty()) return;
  if (drain_.load(std::memory_order_acquire)) {
    obs::MetricsRegistry::instance()
        .counter("service.drain_shed")
        .add(slots.size());
    for (const std::uint64_t slot : slots) {
      deliver_one(slot, render_error(WireErrorCode::kShuttingDown,
                                     "server is draining; no new queries"));
    }
    return;
  }
  auto self = shared_from_this();
  std::vector<QueryExecutor::Completion> dones;
  dones.reserve(slots.size());
  for (const std::uint64_t slot : slots) {
    dones.push_back([self, slot](const QueryResult& r) {
      self->complete_query(slot, r);
    });
  }
  executor_.submit_batch(std::move(reqs), std::move(dones));
}

void Session::offload(std::uint64_t slot, const std::string& cmd, Fields f) {
  // The slot is already allocated, so the response lands in pipeline order
  // no matter when the worker finishes; input that arrives meanwhile defers
  // (see on_line), preserving dependent-command ordering — a `query` sent
  // after a `gen` still sees the generated graph.
  auto self = shared_from_this();
  admin_inflight_.store(true, std::memory_order_release);
  const bool queued =
      executor_.submit_task([self, slot, cmd, f = std::move(f)] {
        std::vector<std::string> lines;
        try {
          lines = self->run_sync(cmd, f);
        } catch (const std::invalid_argument& e) {
          lines.push_back(render_error(WireErrorCode::kBadRequest, e.what()));
        } catch (const std::exception& e) {
          lines.push_back(render_error(WireErrorCode::kInternal, e.what()));
        } catch (...) {
          lines.push_back(
              render_error(WireErrorCode::kInternal, "unknown exception"));
        }
        // Clear the gate before delivering: the deliver wakes the front
        // end's loop (via the sink), whose next tick replays the deferred
        // input without waiting out a poll period.
        self->admin_inflight_.store(false, std::memory_order_release);
        self->deliver(slot, std::move(lines));
      });
  if (!queued) {
    admin_inflight_.store(false, std::memory_order_release);
    obs::MetricsRegistry::instance().counter("service.shed").add(1);
    deliver_one(slot,
                render_error(WireErrorCode::kOverloaded,
                             "executor queue full; admin command shed",
                             retry_after_hint_ms()));
  }
}

std::vector<std::string> Session::run_sync(const std::string& cmd,
                                           const Fields& f) {
  std::vector<std::string> lines;
  if (cmd == "load" || cmd == "gen") {
    const std::string name = require(f, "name");
    std::shared_ptr<const Graph> graph;
    if (cmd == "load") {
      graph = registry_.load_file(name, require(f, "path"));
    } else {
      const std::int64_t n = get_int(f, "n", 1 << 16);
      if (n < 0 || n >= static_cast<std::int64_t>(kInvalidVertex)) {
        throw std::invalid_argument("n out of range: " + std::to_string(n));
      }
      graph = registry_.generate(
          name, require(f, "family"), static_cast<VertexId>(n),
          static_cast<std::uint64_t>(get_int(f, "seed", 0x5eed)));
    }
    JsonWriter w;
    w.field("ok", true);
    w.field("name", name);
    w.field("vertices", static_cast<std::uint64_t>(graph->num_vertices()));
    w.field("edges", graph->num_edges());
    w.field("bytes", static_cast<std::uint64_t>(graph->memory_bytes()));
    lines.push_back(w.str());
  } else if (cmd == "loadblocked") {
    // Registers an on-disk CSR (tools/csrpack output) behind the block
    // cache; the registry charge is the cache budget, not the CSR size.
    const std::string name = require(f, "name");
    storage::BlockCacheOptions copts;
    const std::int64_t budget = get_int(f, "budget", 0);
    if (budget > 0) copts.budget_bytes = static_cast<std::size_t>(budget);
    const std::int64_t block = get_int(f, "block", 0);
    if (block > 0) copts.block_bytes = static_cast<std::size_t>(block);
    const std::int64_t shards = get_int(f, "shards", 0);
    if (shards > 0) copts.shards = static_cast<std::size_t>(shards);
    const std::string policy = get(f, "policy", "");
    std::shared_ptr<const storage::BlockedGraph> graph;
    try {
      if (!policy.empty()) {
        copts.policy = storage::parse_eviction_policy(policy);
      }
      graph = registry_.open_blocked(name, require(f, "path"), copts);
    } catch (const storage::StorageError& e) {
      // A malformed file, bad cache knob, or unreadable path is the client's
      // input, not a server fault: surface it as kBadRequest.
      throw std::invalid_argument(e.what());
    }
    JsonWriter w;
    w.field("ok", true);
    w.field("name", name);
    w.field("vertices", static_cast<std::uint64_t>(graph->num_vertices()));
    w.field("edges", graph->num_edges());
    w.field("bytes", static_cast<std::uint64_t>(graph->memory_bytes()));
    w.field("csr_bytes", static_cast<std::uint64_t>(graph->csr_bytes()));
    w.field("blocked", true);
    lines.push_back(w.str());
  } else if (cmd == "metrics") {
    lines.push_back(
        render_metrics(obs::MetricsRegistry::instance().snapshot()));
  } else if (cmd == "trace") {
    const std::string path = require(f, "file");
    // First use turns tracing on, so a session can ask for a trace without
    // restarting under SMPST_TRACE; this drain is then empty and the next
    // one covers the load that follows.
    if (!obs::trace::enabled()) obs::trace::enable();
    std::size_t events = 0;
    const bool ok = obs::trace::write_chrome_trace_file(path, &events);
    JsonWriter w;
    w.field("ok", ok);
    w.field("file", path);
    w.field("events", static_cast<std::uint64_t>(events));
    lines.push_back(w.str());
  } else if (cmd == "list") {
    const auto entries = registry_.list();
    for (const auto& e : entries) lines.push_back(describe(e));
    lines.push_back(JsonWriter()
                        .field("ok", true)
                        .field("entries",
                               static_cast<std::uint64_t>(entries.size()))
                        .str());
  } else if (cmd == "evict") {
    lines.push_back(
        JsonWriter().field("ok", registry_.evict(require(f, "name"))).str());
  } else {
    throw std::invalid_argument("unknown command: " + cmd);
  }
  return lines;
}

}  // namespace smpst::service
