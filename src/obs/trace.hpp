// Lock-free tracing: per-thread fixed-capacity event rings behind macros
// that cost one relaxed atomic load when tracing is disabled (the same
// discipline as support/failpoint.hpp).
//
//   SMPST_TRACE_SCOPE("bc.traversal");    // complete event for this scope
//   SMPST_TRACE_INSTANT("bc.steal");      // zero-duration marker
//
// Hot-path contract:
//   - disabled: one relaxed load per macro hit, no allocation, no TLS ring
//     registration, no clock read;
//   - enabled: the emitting thread writes into its OWN ring (created lazily
//     on first emit) with plain relaxed atomic stores — no lock, no CAS, no
//     contention with other emitters. The ring never grows; when the writer
//     laps the drainer the oldest events are overwritten and counted as
//     dropped rather than blocking the traced code.
//
// Each slot is a per-slot seqlock (Boehm 2012): every field is a relaxed
// atomic, the writer brackets the payload with seq stores (odd = in
// progress, even = generation tag) and the drainer discards any slot whose
// seq changed across the payload read. Torn reads are therefore impossible
// to observe and the protocol is clean under ThreadSanitizer.
//
// Event names must be string literals (or otherwise immortal): the ring
// stores the pointer, not a copy. Names should be JSON-safe by convention
// (dotted lowercase, e.g. "query.compute"); the exporter escapes anyway.
//
// Draining (trace::drain, trace::write_chrome_trace*) serializes on a
// registry mutex and returns events accumulated since the previous drain.
// write_chrome_trace emits Chrome trace_event JSON loadable in
// about:tracing / Perfetto, one lane ("tid") per registered thread with a
// thread_name metadata record from label_current_thread().
//
// The SMPST_TRACE=<file> environment variable enables tracing before main()
// and writes the Chrome trace to <file> at process exit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace smpst::obs::trace {

namespace detail {
/// Process-wide gate. Relaxed: emitters only need to agree eventually, and
/// the macros must stay a single unordered load when tracing is off.
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// One drained event. `name` points at the caller's string literal.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;   ///< start time, ns since the trace epoch
  std::uint64_t dur_ns = 0;  ///< 0 for instants
  std::uint32_t lane = 0;    ///< stable per-thread lane id (Chrome "tid")
  char phase = 'X';          ///< 'X' complete, 'i' instant
};

struct Lane {
  std::uint32_t id = 0;
  std::string label;
};

/// True when tracing is enabled process-wide. Single relaxed load.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns tracing on. `events_per_thread` sizes rings registered from now on
/// (existing rings keep their capacity); 0 keeps the current setting
/// (default 8192 events/thread).
void enable(std::size_t events_per_thread = 0);

/// Turns tracing off. Already-buffered events stay drainable.
void disable();

/// Nanoseconds since the process trace epoch (first clock use).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Converts a steady_clock time point to trace-epoch nanoseconds (clamped
/// at 0 for pre-epoch points). Lets callers timestamp an event from a time
/// captured before the span is emitted, e.g. queue-wait start.
[[nodiscard]] std::uint64_t to_trace_ns(
    std::chrono::steady_clock::time_point tp) noexcept;

/// Emits a complete ('X') event on the calling thread's lane. No-op when
/// tracing is disabled. `name` must be immortal (string literal).
void emit_complete(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns) noexcept;

/// Emits an instant ('i') event stamped now. No-op when disabled.
void emit_instant(const char* name) noexcept;

/// Names the calling thread's lane, e.g. ("pool-worker", 3) -> "pool-worker-3"
/// or ("main") -> "main". `role` must be immortal (string literal). Cheap and
/// callable whether or not tracing is enabled; threads that never call it get
/// a default "thread-<lane>" label.
inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
void label_current_thread(const char* role,
                          std::size_t index = kNoIndex) noexcept;

/// Returns events buffered since the previous drain, sorted by start time.
/// Safe to call while emitters are running: in-progress or lapped slots are
/// skipped and counted as dropped.
[[nodiscard]] std::vector<TraceEvent> drain();

/// Every registered lane, in registration order.
[[nodiscard]] std::vector<Lane> lanes();

/// Events lost so far to ring wraparound or drain/write races.
[[nodiscard]] std::uint64_t dropped_events();

/// Drains and writes Chrome trace_event JSON ({"traceEvents":[...]}) with
/// thread_name metadata per lane. Timestamps are microseconds as Chrome
/// expects. Returns the number of events written.
std::size_t write_chrome_trace(std::ostream& os);

/// write_chrome_trace into `path`; `*events_out` (when non-null) receives the
/// event count. Returns false (leaving the events drained) when the file
/// cannot be opened or written.
bool write_chrome_trace_file(const std::string& path,
                             std::size_t* events_out = nullptr);

/// RAII span: captures the start time if tracing is enabled at entry and
/// emits a complete event at scope exit. Use via SMPST_TRACE_SCOPE.
class TraceScope {
 public:
  explicit TraceScope(const char* name) noexcept {
    if (enabled()) {
      name_ = name;
      start_ns_ = now_ns();
    }
  }
  ~TraceScope() {
    if (name_ != nullptr) emit_complete(name_, start_ns_, now_ns());
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

}  // namespace smpst::obs::trace

#define SMPST_TRACE_CONCAT2(a, b) a##b
#define SMPST_TRACE_CONCAT(a, b) SMPST_TRACE_CONCAT2(a, b)

/// Complete event covering the enclosing scope. `name` must be a literal.
#define SMPST_TRACE_SCOPE(name)                        \
  ::smpst::obs::trace::TraceScope SMPST_TRACE_CONCAT(  \
      smpst_trace_scope_, __LINE__)(name)

/// Zero-duration marker. `name` must be a literal.
#define SMPST_TRACE_INSTANT(name)                      \
  do {                                                 \
    if (::smpst::obs::trace::enabled()) {              \
      ::smpst::obs::trace::emit_instant(name);         \
    }                                                  \
  } while (0)
