// Cooperative cancellation for long-running traversals.
//
// A CancelToken carries an explicit cancel flag plus an optional wall-clock
// deadline. Algorithm loops poll expired() at safe points (every 64
// expansions for the asynchronous traversal, each level for level-synchronous
// BFS, every few thousand for the sequential baselines) and abandon the partial
// result by throwing CancelledError, which the serving layer maps to a
// timed-out QueryResult. Polling is cooperative: an algorithm that never
// polls simply runs to completion and the caller applies the deadline after
// the fact.
#pragma once

#include <atomic>
#include <chrono>
#include <stdexcept>

namespace smpst {

/// Thrown by a traversal that observed its token expire mid-run.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("query cancelled") {}
};

class CancelToken {
 public:
  CancelToken() = default;

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Explicit cancellation, independent of any deadline.
  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_release);
  }

  /// Arms the deadline; expired() starts comparing against the steady clock.
  void set_deadline(std::chrono::steady_clock::time_point d) noexcept {
    deadline_ = d;
    has_deadline_.store(true, std::memory_order_release);
  }

  [[nodiscard]] bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// True once the token is cancelled or the armed deadline has passed. The
  /// deadline branch reads the clock (~tens of ns); hot loops amortize calls
  /// with a local counter.
  [[nodiscard]] bool expired() const noexcept {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    if (!has_deadline_.load(std::memory_order_acquire)) return false;
    return std::chrono::steady_clock::now() >= deadline_;
  }

  /// Throws CancelledError when expired; a convenience for sequential loops.
  void poll() const {
    if (expired()) throw CancelledError();
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace smpst
