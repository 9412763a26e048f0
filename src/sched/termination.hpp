// Termination and starvation detection for the work-stealing traversal.
//
// PendingCounter tracks the number of queued-but-unprocessed vertices across
// all queues; it reaching zero is the exact (race-free) termination condition
// because a vertex is counted from the moment it is enqueued until its
// expansion finishes, so no in-flight work can be missed.
//
// PendingCredit keeps that counter off the per-vertex path. Each worker holds
// a private credit: the amount by which the shared count over-counts that
// worker's work. The invariant is shared == true pending + sum of credits,
// with every credit >= 0, so the shared count never reads drained while work
// exists. An expansion settles its delta out of credit and touches the shared
// line only for the excess; a worker flushes its credit when its own queue
// runs empty, before it claims a root, steals or sleeps. So the shared count
// is exact whenever every worker is idle, which is when the drain CAS reads
// it. The starvation check runs while one worker may still be busy, or
// preempted, holding credit; it subtracts the published credits.
//
// IdleGate implements the paper's condition-variable sleep protocol: an idle
// processor that fails to steal goes to sleep for a bounded duration; the
// number of simultaneous sleepers is observable so the caller can implement
// the paper's detection mechanism ("once the number of sleeping processors
// reaches a certain threshold, halt the SMP traversal and switch to SV").
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "support/thread_annotations.hpp"

namespace smpst {

class PendingCounter {
 public:
  void reset(std::int64_t value) noexcept {
    count_.store(value, std::memory_order_relaxed);
  }

  /// Called by a worker that consumed one item and produced `produced` items.
  void consumed_produced(std::int64_t produced) noexcept {
    count_.fetch_add(produced - 1, std::memory_order_acq_rel);
  }

  void add(std::int64_t delta) noexcept {
    count_.fetch_add(delta, std::memory_order_acq_rel);
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

  [[nodiscard]] bool drained() const noexcept { return value() <= 0; }

  /// Takes the drain: moves the count from 0 to 1, so until the caller
  /// releases that unit (or hands it to a new root) no other thread can see
  /// the counter drained. False if work is pending or another thread holds
  /// the drain.
  [[nodiscard]] bool try_take_drain() noexcept {
    std::int64_t expected = 0;
    return count_.compare_exchange_strong(expected, 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  }

 private:
  std::atomic<std::int64_t> count_{0};
};

/// One worker's private share of a PendingCounter (see the file comment).
/// Only its owner changes it. Any thread may read credit(): a sleeping
/// worker subtracts the others' credit from the shared count to tell work
/// that is really pending from credit a busy or preempted worker has not
/// returned yet. shared_updates() counts the RMWs the owner issued on the
/// shared line, flushes included.
class PendingCredit {
 public:
  /// The owner consumed one item and produced `produced`. Call before the
  /// produced items are published, exactly where
  /// PendingCounter::consumed_produced would be called: a leaf adds 1 to
  /// the credit, a parent pays its produced-1 out of it, and only the
  /// excess reaches the shared count.
  void consumed_produced(PendingCounter& shared,
                         std::int64_t produced) noexcept {
    const std::int64_t delta = produced - 1;
    const std::int64_t credit = credit_.load(std::memory_order_relaxed);
    if (delta <= credit) {
      credit_.store(credit - delta, std::memory_order_relaxed);
      return;
    }
    shared.add(delta - credit);
    credit_.store(0, std::memory_order_relaxed);
    ++shared_updates_;
  }

  /// Returns the credit to the shared count. Call when the owner's queue
  /// runs empty, before anything that reads the count or waits on it.
  void flush(PendingCounter& shared) noexcept {
    const std::int64_t credit = credit_.load(std::memory_order_relaxed);
    if (credit == 0) return;
    shared.add(-credit);
    credit_.store(0, std::memory_order_relaxed);
    ++shared_updates_;
  }

  [[nodiscard]] std::int64_t credit() const noexcept {
    return credit_.load(std::memory_order_relaxed);
  }

  /// Owner only.
  [[nodiscard]] std::uint64_t shared_updates() const noexcept {
    return shared_updates_;
  }

 private:
  std::atomic<std::int64_t> credit_{0};
  std::uint64_t shared_updates_ = 0;
};

class IdleGate {
 public:
  /// Sleeps the calling thread until notified or `timeout` elapses.
  /// Returns the number of sleepers (including the caller) observed at entry,
  /// which the caller compares against its starvation threshold.
  std::size_t sleep_for(std::chrono::microseconds timeout);

  /// Wakes all sleepers; one inline relaxed load when nobody sleeps, so a
  /// caller may notify after every expansion that publishes work.
  void notify_work() noexcept {
    if (sleepers_.load(std::memory_order_relaxed) != 0) wake_all();
  }

  [[nodiscard]] std::size_t sleepers() const noexcept {
    return sleepers_.load(std::memory_order_relaxed);
  }

 private:
  void wake_all() noexcept;

  std::atomic<std::size_t> sleepers_{0};
  Mutex mutex_{lockdep::rank::kIdleGate};
  CondVar cv_;
  std::uint64_t wake_epoch_ SMPST_GUARDED_BY(mutex_) = 0;
};

}  // namespace smpst
