// Bounded MPMC blocking queue — the admission-control buffer between request
// producers (submit() callers) and the executor's worker threads.
//
// Unlike sched/work_queue.hpp's SplitQueue (single-owner, steal-from-front,
// built for the traversal inner loop), this queue is a classic
// mutex-and-condvar channel: any thread may push, any thread may pop, and
// capacity is a hard bound — try_push never blocks, it reports "full" so the
// service can shed load instead of queueing unboundedly.
#pragma once

#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "support/failpoint.hpp"
#include "support/thread_annotations.hpp"

namespace smpst::service {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking enqueue. Returns false (and leaves `item` untouched) when
  /// the queue is full or closed.
  bool try_push(T&& item) {
    // Fault site before the item moves: a throw leaves `item` with the
    // caller.
    SMPST_FAILPOINT("service.bounded_queue.push");
    {
      LockGuard<Mutex> lk(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// All-or-nothing bulk enqueue: either every item fits (and `items` is
  /// moved from) or none is taken. Backs the executor's admission.
  bool try_push_all(std::vector<T>& items) {
    // Fault site before the items move: a throw leaves them with the caller,
    // who can still answer them. The executor's admission relies on this.
    SMPST_FAILPOINT("service.bounded_queue.push");
    {
      LockGuard<Mutex> lk(mutex_);
      if (closed_ || items_.size() + items.size() > capacity_) return false;
      for (T& item : items) items_.push_back(std::move(item));
    }
    cv_.notify_all();
    return true;
  }

  /// Blocking dequeue. Returns false once the queue is closed *and* drained;
  /// items pushed before close() are still delivered.
  bool pop(T& out) {
    SMPST_FAILPOINT("service.bounded_queue.pop");
    LockGuard<Mutex> lk(mutex_);
    while (!closed_ && items_.empty()) cv_.wait(mutex_);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  /// Stops admissions and wakes every blocked consumer.
  void close() {
    {
      LockGuard<Mutex> lk(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    LockGuard<Mutex> lk(mutex_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] bool closed() const {
    LockGuard<Mutex> lk(mutex_);
    return closed_;
  }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_{lockdep::rank::kBoundedQueue};
  CondVar cv_;
  std::deque<T> items_ SMPST_GUARDED_BY(mutex_);
  bool closed_ SMPST_GUARDED_BY(mutex_) = false;
};

}  // namespace smpst::service
