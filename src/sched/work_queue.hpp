// Work-stealing queue for the traversal step.
//
// SplitQueue is the queue from the paper: each processor owns a FIFO queue of
// frontier vertices; an idle processor locks a victim's queue and "steals part
// of the queue" — here the front portion, which holds the oldest frontier
// vertices and therefore (in BFS order) the largest unexplored subtrees. A
// spinlock per queue is cheap because steals only happen when the thief has
// nothing else to do, and idle thieves probe a victim through a lock-free
// size hint, so only an actual steal takes the owner's lock.
//
// The queue is a power-of-two ring of monotonically increasing head and tail
// indices. It starts small and doubles under the lock, so its size follows
// the live frontier rather than the graph. The owner writes new elements
// into the slots past the published tail without the lock (tail_slots);
// thieves never read there. One lock acquisition then publishes a batch of
// them and takes the owner's next batch (publish_and_pop_batch), so a
// Bader–Cong worker pays one lock round trip per batch of expansions. That
// acquisition is also the full fence between claiming a vertex and
// expanding it that the traversal's parent check-then-set needs
// (docs/CONCURRENCY.md).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "sched/spinlock.hpp"
#include "support/assert.hpp"
#include "support/failpoint.hpp"
#include "support/thread_annotations.hpp"

namespace smpst {

template <typename T>
class SplitQueue {
 public:
  static constexpr std::size_t kInitialCapacity = 1024;

  /// Writable slots past the published tail, starting after the slots the
  /// owner has already written there. Valid until the owner's next queue
  /// call.
  class TailSlots {
   public:
    T& operator[](std::size_t i) const noexcept {
      return buf_[(first_ + i) & mask_];
    }

   private:
    friend class SplitQueue;
    TailSlots(T* buf, std::size_t mask, std::size_t first) noexcept
        : buf_(buf), mask_(mask), first_(first) {}
    T* buf_;
    std::size_t mask_;
    std::size_t first_;
  };

  SplitQueue() : SplitQueue(kInitialCapacity) {}

  /// `initial_capacity` is rounded up to a power of two. Slots are left
  /// uninitialized: every slot is written before it is published.
  explicit SplitQueue(std::size_t initial_capacity)
      : mask_(std::bit_ceil(std::max<std::size_t>(initial_capacity, 2)) - 1),
        buf_(new T[mask_ + 1]),
        room_(mask_ + 1) {}

  /// Owner: room for `count` elements past the `skip` slots already written
  /// past the published tail since the last publish. Thieves cannot see any
  /// of these slots until publish() or publish_and_pop_batch() moves the
  /// tail over them. Takes the lock only when the ring must grow; a growth
  /// carries the `skip` written slots along.
  TailSlots tail_slots(std::size_t skip, std::size_t count) {
    if (skip + count > room_) [[unlikely]] grow_for(skip, count);
    return TailSlots(buf_.get(), mask_, tail_ + skip);
  }

  /// Owner: publishes the first `k` tail slots.
  void publish(std::size_t k) {
    LockGuard<SpinLock> lk(lock_);
    tail_ += k;
    note_owner_op();
  }

  /// Owner: publishes the first `k` tail slots, then moves up to `max`
  /// elements from the front into `out`, under one lock acquisition. Takes
  /// at most half the queue, rounded up, so thieves always find the rest.
  /// Returns the number taken: 0 only when the queue is empty.
  std::size_t publish_and_pop_batch(std::size_t k, T* out, std::size_t max) {
    // Fault site before the lock and before any element moves: a throw
    // here leaves every published element in place for thieves.
    SMPST_FAILPOINT("sched.work_queue.pop");
    LockGuard<SpinLock> lk(lock_);
    tail_ += k;
    const std::size_t size = tail_ - head_;
    const std::size_t take = std::min(max, size - size / 2);
    for (std::size_t i = 0; i < take; ++i) out[i] = buf_[(head_ + i) & mask_];
    head_ += take;
    note_owner_op();
    return take;
  }

  /// Owner: append one element at the back.
  void push(const T& value) { push_bulk(&value, 1); }

  /// Owner: append many elements at the back.
  void push_bulk(const T* values, std::size_t count) {
    const TailSlots slots = tail_slots(0, count);
    for (std::size_t i = 0; i < count; ++i) slots[i] = values[i];
    publish(count);
  }

  /// Owner: remove the front element (BFS order). Returns false when empty.
  bool pop(T& out) { return publish_and_pop_batch(0, &out, 1) == 1; }

  /// Thief: move up to `max_take` elements from the front into `out`.
  /// Returns the number taken. Never blocks on the thief's own queue, so
  /// steals cannot deadlock.
  std::size_t steal(std::vector<T>& out, std::size_t max_take) {
    SMPST_FAILPOINT("sched.work_queue.steal");
    LockGuard<SpinLock> lk(lock_);
    const std::size_t take = std::min(tail_ - head_, max_take);
    // The taken run wraps at most once: copy it as two contiguous pieces.
    const std::size_t first = head_ & mask_;
    const std::size_t piece = std::min(take, mask_ + 1 - first);
    const T* buf = buf_.get();
    out.insert(out.end(), buf + first, buf + first + piece);
    out.insert(out.end(), buf, buf + (take - piece));
    head_ += take;
    size_hint_.store(tail_ - head_, std::memory_order_relaxed);
    return take;
  }

  /// Any thread, without the lock: the element count as of the last
  /// completed operation. Exact when no other thread is using the queue;
  /// otherwise possibly stale by the time the caller acts on it, which is
  /// why steal() re-checks under the lock.
  [[nodiscard]] std::size_t size_hint() const {
    return size_hint_.load(std::memory_order_relaxed);
  }

  /// Owner: the number of slots the ring holds.
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Owner: drop every published element.
  void clear() {
    LockGuard<SpinLock> lk(lock_);
    head_ = tail_;
    note_owner_op();
  }

 private:
  /// Publishes the size and refreshes the owner's room after any operation
  /// the owner makes under the lock.
  void note_owner_op() SMPST_REQUIRES(lock_) {
    const std::size_t size = tail_ - head_;
    size_hint_.store(size, std::memory_order_relaxed);
    room_ = mask_ + 1 - size;
  }

  /// Doubles the ring until `skip + count` slots fit past the published
  /// tail, moving each published element, and each of the `skip` written
  /// past the tail, to the slot its index maps to in the new ring. Out of
  /// line: it runs a few times per traversal, and inlined it would bloat
  /// every owner path that may grow.
  [[gnu::noinline]] void grow_for(std::size_t skip, std::size_t count) {
    LockGuard<SpinLock> lk(lock_);
    const std::size_t size = tail_ - head_;
    const std::size_t old_cap = mask_ + 1;
    std::size_t cap = old_cap;
    while (cap - size < skip + count) {
      SMPST_CHECK(cap <= std::numeric_limits<std::size_t>::max() / 2,
                  "SplitQueue capacity overflow: cannot double further");
      cap *= 2;
    }
    if (cap != old_cap) {
      std::unique_ptr<T[]> bigger(new T[cap]);
      for (std::size_t i = head_; i != tail_ + skip; ++i) {
        bigger[i & (cap - 1)] = buf_[i & mask_];
      }
      buf_ = std::move(bigger);
      mask_ = cap - 1;
    }
    note_owner_op();
  }

  // Written only under lock_, read by anyone; it shares the lock's cache
  // line, which the owner holds while writing it.
  std::atomic<std::size_t> size_hint_{0};
  SpinLock lock_{lockdep::rank::kWorkQueue};
  // mask_, buf_ and tail_ change only by the owner, under lock_. So the
  // owner may read them without the lock, and thieves read them under it.
  std::size_t mask_;
  std::unique_ptr<T[]> buf_;
  std::size_t tail_ = 0;
  std::size_t head_ SMPST_GUARDED_BY(lock_) = 0;
  // Owner only: free slots as of the owner's last locked operation. Steals
  // only add room, so it never over-states what tail_slots may write.
  std::size_t room_;
};

}  // namespace smpst
