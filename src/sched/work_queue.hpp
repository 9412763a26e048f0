// Work-stealing queues for the traversal step.
//
// SplitQueue is the queue from the paper: each processor owns a FIFO queue of
// frontier vertices; an idle processor locks a victim's queue and "steals part
// of the queue" — here the front portion, which holds the oldest frontier
// vertices and therefore (in BFS order) the largest unexplored subtrees. A
// spinlock per queue is cheap because steals only happen when the thief has
// nothing else to do, and idle thieves probe a victim through a lock-free
// size hint, so only an actual steal takes the owner's lock.
//
// ChaseLevDeque is a lock-free alternative (owner LIFO bottom, thieves FIFO
// top, one element per steal) included for the steal-granularity ablation.
#pragma once

#include <atomic>
#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "obs/trace.hpp"
#include "sched/spinlock.hpp"
#include "support/assert.hpp"
#include "support/cacheline.hpp"
#include "support/failpoint.hpp"
#include "support/thread_annotations.hpp"

namespace smpst {

template <typename T>
class SplitQueue {
 public:
  SplitQueue() = default;

  void reserve(std::size_t n) {
    LockGuard<SpinLock> lk(lock_);
    buf_.reserve(n);
  }

  /// Owner: append one element at the back.
  void push(const T& value) {
    LockGuard<SpinLock> lk(lock_);
    buf_.push_back(value);
    publish_size();
  }

  /// Owner: append many elements at the back.
  void push_bulk(const T* values, std::size_t count) {
    LockGuard<SpinLock> lk(lock_);
    buf_.insert(buf_.end(), values, values + count);
    publish_size();
  }

  /// Owner: remove the front element (BFS order). Returns false when empty.
  /// When `next_hint` is non-null and another element remains after the pop,
  /// the new front is copied into it (left untouched otherwise) — a free
  /// peek, taken under the same lock acquisition, that lets the caller
  /// prefetch the next item's data while processing the popped one.
  bool pop(T& out, T* next_hint = nullptr) {
    // Fault site before the lock and before any element moves: a throw or
    // delay here leaves every queued vertex in place for thieves.
    SMPST_FAILPOINT("sched.work_queue.pop");
    LockGuard<SpinLock> lk(lock_);
    if (head_ == buf_.size()) return false;
    out = buf_[head_++];
    if (next_hint != nullptr && head_ < buf_.size()) *next_hint = buf_[head_];
    maybe_compact();
    publish_size();
    return true;
  }

  /// Thief: move up to `max_take` elements from the front into `out`.
  /// Returns the number taken. Never blocks on the thief's own queue, so
  /// steals cannot deadlock.
  std::size_t steal(std::vector<T>& out, std::size_t max_take) {
    SMPST_FAILPOINT("sched.work_queue.steal");
    LockGuard<SpinLock> lk(lock_);
    const std::size_t avail = buf_.size() - head_;
    const std::size_t take = std::min(avail, max_take);
    out.insert(out.end(), buf_.begin() + static_cast<std::ptrdiff_t>(head_),
               buf_.begin() + static_cast<std::ptrdiff_t>(head_ + take));
    head_ += take;
    maybe_compact();
    publish_size();
    return take;
  }

  /// Any thread, without the lock: the element count as of the last
  /// completed operation. Exact when no other thread is using the queue;
  /// otherwise possibly stale by the time the caller acts on it, which is
  /// why steal() re-checks under the lock.
  [[nodiscard]] std::size_t size_hint() const {
    return size_hint_.load(std::memory_order_relaxed);
  }

  void clear() {
    LockGuard<SpinLock> lk(lock_);
    buf_.clear();
    head_ = 0;
    publish_size();
  }

 private:
  void maybe_compact() SMPST_REQUIRES(lock_) {
    // Reclaim the dead prefix once it dominates the buffer.
    if (head_ > 64 && head_ * 2 > buf_.size()) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  void publish_size() SMPST_REQUIRES(lock_) {
    size_hint_.store(buf_.size() - head_, std::memory_order_relaxed);
  }

  // Written only under lock_ (publish_size), read by anyone; it shares
  // the lock's cache line, which the owner holds while writing it.
  std::atomic<std::size_t> size_hint_{0};
  SpinLock lock_{lockdep::rank::kWorkQueue};
  std::vector<T> buf_ SMPST_GUARDED_BY(lock_);
  std::size_t head_ SMPST_GUARDED_BY(lock_) = 0;
};

/// Lock-free work-stealing deque (Chase & Lev; fences after Le et al. 2013).
/// The owner pushes/pops at the bottom; thieves steal single elements from
/// the top. T must be trivially copyable.
template <typename T>
class ChaseLevDeque {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit ChaseLevDeque(std::size_t initial_capacity = 1024)
      : buffer_(new Buffer(round_up(initial_capacity))) {}

  ~ChaseLevDeque() {
    delete buffer_.load(std::memory_order_relaxed);
    for (Buffer* b : retired_) delete b;
  }

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  /// Owner only.
  void push(T value) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(buf->capacity) - 1) {
      buf = grow(buf, t, b);
    }
    buf->put(b, value);
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_relaxed);
  }

  /// Owner only. Returns false when empty.
  bool pop(T& out) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    // seq_cst fence: the bottom store must be globally ordered before the
    // top load (Le et al. 2013, Fig. 8) — acquire/release admits a double
    // pop where owner and thief both take the last element.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    out = buf->get(b);
    if (t == b) {
      // Last element: race against thieves via CAS on top.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        bottom_.store(b + 1, std::memory_order_relaxed);
        return false;
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return true;
  }

  /// Any thread. Returns false when empty or lost a race.
  bool steal(T& out) {
    std::int64_t t = top_.load(std::memory_order_acquire);
    // seq_cst fence: pairs with the owner's fence in pop() so thief and
    // owner agree on the order of the top/bottom accesses (Le et al. 2013).
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return false;
    // acquire (not consume: deprecated, and compilers promote it anyway) so
    // the grow()'s release store makes the new buffer's cells visible.
    Buffer* buf = buffer_.load(std::memory_order_acquire);
    out = buf->get(t);
    if (top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                     std::memory_order_relaxed)) {
      // After the CAS: the element is owned, so the marker only fires for
      // real steals and sits off the contended retry path.
      SMPST_TRACE_INSTANT("deque.steal");
      return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t size_estimate() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

  [[nodiscard]] bool empty() const { return size_estimate() == 0; }

  /// Smallest power of two >= n (minimum 8), saturating at the largest
  /// power of two representable in size_t. Public and static so the
  /// saturation is unit-testable: the pre-fix version looped forever once
  /// `c <<= 1` wrapped to zero for n above 2^63.
  static constexpr std::size_t round_up(std::size_t n) noexcept {
    constexpr std::size_t kMaxPow2 =
        std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
    if (n > kMaxPow2) return kMaxPow2;
    std::size_t c = 8;
    while (c < n) c <<= 1;
    return c;
  }

 private:
  struct Buffer {
    explicit Buffer(std::size_t cap)
        : capacity(cap), data(new std::atomic<T>[cap]) {}
    ~Buffer() { delete[] data; }

    // Cells are atomic with relaxed ordering (Le et al. 2013): a thief may
    // read a cell the owner is concurrently overwriting; the CAS on top_
    // rejects the stale value, but the access itself must not be a race.
    [[nodiscard]] T get(std::int64_t i) const {
      return data[static_cast<std::size_t>(i) & (capacity - 1)].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, T v) {
      data[static_cast<std::size_t>(i) & (capacity - 1)].store(
          v, std::memory_order_relaxed);
    }

    const std::size_t capacity;  // power of two
    std::atomic<T>* data;
  };

  Buffer* grow(Buffer* old, std::int64_t t, std::int64_t b) {
    // Doubling past the largest representable power of two would wrap the
    // capacity to zero and corrupt the index mask; a deque that large is a
    // caller bug (the element count alone would exceed the address space).
    SMPST_CHECK(
        old->capacity <= std::numeric_limits<std::size_t>::max() / 2,
        "ChaseLevDeque capacity overflow: cannot double further");
    auto* bigger = new Buffer(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    buffer_.store(bigger, std::memory_order_release);
    // Thieves may still be reading the old buffer; retire it until the deque
    // itself dies instead of freeing immediately.
    retired_.push_back(old);
    return bigger;
  }

  alignas(kCacheLineSize) std::atomic<std::int64_t> top_{0};
  alignas(kCacheLineSize) std::atomic<std::int64_t> bottom_{0};
  alignas(kCacheLineSize) std::atomic<Buffer*> buffer_;
  std::vector<Buffer*> retired_;  // owner-only
};

}  // namespace smpst
