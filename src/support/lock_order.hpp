// Runtime lock-order (deadlock) detection for the smpst lock wrappers.
//
// Every smpst::Mutex / smpst::SpinLock carries an optional *rank* — a small
// integer naming its place in the global acquisition order. The rule is
// strict: a thread may only acquire a mutex whose rank is greater than the
// rank of every mutex it already holds. Violations print the full held-lock
// stack and abort, turning "TSan-clean but deadlock-prone" orderings into a
// deterministic test failure long before the interleaving that actually
// deadlocks shows up.
//
// Unranked mutexes (and same-rank pairs, which the rank rule already rejects
// for *ranked* locks) fall back to a dynamic pair-order registry: the first
// observed acquisition order A→B is recorded, and a later B→A nesting on any
// thread aborts. This is the classic lockdep scheme — it catches inversions
// even when the two threads never race on the same run.
//
// Cost model: the layer only exists when SMPST_LOCK_ORDER_CHECKS is defined
// to 1 (CMake option SMPST_LOCK_ORDER, default ON for Debug builds). When
// off, Tracked is an empty [[no_unique_address]] member and every note_*()
// call is an empty inline function: sizeof(Mutex) == sizeof(std::mutex) and
// the lock fast path is untouched — asserted by tests/test_lock_order.cpp.
//
// The canonical rank table lives in docs/CONCURRENCY.md; the static
// counterpart of this check is tools/analyze/smpst_analyze.py rule SA3,
// which extracts the acquisition graph at analysis time.
#pragma once

#include <cstddef>
#include <cstdint>

#ifndef SMPST_LOCK_ORDER_CHECKS
#define SMPST_LOCK_ORDER_CHECKS 0
#endif

namespace smpst::lockdep {

/// A mutex's place in the global acquisition order. order == 0 means
/// "unranked": the mutex participates only in the dynamic pair registry.
struct Rank {
  std::uint16_t order = 0;
  const char* name = nullptr;
};

// The global acquisition order. Nested acquisitions must move strictly down
// this table (increasing order). Two locks of the same rank never nest —
// instances of the same class (sessions, cache shards, queue spinlocks) are
// only ever held one at a time. Gaps are deliberate headroom for new locks.
namespace rank {
inline constexpr Rank kPoolRegion{10, "sched.pool.region"};
inline constexpr Rank kSession{20, "service.session"};
inline constexpr Rank kNetMailbox{30, "net.mailbox"};
inline constexpr Rank kExecutorDrain{42, "service.executor.drain"};
inline constexpr Rank kBoundedQueue{50, "service.bounded_queue"};
inline constexpr Rank kGraphRegistry{55, "service.graph_registry"};
inline constexpr Rank kStorageCacheShard{57, "storage.block_cache.shard"};
inline constexpr Rank kPoolState{60, "sched.pool.state"};
inline constexpr Rank kBarrier{64, "sched.barrier"};
inline constexpr Rank kIdleGate{66, "sched.idle_gate"};
inline constexpr Rank kWorkQueue{70, "sched.work_queue"};
inline constexpr Rank kFailpoint{80, "support.failpoint"};
inline constexpr Rank kMetrics{90, "obs.metrics"};
inline constexpr Rank kTrace{95, "obs.trace"};
}  // namespace rank

#if SMPST_LOCK_ORDER_CHECKS

inline constexpr bool kEnabled = true;

/// Order check against the calling thread's held-lock stack. Called before
/// a *blocking* acquisition (so a real inversion reports instead of
/// deadlocking); aborts with a full report on violation.
void before_lock(const void* m, Rank r) noexcept;

/// Push onto the held stack after a blocking acquisition succeeds.
void locked(const void* m, Rank r) noexcept;

/// Push after a successful try_lock. No order check: a try_lock never
/// blocks, so it cannot complete a deadlock cycle on its own; the pair
/// registry still learns the nesting for later blocking acquisitions.
void try_locked(const void* m, Rank r) noexcept;

/// Pop from the held stack (out-of-order unlock is supported).
void released(const void* m) noexcept;

/// Purge a destroyed mutex from the pair registry so a new mutex reusing
/// the address does not inherit stale edges.
void destroyed(const void* m) noexcept;

/// Number of locks the calling thread currently holds (test hook).
std::size_t held_count() noexcept;

class Tracked {
 public:
  constexpr Tracked() noexcept = default;
  constexpr explicit Tracked(Rank r) noexcept : rank_(r) {}
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { destroyed(this); }

  void note_before_lock() noexcept { before_lock(this, rank_); }
  void note_locked() noexcept { locked(this, rank_); }
  void note_try_locked() noexcept { try_locked(this, rank_); }
  void note_unlock() noexcept { released(this); }

 private:
  Rank rank_{};
};

#else  // !SMPST_LOCK_ORDER_CHECKS

inline constexpr bool kEnabled = false;

inline std::size_t held_count() noexcept { return 0; }

/// Empty shell: as a [[no_unique_address]] member it occupies no storage and
/// every call compiles to nothing.
class Tracked {
 public:
  constexpr Tracked() noexcept = default;
  constexpr explicit Tracked(Rank) noexcept {}
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;

  void note_before_lock() noexcept {}
  void note_locked() noexcept {}
  void note_try_locked() noexcept {}
  void note_unlock() noexcept {}
};

#endif  // SMPST_LOCK_ORDER_CHECKS

}  // namespace smpst::lockdep
