// Barriers measured against SpinBarrier (sched/barrier.hpp) by the barrier
// ablation (ablate_barrier) and nothing else: no kernel uses them.
//
// BlockingBarrier trades latency for zero busy-wait; DisseminationBarrier
// has no single hot cache line. Both are reusable across any number of
// episodes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "support/assert.hpp"
#include "support/cacheline.hpp"
#include "support/thread_annotations.hpp"

namespace smpst {

/// Mutex + condition-variable barrier; no busy waiting.
class BlockingBarrier {
 public:
  explicit BlockingBarrier(std::size_t parties) : parties_(parties) {
    SMPST_CHECK(parties >= 1, "barrier needs at least one party");
  }

  void arrive_and_wait() {
    LockGuard<Mutex> lk(mutex_);
    const std::uint64_t gen = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      while (generation_ == gen) cv_.wait(mutex_);
    }
  }

  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }

 private:
  const std::size_t parties_;
  Mutex mutex_{lockdep::rank::kBarrier};
  CondVar cv_;
  std::size_t waiting_ SMPST_GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ SMPST_GUARDED_BY(mutex_) = 0;
};

/// Dissemination barrier (Hensgen–Finkel–Manber): log2(p) rounds in which
/// thread t signals thread (t + 2^k) mod p and waits for the signal from
/// (t - 2^k) mod p. No single hot cache line, O(log p) latency — the
/// structure the SIMPLE library's tree barriers approximate, included so the
/// barrier-cost term of the Helman–JáJá model can be measured against the
/// centralized SpinBarrier. Unlike the other barriers, callers must pass
/// their thread id.
class DisseminationBarrier {
 public:
  explicit DisseminationBarrier(std::size_t parties)
      : parties_(parties), flags_(parties), parity_(parties) {
    SMPST_CHECK(parties >= 1, "barrier needs at least one party");
    while ((std::size_t{1} << rounds_) < parties_) ++rounds_;
    SMPST_CHECK(rounds_ <= 32,
                "dissemination barrier supports up to 2^32 parties");
    for (auto& f : flags_) {
      for (auto& par : f->slot) {
        for (auto& s : par) s.store(false, std::memory_order_relaxed);
      }
    }
  }

  /// Every party must call with its unique tid in [0, parties).
  void arrive_and_wait(std::size_t tid) noexcept {
    SMPST_ASSERT(tid < parties_);
    const std::uint8_t parity = *parity_[tid];
    for (std::size_t k = 0; k < rounds_; ++k) {
      const std::size_t partner = (tid + (std::size_t{1} << k)) % parties_;
      flags_[partner]->slot[parity][k].store(true, std::memory_order_release);
      int spins = 0;
      while (!flags_[tid]->slot[parity][k].load(std::memory_order_acquire)) {
        if (++spins >= 64) {
          std::this_thread::yield();
          spins = 0;
        }
      }
      flags_[tid]->slot[parity][k].store(false, std::memory_order_relaxed);
    }
    *parity_[tid] ^= 1;
  }

  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }

 private:
  struct Flags {
    // slot[parity][round]: signal slot for this thread.
    std::atomic<bool> slot[2][32];
  };

  const std::size_t parties_;
  std::size_t rounds_ = 0;
  std::vector<Padded<Flags>> flags_;
  std::vector<Padded<std::uint8_t>> parity_;  // per-thread episode parity
};

}  // namespace smpst
