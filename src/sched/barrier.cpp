#include "sched/barrier.hpp"

#include <thread>

#include "support/assert.hpp"

namespace smpst {

SpinBarrier::SpinBarrier(std::size_t parties) : parties_(parties) {
  SMPST_CHECK(parties >= 1, "barrier needs at least one party");
}

void SpinBarrier::arrive_and_wait() noexcept {
  const bool my_sense = !sense_.load(std::memory_order_relaxed);
  if (waiting_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    // Last arriver: reset the count and flip the sense to release everyone.
    waiting_.store(0, std::memory_order_relaxed);
    episodes_.fetch_add(1, std::memory_order_relaxed);
    sense_.store(my_sense, std::memory_order_release);
  } else {
    int spins = 0;
    while (sense_.load(std::memory_order_acquire) != my_sense) {
      if (++spins >= 64) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }
}

}  // namespace smpst
