#include "sched/termination.hpp"

#include "support/failpoint.hpp"

namespace smpst {

std::size_t IdleGate::sleep_for(std::chrono::microseconds timeout) {
  const std::size_t observed =
      sleepers_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // Spurious-wakeup injection ("wake" action): return immediately, exactly as
  // if the condition variable woke without a notify. The starvation detector
  // must tolerate this — the sleeper count was still published.
  bool spurious = false;
  try {
    spurious = SMPST_FAILPOINT_TRIGGERED("sched.termination.sleep");
  } catch (...) {
    sleepers_.fetch_sub(1, std::memory_order_acq_rel);
    throw;
  }
  if (!spurious) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    LockGuard<Mutex> lk(mutex_);
    const std::uint64_t epoch = wake_epoch_;
    while (wake_epoch_ == epoch &&
           cv_.wait_until(mutex_, deadline) != std::cv_status::timeout) {
    }
  }
  sleepers_.fetch_sub(1, std::memory_order_acq_rel);
  return observed;
}

void IdleGate::wake_all() noexcept {
  {
    LockGuard<Mutex> lk(mutex_);
    ++wake_epoch_;
  }
  cv_.notify_all();
}

}  // namespace smpst
