// Software barriers.
//
// The paper's implementation uses the software barriers of SIMPLE (Bader &
// JáJá 1999). SpinBarrier is the equivalent sense-reversing centralized
// barrier; it counts a "barrier episode" so the Helman–JáJá B(n,p) term can
// be measured directly. The barriers it is measured against live with their
// one benchmark, in bench/ablation_barriers.hpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace smpst {

/// Centralized sense-reversing spin barrier. Spins with yield so it remains
/// live on oversubscribed machines.
class SpinBarrier {
 public:
  explicit SpinBarrier(std::size_t parties);

  /// Blocks until all parties arrive. Reusable across any number of episodes.
  void arrive_and_wait() noexcept;

  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }

  /// Completed barrier episodes (the B term of the cost model).
  [[nodiscard]] std::uint64_t episodes() const noexcept {
    return episodes_.load(std::memory_order_relaxed);
  }

 private:
  const std::size_t parties_;
  std::atomic<std::size_t> waiting_{0};
  std::atomic<bool> sense_{false};
  std::atomic<std::uint64_t> episodes_{0};
};

/// Barrier-synchronized OR-reduction across all parties: returns true iff
/// any thread voted true. Uses three barrier episodes; the third protects
/// the shared flag from being reset (by the next round's leader) while a
/// straggler is still reading it — without it, threads can disagree on a
/// loop-termination vote and deadlock the barrier group.
template <typename Barrier>
bool vote_or(Barrier& barrier, std::atomic<bool>& flag, std::size_t tid,
             bool vote) {
  if (tid == 0) flag.store(false, std::memory_order_relaxed);
  barrier.arrive_and_wait();
  if (vote) flag.store(true, std::memory_order_relaxed);
  barrier.arrive_and_wait();
  const bool result = flag.load(std::memory_order_relaxed);
  barrier.arrive_and_wait();
  return result;
}

}  // namespace smpst
