#include "support/cpu.hpp"

#include <thread>

#include "support/topology.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace smpst {

std::size_t hardware_threads() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
#endif
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t threads_or_hardware(std::size_t num_threads) noexcept {
  return num_threads != 0 ? num_threads : hardware_threads();
}

bool pin_current_thread(std::size_t slot) noexcept {
#if defined(__linux__)
  // Fresh snapshot, not the process-lifetime cache: pinning must honour the
  // mask as it is *now* (tests narrow it at runtime; so do cgroup resizes).
  const CpuTopology topo = CpuTopology::discover();
  if (!topo.slot_valid(slot)) return false;  // more workers than allowed CPUs
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(topo.cpu_of_slot(slot), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)slot;
  return false;
#endif
}

}  // namespace smpst
