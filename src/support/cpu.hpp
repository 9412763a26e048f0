// CPU accounting and best-effort thread placement, both derived from the
// process's *allowed* CPU set (support/topology.hpp) rather than the raw
// hardware count — the two differ under taskset/cgroup restriction, and
// honouring the mask is what keeps pool sizing and pinning inside the
// container's share.
#pragma once

#include <cstddef>

namespace smpst {

/// Number of execution contexts this process is allowed to run on (>= 1):
/// CPU_COUNT of the affinity mask, re-read on every call so runtime mask
/// changes are observed. Falls back to hardware_concurrency() where the mask
/// is unavailable. Default pool sizing uses this, so a 4-CPU cgroup slice on
/// a 64-core host gets 4 workers, not 64.
std::size_t hardware_threads() noexcept;

/// The size of the pool a kernel builds for itself: `num_threads`, or
/// hardware_threads() when it is 0 (every options struct's "auto").
std::size_t threads_or_hardware(std::size_t num_threads) noexcept;

/// Pins the calling thread to placement slot `slot`: the slot-th CPU of the
/// allowed set in topology order (grouped by NUMA node — see
/// CpuTopology). Returns false honestly when the slot cannot be honoured —
/// `slot` is beyond the allowed-CPU count, or the affinity call itself
/// failed — instead of silently wrapping onto an arbitrary context. Callers
/// (ThreadPool) surface failures; they do not hide them.
bool pin_current_thread(std::size_t slot) noexcept;

}  // namespace smpst
