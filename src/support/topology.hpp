// CPU/NUMA topology discovery and NUMA-aware memory placement.
//
// Everything placement-related starts from the process's *allowed* CPU set
// (sched_getaffinity), not from std::thread::hardware_concurrency(): under
// taskset or a cgroup cpuset the two differ, and placing threads by raw
// hardware index silently pins them outside the container's share — the bug
// this module replaces (src/support/cpu.cpp history). On top of the allowed
// set it discovers the NUMA node of each CPU from sysfs, with a graceful
// single-node fallback on hosts (or platforms) where that information is
// unavailable, so callers can shard data and steal-probe by socket without
// ever needing libnuma.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace smpst {

/// Snapshot of the CPUs this process may run on, grouped by NUMA node.
///
/// The slot order is the placement contract used across the library:
/// `ThreadPool` pins worker t to `cpu_of_slot(t)`, and the steal policy
/// derives its intra-node victim sets from `node_of_slot`. Grouping by node
/// (all of node A's allowed CPUs first, ascending, then node B's, ...) makes
/// contiguous worker ranges land on the same socket, so a pull level's
/// contiguous vertex shards are scanned by workers of one socket each. No
/// traversal first-touches its arrays per shard: the calling thread fills
/// the forest's parent array and so places it.
struct CpuTopology {
  /// Allowed CPU ids, grouped by node, ascending within each node.
  std::vector<int> cpus;
  /// NUMA node of cpus[i] (same length as `cpus`).
  std::vector<int> nodes;
  /// Distinct NUMA nodes among the allowed CPUs (>= 1 once discovered).
  std::size_t num_nodes = 1;

  /// Fresh snapshot: sched_getaffinity + cached sysfs node map. Never fails —
  /// on error (or off Linux) it degrades to a single node holding one CPU per
  /// hardware context.
  static CpuTopology discover();

  /// Explicit topology for tests: `cpu_ids[i]` lives on `node_ids[i]`.
  /// Regroups by node exactly as discover() would.
  static CpuTopology from_cpus(const std::vector<int>& cpu_ids,
                               const std::vector<int>& node_ids);

  [[nodiscard]] std::size_t size() const noexcept { return cpus.size(); }
  [[nodiscard]] bool slot_valid(std::size_t slot) const noexcept {
    return slot < cpus.size();
  }
  [[nodiscard]] int cpu_of_slot(std::size_t slot) const noexcept {
    return cpus[slot];
  }
  [[nodiscard]] int node_of_slot(std::size_t slot) const noexcept {
    return nodes[slot];
  }
};

/// Process-lifetime cache of discover() from first use. Callers that must
/// observe affinity-mask changes made *after* first use (the restricted-mask
/// tests, thread pinning) should call CpuTopology::discover() directly.
const CpuTopology& topology();

/// Best-effort MPOL_INTERLEAVE of the pages covering [addr, addr + bytes)
/// across all NUMA nodes of the allowed set, migrating already-faulted pages
/// (so it works on arrays that were filled before the call — the CSR arrays a
/// generator built single-threaded). Returns true when the range is
/// interleaved or there is nothing to do (single node, empty range); false
/// when the kernel refused. Raw mbind(2) syscall — no libnuma dependency.
bool interleave_memory(const void* addr, std::size_t bytes);

}  // namespace smpst
