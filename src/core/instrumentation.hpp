// Execution statistics collected by the instrumented algorithm runs. These
// feed the Helman–JáJá cost-model tables (E11, E13, E14 in DESIGN.md): work
// balance per thread, steal traffic, duplicate claims from the benign
// races, barrier counts, and SV iteration counts.
#pragma once

#include <cstdint>
#include <vector>

namespace smpst {

struct ThreadStats {
  std::uint64_t vertices_processed = 0;  ///< dequeues expanded by this thread
  std::uint64_t edges_scanned = 0;
  std::uint64_t enqueues = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steals_succeeded = 0;
  std::uint64_t items_stolen = 0;
  std::uint64_t sleep_episodes = 0;
  // The two 32-bit counters keep ThreadStats at 64 bytes, one cache line.
  std::uint32_t roots_claimed = 0;  ///< extra components seeded by this thread
  /// RMWs this thread issued on the shared pending counter: credit excess
  /// and flushes (sched/termination.hpp PendingCredit) plus drain claims.
  /// At most one per expansion plus a few per idle episode.
  std::uint32_t pending_updates = 0;
};

struct TraversalStats {
  std::vector<ThreadStats> per_thread;

  double stub_seconds = 0.0;
  double traversal_seconds = 0.0;
  double fallback_seconds = 0.0;
  bool fallback_triggered = false;
  /// Shiloach–Vishkin iterations of the starvation fallback (0 when it did
  /// not run). 32 bits keep the struct's layout: it fills padding.
  std::uint32_t fallback_sv_iterations = 0;

  std::uint64_t stub_vertices = 0;

  /// Vertices expanded more than once because two processors raced to claim
  /// them (the paper's multiply-coloured vertices, "less than ten ... for a
  /// graph with millions of vertices"). Computed as total dequeues minus
  /// distinct *visited* vertices, saturating at zero — isolated or
  /// unreached vertices are never dequeued, so subtracting the full vertex
  /// count would underflow on disconnected graphs. Filled on both the
  /// normal and the starvation-fallback exits.
  std::uint64_t duplicate_expansions = 0;

  /// Vertices with a parent (the traversal's visited mark) when the
  /// traversal phase ended: n on a completed run, possibly fewer on a
  /// fallback run. The base the duplicate accounting subtracts.
  std::uint64_t colored_vertices = 0;

  [[nodiscard]] std::uint64_t total_processed() const noexcept {
    std::uint64_t total = 0;
    for (const auto& t : per_thread) total += t.vertices_processed;
    return total;
  }

  [[nodiscard]] std::uint64_t total_steals() const noexcept {
    std::uint64_t total = 0;
    for (const auto& t : per_thread) total += t.steals_succeeded;
    return total;
  }

  /// Measured T_M of the Helman–JáJá triple (model/cost_model.hpp): the
  /// busiest thread's dequeues plus edges scanned.
  [[nodiscard]] std::uint64_t max_thread_accesses() const noexcept {
    std::uint64_t max = 0;
    for (const auto& t : per_thread) {
      const std::uint64_t a = t.vertices_processed + t.edges_scanned;
      max = max < a ? a : max;
    }
    return max;
  }

  /// max/mean of per-thread processed counts; 1.0 == perfectly balanced.
  [[nodiscard]] double load_imbalance() const noexcept {
    if (per_thread.empty()) return 1.0;
    std::uint64_t max = 0;
    std::uint64_t sum = 0;
    for (const auto& t : per_thread) {
      max = max < t.vertices_processed ? t.vertices_processed : max;
      sum += t.vertices_processed;
    }
    if (sum == 0) return 1.0;
    const double mean =
        static_cast<double>(sum) / static_cast<double>(per_thread.size());
    return static_cast<double>(max) / mean;
  }
};

struct SvStats {
  std::uint64_t iterations = 0;
  std::uint64_t shortcut_passes = 0;  ///< total pointer-jumping passes
  std::uint64_t grafts = 0;
  std::uint64_t barriers = 0;
  double graft_seconds = 0.0;
  double shortcut_seconds = 0.0;
  double orient_seconds = 0.0;
};

}  // namespace smpst
