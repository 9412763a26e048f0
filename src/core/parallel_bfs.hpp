// Level-synchronous parallel BFS spanning tree — the strategy modern
// frameworks (Ligra, GBBS) use for the same problem, included as a
// present-day comparison point for the paper's asynchronous work-stealing
// design.
//
// All p threads cooperatively expand one BFS frontier at a time, separated by
// barriers. Two expansion directions exist per level:
//
//   * push — each thread grabs contiguous grains of the current frontier
//     from a shared cursor, claims unvisited neighbours with a CAS (unlike
//     the traversal algorithm's benign races, level-synchronous BFS needs
//     exact frontier membership), and appends discoveries to a per-thread
//     buffer. The p buffers are the next frontier's pieces as they are: the
//     cursor hands out grains over their concatenation, so no thread
//     gathers them.
//   * pull — each thread scans its *owned* contiguous vertex shard for
//     unvisited vertices and attaches each to any neighbour flagged in the
//     current frontier, stopping at the first hit. When the frontier is
//     dense, this replaces |frontier-edges| scattered CAS claims with an
//     early-exiting sequential scan — the direction-optimizing idea of
//     Beamer et al. surveyed in "Beyond BFS" (PAPERS.md).
//
// The default kAuto mode switches push→pull when the frontier is large on
// both axes — its edge count clears an absolute floor and an alpha-fraction
// of the unexplored edges, and its vertex count reaches n/beta — and
// pull→push when the frontier shrinks back below n/beta. Staying in pull
// only requires the vertex-count bar, so the entry/exit asymmetry on the
// edge axis is the hysteresis: a level that barely crossed the push→pull
// line does not flip straight back, and the direction changes at most a
// handful of times per component (direction_switches in the stats).
//
// A traversal is one pool region, and it writes the result forest's parent
// array directly. Worker 0 plans each level (root scan, cancel poll,
// direction) while the others wait at a SpinBarrier. Push levels of at most
// grain * p vertices it runs alone, as one FIFO like the sequential BFS, and
// hands the first wider level to the group. The barrier count is therefore
// O(diameter) only over levels wide enough to share — versus the paper's
// O(1) — which is the structural difference the comparison bench
// (ablate_levelsync) quantifies.
#pragma once

#include <cstdint>

#include "core/cancellation.hpp"
#include "core/instrumentation.hpp"
#include "core/spanning_forest.hpp"
#include "storage/graph_storage.hpp"

namespace smpst {

class ThreadPool;

struct ParallelBfsStats {
  std::uint64_t levels = 0;     ///< frontier expansions (== eccentricity + 1)
  std::uint64_t barriers = 0;   ///< SpinBarrier episodes
  std::uint64_t regions = 0;    ///< ThreadPool::run calls
  std::uint64_t max_frontier = 0;
  std::uint64_t push_levels = 0;  ///< levels expanded in push direction
  std::uint64_t pull_levels = 0;  ///< levels expanded in pull direction
  std::uint64_t direction_switches = 0;  ///< push↔pull transitions
  std::uint64_t solo_levels = 0;  ///< push levels worker 0 expanded alone
};

/// Expansion direction policy for the level loop.
enum class BfsDirection {
  kAuto,      ///< direction-optimizing: density-driven push↔pull + hysteresis
  kPushOnly,  ///< classic level-synchronous push (the pre-hybrid behaviour)
};

struct ParallelBfsOptions {
  std::size_t num_threads = 0;  ///< 0 = hardware_threads()
  /// Frontier vertices claimed per cursor grab; a push level of at most
  /// grain * p vertices is expanded by worker 0 alone (grain >= n makes
  /// every push level solo).
  std::size_t grain = 64;
  ParallelBfsStats* stats = nullptr;

  /// Polled once per level by worker 0 while it plans (before the level's
  /// direction is chosen, so push and pull levels observe it identically).
  /// Expiry stops every worker at the next barrier, and the caller then
  /// throws CancelledError.
  const CancelToken* cancel = nullptr;

  BfsDirection direction = BfsDirection::kAuto;
};

/// Spanning forest via level-synchronous parallel BFS over all components,
/// on either storage backend (storage/graph_storage.hpp).
template <storage::GraphStorage GS>
SpanningForest parallel_bfs_spanning_tree(const GS& g, ThreadPool& pool,
                                          const ParallelBfsOptions& opts);

/// As above on a fresh pool of opts.num_threads workers.
template <storage::GraphStorage GS>
SpanningForest parallel_bfs_spanning_tree(const GS& g,
                                          const ParallelBfsOptions& opts = {});

}  // namespace smpst
