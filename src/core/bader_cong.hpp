// The paper's new randomized spanning tree algorithm for SMPs.
//
// Phase 1 (stub spanning tree): one processor random-walks the graph for
// O(p) steps; the distinct vertices discovered form a small connected stub
// tree and are dealt round-robin into the p processors' queues.
//
// Phase 2 (work-stealing traversal): each processor runs the sequential-style
// BFS loop of Alg. 1 over its own queue, writing parent pointers; as in
// sequential BFS, a vertex without a parent is unvisited, so each new child
// costs one random write. The parent check/set is deliberately not atomic
// read-modify-write: two processors may both claim a vertex, which is
// benign — the vertex's parent ends up as one of the racing writers, either
// of which yields a valid tree (§2, Fig. 1). A processor takes a batch of
// vertices from its queue per lock acquisition, the same acquisition that
// publishes the previous batch's children, and leaves thieves at least half
// the queue. An idle processor steals the front portion of a random
// victim's queue. Termination is exact via a pending-work counter, which
// each worker updates out of a private credit and touches only for the
// excess and when its queue runs empty. The paper's detection mechanism is
// implemented too: processors that cannot steal sleep on a gate, and when
// enough of them sleep while work is still pending the traversal halts and
// the partially grown forest is merged and finished by Shiloach–Vishkin.
//
// Disconnected inputs are handled by claiming a new root (atomically, via a
// shared cursor) whenever the pending counter drains with vertices left
// unvisited, so the result is always a spanning forest of the whole graph.
#pragma once

#include <chrono>
#include <cstdint>

#include "core/cancellation.hpp"
#include "core/instrumentation.hpp"
#include "core/spanning_forest.hpp"
#include "storage/graph_storage.hpp"

namespace smpst {

class ThreadPool;

struct BaderCongOptions {
  /// Number of worker threads p. 0 = hardware_threads().
  std::size_t num_threads = 0;

  /// Random-walk length for the stub tree. 0 = auto (2p steps, the paper's
  /// O(p)).
  std::size_t stub_steps = 0;

  /// Max items a thief takes per steal. 0 = auto: half the victim's queue
  /// ("steals part of the queue").
  std::size_t steal_chunk = 0;

  /// Failed victim probes before an idle processor sleeps. 0 = auto (2p).
  std::size_t steal_attempts = 0;

  /// Sleep duration on the idle gate.
  std::chrono::microseconds idle_sleep{100};

  /// The detection mechanism's threshold: fraction of processors that must be
  /// asleep (while work is pending and unstealable) to trigger the fallback.
  double starvation_fraction = 0.9;

  /// Consecutive failed sleep rounds a thread must observe before it counts
  /// the situation as starvation (guards against spurious triggers on
  /// oversubscribed hosts).
  std::size_t starvation_patience = 8;

  /// Enables the SV fallback. When false the traversal always runs to
  /// completion (it remains correct; only the worst-case bound changes).
  bool enable_fallback = true;

  std::uint64_t seed = 0x5eedULL;

  /// When non-null, filled with per-thread and phase statistics.
  TraversalStats* stats = nullptr;

  /// When non-null, every worker polls the token every 64 expansions and
  /// when idle; if it expires mid-traversal the call throws CancelledError.
  const CancelToken* cancel = nullptr;
};

/// Computes a spanning forest of g with the Bader–Cong SMP algorithm on
/// `pool` (pool.size() threads; benchmark loops reuse one pool instead of
/// re-spawning threads per measurement). Over a storage::BlockedGraph it is
/// the identical traversal — same phases, same stats, same fallback.
template <storage::GraphStorage GS>
SpanningForest bader_cong_spanning_tree(const GS& g, ThreadPool& pool,
                                        const BaderCongOptions& opts);

/// As above on a fresh pool of opts.num_threads workers.
template <storage::GraphStorage GS>
SpanningForest bader_cong_spanning_tree(const GS& g,
                                        const BaderCongOptions& opts = {});

}  // namespace smpst
