// SMP adaptation of the Shiloach–Vishkin connectivity algorithm as a
// spanning tree algorithm — the parallel baseline the paper measures its new
// algorithm against.
//
// Each iteration: (1) graft — every component root with an edge to a
// smaller-labelled component hooks onto it; because real SMPs provide only
// arbitrary (not priority) concurrent writes, the hook is decided by an
// election (first CAS wins) so each tree is grafted exactly once, the
// paper's fix for the race that would otherwise create false tree edges;
// (2) shortcut — pointer jumping until every tree is a rooted star (this is
// where the extra log n factor of the SMP adaptation comes from). The edge
// that wins a root's election becomes a tree edge. Iterations repeat until
// no grafts occur; the iteration count depends on the vertex labelling
// (1 .. log n), the sensitivity Fig. 4 demonstrates.
//
// A lock-per-root grafting variant ("intuitively slow and not scalable",
// §2) is included for the A3 ablation.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instrumentation.hpp"
#include "core/spanning_forest.hpp"
#include "storage/graph_storage.hpp"

namespace smpst {

class CancelToken;
class ThreadPool;

struct SvOptions {
  std::size_t num_threads = 0;  ///< 0 = hardware_threads()
  bool use_locks = false;       ///< lock-based grafting instead of election
  SvStats* stats = nullptr;
  /// Optional cooperative cancellation. Polled once per graft-and-shortcut
  /// round by thread 0 and propagated through a barrier consensus so every
  /// worker exits together; the caller then observes CancelledError.
  const CancelToken* cancel = nullptr;
};

/// Spanning forest via parallel Shiloach–Vishkin. Over a BlockedGraph the
/// block-cache I/O is paid once (edge materialization); the rounds
/// themselves run over plain memory.
template <storage::GraphStorage GS>
SpanningForest sv_spanning_tree(const GS& g, ThreadPool& pool,
                                const SvOptions& opts);

/// As above on a fresh pool of opts.num_threads workers.
template <storage::GraphStorage GS>
SpanningForest sv_spanning_tree(const GS& g, const SvOptions& opts = {});

/// Lower-level entry: runs SV from an arbitrary initial partition.
/// `initial_labels[v]` must name the representative of v's current group and
/// satisfy initial_labels[initial_labels[v]] == initial_labels[v] (rooted
/// stars); identity is the standard start. Returns only the *new* tree edges
/// chosen to connect the groups — this is the merge entry point used by the
/// traversal algorithm's starvation fallback.
template <storage::GraphStorage GS>
std::vector<Edge> sv_tree_edges(const GS& g, ThreadPool& pool,
                                std::vector<VertexId> initial_labels,
                                const SvOptions& opts);

}  // namespace smpst
