// Sequential breadth-first spanning forest — the paper's sequential
// baseline: O(n + m), one FIFO in a preallocated n-slot array.
//
// Why the loop prefetches: each dequeue reads offsets[v] and the first line
// of v's neighbour slice, and for any vertex that was enqueued long ago both
// are cold, so without a hint every expansion starts with a stall on them.
// The next queued vertex is already known, so while v expands the loop
// requests that vertex's neighbour slice and the offsets entry of the one
// after it (the same hint Bader–Cong's worker takes from its queue). On a
// 4-vCPU VM, at n = 2^20, that cut the time by 54% on random-nlogn, 43% on
// geo-flat, 26% on torus-rowmajor and 20% on 2d60; chain-seq, whose slices
// are already read in address order, did not change. The visiting order,
// and so the parent array, is what it was without the hint. Only the
// resident Graph gets the hint: on a storage::BlockedGraph neighbors() pins
// a cache block, real work rather than a pointer computation.
#pragma once

#include "core/cancellation.hpp"
#include "core/spanning_forest.hpp"
#include "graph/graph.hpp"
#include "storage/graph_storage.hpp"

namespace smpst {

/// BFS spanning forest over all components, starting from `source` and then
/// from every still-unvisited vertex in id order. A non-null `cancel` token
/// is polled every few thousand expansions; expiry throws CancelledError.
/// Instantiated for Graph and storage::BlockedGraph.
template <storage::GraphStorage GS>
SpanningForest bfs_spanning_tree(const GS& g, VertexId source = 0,
                                 const CancelToken* cancel = nullptr);

/// BFS levels (distance from source) over source's component only;
/// unreachable vertices get kInvalidVertex. Utility for tests and stats.
std::vector<VertexId> bfs_levels(const Graph& g, VertexId source);

}  // namespace smpst
