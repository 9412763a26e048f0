// Sequential breadth-first spanning forest — the paper's "best sequential
// algorithm" baseline: O(n + m) with a single preallocated queue whose
// access pattern is as cache-friendly as the problem allows.
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
