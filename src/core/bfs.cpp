#include "core/bfs.hpp"

#include <memory>

#include "storage/blocked_graph.hpp"
#include "storage/graph_storage.hpp"
#include "support/assert.hpp"
#include "support/prefetch.hpp"

namespace smpst {

// Templated over the storage backend (storage/graph_storage.hpp). Both
// instantiations run one FIFO and visit in the same order, so they return
// the same forest; only the expansion step differs (see bfs.hpp).
template <storage::GraphStorage GS>
SpanningForest bfs_spanning_tree(const GS& g, VertexId source,
                                 const CancelToken* cancel) {
  const VertexId n = g.num_vertices();
  SMPST_CHECK(source < n || n == 0, "bfs_spanning_tree: source out of range");

  SpanningForest forest;
  forest.parent.assign(n, kInvalidVertex);
  if (n == 0) return forest;

  // Every vertex is enqueued exactly once over the whole forest, so the
  // components' queues lie back to back in one n-slot array and `head`
  // counts dequeues across components.
  const auto queue = std::make_unique_for_overwrite<VertexId[]>(n);
  VertexId* const q = queue.get();
  VertexId* const parent = forest.parent.data();
  std::size_t head = 0;
  std::size_t tail = 0;

  // Grows the forest from `source`, then from every still-unvisited vertex
  // in id order; `expand(v)` enqueues v's unvisited neighbours.
  const auto grow = [&](auto expand) {
    const auto run = [&](VertexId s) {
      parent[s] = s;
      q[tail++] = s;
      while (head < tail) {
        // Deadline poll every 4096 dequeues; the first dequeue (head == 0)
        // polls too, so a pre-expired token throws before any expansion.
        if (cancel != nullptr && (head & 0xfff) == 0) cancel->poll();
        expand(q[head++]);
      }
    };
    run(source);
    for (VertexId v = 0; v < n; ++v) {
      if (parent[v] == kInvalidVertex) run(v);
    }
  };

  if constexpr (storage::is_resident_v<GS>) {
    const EdgeId* const offsets = g.offsets().data();
    const VertexId* const targets = g.targets().data();
    grow([&](VertexId v) {
      // Warm the next queued vertex's neighbour slice, and the offsets
      // entry of the one after it, while v expands.
      if (head < tail) prefetch_read(targets + offsets[q[head]]);
      if (head + 1 < tail) prefetch_read(&offsets[q[head + 1]]);
      for (EdgeId e = offsets[v], end = offsets[v + 1]; e < end; ++e) {
        const VertexId w = targets[e];
        if (parent[w] == kInvalidVertex) {
          parent[w] = v;
          q[tail++] = w;
        }
      }
    });
  } else {
    // neighbors() pins a cache block here: a hint would be real cache or
    // disk work, not a pointer computation.
    grow([&](VertexId v) {
      for (VertexId w : g.neighbors(v)) {
        if (parent[w] == kInvalidVertex) {
          parent[w] = v;
          q[tail++] = w;
        }
      }
    });
  }
  return forest;
}

template SpanningForest bfs_spanning_tree(const Graph&, VertexId,
                                          const CancelToken*);
template SpanningForest bfs_spanning_tree(const storage::BlockedGraph&,
                                          VertexId, const CancelToken*);

std::vector<VertexId> bfs_levels(const Graph& g, VertexId source) {
  const VertexId n = g.num_vertices();
  SMPST_CHECK(source < n, "bfs_levels: source out of range");
  std::vector<VertexId> level(n, kInvalidVertex);
  std::vector<VertexId> queue;
  queue.reserve(n);
  queue.push_back(source);
  level[source] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId v = queue[head];
    for (VertexId w : g.neighbors(v)) {
      if (level[w] == kInvalidVertex) {
        level[w] = level[v] + 1;
        queue.push_back(w);
      }
    }
  }
  return level;
}

}  // namespace smpst
