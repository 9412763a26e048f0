#include "core/bfs.hpp"

#include "storage/blocked_graph.hpp"
#include "storage/graph_storage.hpp"
#include "support/assert.hpp"

namespace smpst {

// Templated over the storage backend (storage/graph_storage.hpp): the Graph
// instantiation is byte-for-byte the pre-template sequential baseline; the
// BlockedGraph one runs the same loop over pinned block-backed spans.
template <storage::GraphStorage GS>
SpanningForest bfs_spanning_tree(const GS& g, VertexId source,
                                 const CancelToken* cancel) {
  const VertexId n = g.num_vertices();
  SMPST_CHECK(source < n || n == 0, "bfs_spanning_tree: source out of range");

  SpanningForest forest;
  forest.parent.assign(n, kInvalidVertex);
  if (n == 0) return forest;
  if (cancel != nullptr) cancel->poll();

  std::vector<VertexId> queue;
  queue.reserve(n);

  auto run = [&](VertexId s) {
    forest.parent[s] = s;
    queue.clear();
    queue.push_back(s);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      if (cancel != nullptr && (head & 0xfff) == 0) cancel->poll();
      const VertexId v = queue[head];
      for (VertexId w : g.neighbors(v)) {
        if (forest.parent[w] == kInvalidVertex) {
          forest.parent[w] = v;
          queue.push_back(w);
        }
      }
    }
  };

  run(source);
  for (VertexId v = 0; v < n; ++v) {
    if (forest.parent[v] == kInvalidVertex) run(v);
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
