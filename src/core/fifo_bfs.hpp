// One dequeue of a FIFO BFS whose parent array is its visited mark. Shared
// by the sequential baseline (bfs_spanning_tree) and parallel BFS's solo
// levels, which run the same queue discipline on one thread.
#pragma once

#include <cstddef>

#include "graph/types.hpp"
#include "storage/graph_storage.hpp"
#include "support/prefetch.hpp"

namespace smpst {

/// The expansion step over a graph, a parent array and an n-slot queue.
/// Build it once per run: on the resident Graph it keeps the CSR pointers,
/// so a loop around it reads them from registers. Plain check-then-set: the
/// caller must be the only thread touching parent and the queue while a
/// step runs.
template <storage::GraphStorage GS>
class FifoBfsStep {
 public:
  FifoBfsStep(const GS& g, VertexId* parent, VertexId* queue)
      : g_(g), parent_(parent), q_(queue) {
    if constexpr (storage::is_resident_v<GS>) {
      offsets_ = g.offsets().data();
      targets_ = g.targets().data();
    }
  }

  /// Takes v = q[head++] and expands it: every neighbour w with
  /// parent[w] == kInvalidVertex gets parent[w] = v and is queued at
  /// q[tail++]. Returns v's degree, the edges the expansion scanned.
  ///
  /// On the resident Graph it first warms the next queued vertex's
  /// neighbour slice and the offsets entry of the one after it (bfs.hpp
  /// says why). On a storage::BlockedGraph neighbors() pins a cache block:
  /// a hint would be real cache or disk work, not a pointer computation.
  EdgeId operator()(std::size_t& head, std::size_t& tail) const {
    VertexId* const q = q_;
    const VertexId v = q[head++];
    if constexpr (storage::is_resident_v<GS>) {
      if (head < tail) prefetch_read(targets_ + offsets_[q[head]]);
      if (head + 1 < tail) prefetch_read(&offsets_[q[head + 1]]);
      const EdgeId begin = offsets_[v];
      const EdgeId end = offsets_[v + 1];
      for (EdgeId e = begin; e < end; ++e) visit(v, targets_[e], tail);
      return end - begin;
    } else {
      const auto nbrs = g_.neighbors(v);
      for (const VertexId w : nbrs) visit(v, w, tail);
      return nbrs.size();
    }
  }

 private:
  void visit(VertexId v, VertexId w, std::size_t& tail) const {
    if (parent_[w] == kInvalidVertex) {
      parent_[w] = v;
      q_[tail++] = w;
    }
  }

  const GS& g_;
  VertexId* const parent_;
  VertexId* const q_;
  const EdgeId* offsets_ = nullptr;    ///< resident Graph only
  const VertexId* targets_ = nullptr;  ///< resident Graph only
};

}  // namespace smpst
