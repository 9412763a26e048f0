// Immutable compressed-sparse-row (CSR) undirected graph.
//
// This is the data structure every algorithm in the library traverses. Both
// directions of each undirected edge are stored so that a vertex's full
// neighbourhood is one contiguous slice — the sequential-BFS baseline's
// locality advantage that the paper calls out depends on exactly this layout.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "support/assert.hpp"
#include "support/prefetch.hpp"

namespace smpst {

class GraphBuilder;

class Graph {
 public:
  Graph() = default;

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  /// Number of *undirected* edges (each stored twice internally).
  [[nodiscard]] EdgeId num_edges() const noexcept { return targets_.size() / 2; }

  /// Number of directed arcs actually stored (2 * num_edges()).
  [[nodiscard]] EdgeId num_arcs() const noexcept { return targets_.size(); }

  [[nodiscard]] EdgeId degree(VertexId v) const noexcept {
    SMPST_ASSERT(static_cast<std::size_t>(v) + 1 < offsets_.size());
    return offsets_[v + 1] - offsets_[v];
  }

  /// Contiguous, sorted neighbour slice of v.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const noexcept {
    SMPST_ASSERT(static_cast<std::size_t>(v) + 1 < offsets_.size());
    return {targets_.data() + offsets_[v],
            targets_.data() + offsets_[v + 1]};
  }

  /// Hints that neighbors(v) will be read soon: prefetches its first line.
  void prefetch_neighbors(VertexId v) const noexcept {
    prefetch_read(neighbors(v).data());
  }

  /// True if edge {u, v} exists. O(log deg(u)) — neighbours are sorted.
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const noexcept;

  /// Raw CSR arrays, exposed for the cost-model replayer and I/O.
  [[nodiscard]] const std::vector<EdgeId>& offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] const std::vector<VertexId>& targets() const noexcept {
    return targets_;
  }

  /// Heap bytes held by the CSR arrays. Capacity-based: the registry budget
  /// must charge what the allocator actually committed, not just the used
  /// prefix — a vector carrying reserve() slack would otherwise let the
  /// budget be silently exceeded. GraphBuilder::build shrinks to fit, so for
  /// built graphs this equals the payload size.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return offsets_.capacity() * sizeof(EdgeId) +
           targets_.capacity() * sizeof(VertexId);
  }

  /// Adopts pre-built CSR arrays (offsets monotone, offsets.front() == 0,
  /// offsets.back() == targets.size(), each slice sorted). Vector capacities
  /// are preserved as given — memory_bytes() reflects them. Used by the
  /// storage loaders and by tests that need capacity != size.
  static Graph from_csr(std::vector<EdgeId> offsets,
                        std::vector<VertexId> targets);

  friend bool operator==(const Graph&, const Graph&) = default;

 private:
  friend class GraphBuilder;
  Graph(std::vector<EdgeId> offsets, std::vector<VertexId> targets)
      : offsets_(std::move(offsets)), targets_(std::move(targets)) {}

  std::vector<EdgeId> offsets_;   // size n+1
  std::vector<VertexId> targets_; // size 2m, sorted within each vertex slice
};

}  // namespace smpst
