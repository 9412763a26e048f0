// Full spanning-forest validation, used by the whole test suite as the oracle
// for every algorithm (the parallel algorithm's output is nondeterministic in
// shape, so tests verify *validity*, not equality with a reference tree).
#pragma once

#include <string>

#include "core/spanning_forest.hpp"
#include "storage/graph_storage.hpp"

namespace smpst {

struct ValidationReport {
  bool ok = true;
  std::string error;  ///< first failure, empty when ok

  VertexId num_trees = 0;
  VertexId graph_components = 0;
  EdgeId tree_edges = 0;

  explicit operator bool() const noexcept { return ok; }
};

/// Checks that `forest` is a spanning forest of `g`:
///  1. size matches and every parent id is in range,
///  2. every non-root parent link is an edge of g,
///  3. the parent relation is acyclic,
///  4. the forest has exactly one root per connected component of g and
///     both endpoints of every graph edge land in the same tree
///     (i.e. each tree spans its entire component).
/// Instantiated for Graph and storage::BlockedGraph.
template <storage::GraphStorage GS>
ValidationReport validate_spanning_forest(const GS& g,
                                          const SpanningForest& forest);

/// Connected-component count by BFS over neighbors(): the number of trees
/// every spanning forest of `g` must have. Instantiated for Graph and
/// storage::BlockedGraph.
template <storage::GraphStorage GS>
VertexId count_components(const GS& g);

}  // namespace smpst
