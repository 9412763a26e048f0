#include "core/validate.hpp"

#include <algorithm>
#include <sstream>

#include "storage/blocked_graph.hpp"
#include "storage/graph_storage.hpp"

namespace smpst {

namespace {

ValidationReport fail(std::string msg) {
  ValidationReport r;
  r.ok = false;
  r.error = std::move(msg);
  return r;
}

}  // namespace

/// The same labelling graph/stats.hpp computes for Graph, written against
/// neighbors() only so the blocked backend validates with the identical
/// oracle.
template <storage::GraphStorage GS>
VertexId count_components(const GS& g) {
  const VertexId n = g.num_vertices();
  std::vector<bool> seen(n, false);
  std::vector<VertexId> queue;
  VertexId components = 0;
  for (VertexId s = 0; s < n; ++s) {
    if (seen[s]) continue;
    ++components;
    seen[s] = true;
    queue.clear();
    queue.push_back(s);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const VertexId v = queue[head];
      for (VertexId w : g.neighbors(v)) {
        if (!seen[w]) {
          seen[w] = true;
          queue.push_back(w);
        }
      }
    }
  }
  return components;
}

template <storage::GraphStorage GS>
ValidationReport validate_spanning_forest(const GS& g,
                                          const SpanningForest& forest) {
  const VertexId n = g.num_vertices();
  if (forest.parent.size() != n) {
    return fail("forest size does not match graph");
  }

  // 1 + 2: range and edge-membership checks. Membership is a binary search
  // over the sorted neighbour slice — Graph::has_edge does exactly this, and
  // phrasing it through neighbors() makes it backend-generic.
  for (VertexId v = 0; v < n; ++v) {
    const VertexId p = forest.parent[v];
    if (p >= n) {
      std::ostringstream os;
      os << "vertex " << v << " has out-of-range parent " << p;
      return fail(os.str());
    }
    if (p != v) {
      const auto nbrs = g.neighbors(v);
      if (!std::binary_search(nbrs.begin(), nbrs.end(), p)) {
        std::ostringstream os;
        os << "tree edge {" << v << ", " << p << "} is not a graph edge";
        return fail(os.str());
      }
    }
  }

  // 3: acyclicity via iterative resolution with memoized roots. A cycle shows
  // up as a walk that returns to an in-progress vertex.
  std::vector<VertexId> root_of(n, kInvalidVertex);
  constexpr VertexId kInProgress = kInvalidVertex - 1;
  std::vector<VertexId> path;
  for (VertexId v = 0; v < n; ++v) {
    if (root_of[v] != kInvalidVertex) continue;
    path.clear();
    VertexId cur = v;
    while (true) {
      if (root_of[cur] == kInProgress) {
        std::ostringstream os;
        os << "parent cycle through vertex " << cur;
        return fail(os.str());
      }
      if (root_of[cur] != kInvalidVertex) break;       // memoized root below
      if (forest.parent[cur] == cur) {                 // reached a real root
        root_of[cur] = cur;
        break;
      }
      root_of[cur] = kInProgress;
      path.push_back(cur);
      cur = forest.parent[cur];
    }
    const VertexId root = root_of[cur];
    for (VertexId u : path) root_of[u] = root;
  }

  // 4: component agreement. Tree roots must be exactly one per component and
  // every graph edge must stay inside one tree.
  ValidationReport r;
  r.num_trees = forest.num_trees();
  r.tree_edges = forest.num_tree_edges();
  r.graph_components = count_components(g);
  if (r.num_trees != r.graph_components) {
    std::ostringstream os;
    os << "forest has " << r.num_trees << " trees but graph has "
       << r.graph_components << " components";
    return fail(os.str());
  }
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId w : g.neighbors(u)) {
      if (u < w && root_of[u] != root_of[w]) {
        std::ostringstream os;
        os << "edge {" << u << ", " << w
           << "} spans two trees: a component is split";
        return fail(os.str());
      }
    }
  }
  return r;
}

template ValidationReport validate_spanning_forest(const Graph&,
                                                   const SpanningForest&);
template ValidationReport validate_spanning_forest(
    const storage::BlockedGraph&, const SpanningForest&);
template VertexId count_components(const Graph&);
template VertexId count_components(const storage::BlockedGraph&);

}  // namespace smpst
