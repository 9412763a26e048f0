// The storage surface traversal kernels compile against.
//
// Every spanning-tree kernel in src/core is a function template over a
// GraphStorage type: the in-memory `Graph` (CSR vectors, `neighbors()` is a
// std::span over contiguous memory) and the disk-resident
// `storage::BlockedGraph` (block-cached CSR file, `neighbors()` is a
// `NeighborSpan`: a copy of a short slice, a pinned frame, or an owned copy
// of a slice that crosses blocks). The kernels are instantiated explicitly
// for both in their .cpp files, so the in-memory instantiation compiles to
// exactly the code it did before this interface existed — no virtual
// dispatch anywhere near a neighbour loop.
//
// Internal bodies: an explicit instantiation is a COMDAT (weak) symbol, and
// GCC does not split COMDAT functions into hot and cold parts. A kernel
// whose parallel region is a pool.run lambda therefore keeps its body in an
// internal `*_impl` function template that the exported template calls:
// the lambda, and the std::function handler that inlines the worker loop,
// stay internal and keep their hot/cold split.
//
// Both backends take the same prefetch hint, `prefetch_neighbors(v)`: on
// `Graph` it prefetches the slice's first line, on `BlockedGraph` it finds
// the slice through the block cache without a lock, a count or I/O. Kernels
// make it for an upcoming vertex on either backend.
//
// `is_resident` distinguishes the two at compile time where the code must
// differ: kernels that read the CSR arrays directly, and algorithms whose
// recursion or access pattern is bound to resident memory (dfs, hcs).
#pragma once

#include <concepts>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace smpst::storage {

/// Disk-backed storage failure: unreadable file, bad header, or a block
/// cache that cannot make progress (all frames pinned). Derives from
/// std::runtime_error so the service's error mapping handles it like the
/// other typed I/O failures.
class StorageError : public std::runtime_error {
 public:
  explicit StorageError(const std::string& what) : std::runtime_error(what) {}
};

/// What a traversal kernel needs from a graph backend. `neighbors()` must
/// return a forward-iterable range of VertexId with data()/size()/operator[];
/// for Graph that is std::span, for BlockedGraph a pinned NeighborSpan.
template <typename GS>
concept GraphStorage = requires(const GS& g, VertexId v) {
  { g.num_vertices() } -> std::convertible_to<VertexId>;
  { g.num_edges() } -> std::convertible_to<EdgeId>;
  { g.num_arcs() } -> std::convertible_to<EdgeId>;
  { g.degree(v) } -> std::convertible_to<EdgeId>;
  { g.neighbors(v).size() } -> std::convertible_to<std::size_t>;
  g.prefetch_neighbors(v);
};

/// True when neighbour access is a pure pointer computation over arrays in
/// memory (no I/O, no pinning) — the licence to read the CSR arrays
/// directly and to make repeated cheap neighbors() calls.
template <typename GS>
struct is_resident : std::false_type {};

template <>
struct is_resident<Graph> : std::true_type {};

template <typename GS>
inline constexpr bool is_resident_v = is_resident<GS>::value;

static_assert(GraphStorage<Graph>,
              "Graph must satisfy the storage concept it was extracted from");

}  // namespace smpst::storage
