// Name-keyed generator registry used by the benchmark harness, tests, and
// example CLIs. The names mirror the paper's evaluation families so a bench
// invocation reads like the figure it reproduces, e.g. Fig. 4 panels 1-2:
//   perf_suite --families=torus-rowmajor,torus-random --n=1048576
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace smpst::gen {

struct FamilySpec {
  std::string name;
  std::string description;
};

/// All registered family names with one-line descriptions.
const std::vector<FamilySpec>& families();

/// True if `name` is a registered family.
bool is_family(const std::string& name);

/// Builds an instance of the named family with approximately n vertices.
/// Families (paper evaluation set first):
///   torus-rowmajor  2D torus, row-major labels        (Fig. 4 panel 1)
///   torus-random    2D torus, random labels           (Fig. 4 panel 2)
///   random-nlogn    G(n, m) with m = n*log2(n)        (Fig. 4 panel 3)
///   2d60            2D mesh, 60% edges                (Fig. 4 panel 4)
///   3d40            3D mesh, 40% edges                (Fig. 4 panel 5)
///   ad3             geometric k-NN, k = 3             (Fig. 4 panel 6)
///   geo-flat        flat geographic (Waxman)          (Fig. 4 panel 7)
///   geo-hier        hierarchical geographic           (Fig. 4 panel 8)
///   chain-seq       degenerate chain, sequential ids  (Fig. 4 panel 9)
///   chain-random    degenerate chain, random ids      (Fig. 4 panel 10)
///   random-1.5n     G(n, m) with m = 1.5 n            (Fig. 3)
/// Extensions: rmat, star, binary-tree, ring, geometric-k8.
/// Throws std::invalid_argument for unknown names.
Graph make_family(const std::string& name, VertexId n, std::uint64_t seed);

}  // namespace smpst::gen
