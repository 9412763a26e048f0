// Tests for the sequential baselines (BFS and DFS spanning forests).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/bfs.hpp"
#include "core/dfs.hpp"
#include "core/validate.hpp"
#include "gen/mesh.hpp"
#include "gen/random_graph.hpp"
#include "gen/registry.hpp"
#include "gen/simple.hpp"
#include "gen/torus.hpp"
#include "graph/stats.hpp"

namespace smpst {
namespace {

TEST(Bfs, ChainParentsAreSequential) {
  const auto f = bfs_spanning_tree(gen::chain(6));
  EXPECT_EQ(f.parent[0], 0u);
  for (VertexId v = 1; v < 6; ++v) EXPECT_EQ(f.parent[v], v - 1);
}

TEST(Bfs, TreeDepthMatchesBfsLevels) {
  const Graph g = gen::torus2d(8, 8);
  const auto f = bfs_spanning_tree(g, 0);
  const auto levels = bfs_levels(g, 0);
  const auto depths = f.depths();
  // A BFS tree realizes shortest-path distances from the source.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(depths[v], levels[v]) << v;
  }
}

TEST(Bfs, CustomSourceBecomesRoot) {
  const auto f = bfs_spanning_tree(gen::torus2d(4, 4), 7);
  EXPECT_TRUE(f.is_root(7));
  EXPECT_EQ(f.num_trees(), 1u);
}

TEST(Bfs, DisconnectedGetsOneRootPerComponent) {
  const Graph g = gen::disjoint_chains(3, 5, 2);
  const auto f = bfs_spanning_tree(g);
  EXPECT_EQ(f.num_trees(), 5u);
  EXPECT_TRUE(validate_spanning_forest(g, f));
}

TEST(Bfs, LevelsUnreachableAreInvalid) {
  const Graph g = gen::disjoint_chains(2, 2, 0);
  const auto levels = bfs_levels(g, 0);
  EXPECT_EQ(levels[1], 1u);
  EXPECT_EQ(levels[2], kInvalidVertex);
}

TEST(Dfs, ChainFromEndIsStraightLine) {
  const auto f = dfs_spanning_tree(gen::chain(6));
  EXPECT_TRUE(f.is_root(0));
  for (VertexId v = 1; v < 6; ++v) EXPECT_EQ(f.parent[v], v - 1);
}

TEST(Dfs, DeepChainDoesNotOverflowStack) {
  // One million vertices in a path; a recursive DFS would crash here.
  const auto g = gen::chain(1u << 20);
  const auto f = dfs_spanning_tree(g);
  EXPECT_EQ(f.num_trees(), 1u);
  EXPECT_EQ(f.num_tree_edges(), (1u << 20) - 1);
}

TEST(Dfs, CompleteGraphIsPath) {
  // DFS of K_n always descends to an unvisited vertex: depth n-1.
  const auto f = dfs_spanning_tree(gen::complete(8));
  const auto depths = f.depths();
  VertexId max_depth = 0;
  for (VertexId d : depths) max_depth = std::max(max_depth, d);
  EXPECT_EQ(max_depth, 7u);
}

// A case names its family by index into kSeqFamilies rather than by
// `const char*`: GoogleTest prints a struct parameter as its raw bytes, and
// those bytes become part of the ctest name. A pointer's bytes move with the
// load address, so the names would change from run to run. The struct is
// 16 bytes with no padding, so every byte printed is a field.
constexpr const char* kSeqFamilies[] = {
    "torus-rowmajor", "torus-random", "random-nlogn", "random-1.5n",
    "2d60",           "3d40",         "ad3",          "geo-flat",
    "geo-hier",       "chain-seq",    "chain-random", "rmat",
    "star",           "binary-tree",  "ring"};

struct SeqCase {
  std::uint32_t family;  // index into kSeqFamilies
  VertexId n;
  std::uint64_t seed;
};
static_assert(sizeof(SeqCase) == 16, "SeqCase must have no padding bytes");

class SequentialValidity : public ::testing::TestWithParam<SeqCase> {};

TEST_P(SequentialValidity, BfsAndDfsProduceValidForests) {
  const auto& param = GetParam();
  const char* family = kSeqFamilies[param.family];
  const Graph g = gen::make_family(family, param.n, param.seed);
  const auto bfs_report = validate_spanning_forest(g, bfs_spanning_tree(g));
  EXPECT_TRUE(bfs_report) << family << ": " << bfs_report.error;
  const auto dfs_report = validate_spanning_forest(g, dfs_spanning_tree(g));
  EXPECT_TRUE(dfs_report) << family << ": " << dfs_report.error;
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SequentialValidity,
    ::testing::Values(SeqCase{0, 400, 1234}, SeqCase{1, 400, 1234},
                      SeqCase{2, 500, 1234}, SeqCase{3, 500, 1234},
                      SeqCase{4, 400, 1234}, SeqCase{5, 343, 1234},
                      SeqCase{6, 500, 1234}, SeqCase{7, 500, 1234},
                      SeqCase{8, 600, 1234}, SeqCase{9, 400, 1234},
                      SeqCase{10, 400, 1234}, SeqCase{11, 512, 1234},
                      SeqCase{12, 300, 1234}, SeqCase{13, 300, 1234},
                      SeqCase{14, 128, 1234}),
    [](const auto& info) {
      std::string name = kSeqFamilies[info.param.family];
      for (auto& c : name) {
        if (c == '-' || c == '.') c = '_';
      }
      return name;
    });

TEST(SequentialAgreement, BfsAndDfsAgreeOnComponentStructure) {
  const Graph g = gen::random_graph(800, 900, 99);  // likely disconnected
  const auto fb = bfs_spanning_tree(g);
  const auto fd = dfs_spanning_tree(g);
  EXPECT_EQ(fb.num_trees(), fd.num_trees());
  const auto cb = fb.component_of();
  const auto cd = fd.component_of();
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      EXPECT_EQ(cb[u], cb[v]);
      EXPECT_EQ(cd[u], cd[v]);
    }
  }
}

}  // namespace
}  // namespace smpst
