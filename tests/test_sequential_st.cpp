// Tests for the sequential baselines (BFS and DFS spanning forests).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <queue>
#include <string>
#include <vector>

#include "core/bfs.hpp"
#include "core/cancellation.hpp"
#include "core/dfs.hpp"
#include "core/validate.hpp"
#include "gen/mesh.hpp"
#include "gen/random_graph.hpp"
#include "gen/registry.hpp"
#include "gen/simple.hpp"
#include "gen/torus.hpp"
#include "graph/stats.hpp"
#include "storage/blocked_graph.hpp"
#include "storage/csr_file.hpp"

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

// The forest bfs_spanning_tree must return exactly: a textbook std::queue
// BFS from `source`, then from every unvisited vertex in id order, each
// vertex's neighbours taken in CSR order.
std::vector<VertexId> textbook_bfs_parents(const Graph& g, VertexId source) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> parent(n, kInvalidVertex);
  std::queue<VertexId> fifo;
  const auto run = [&](VertexId s) {
    parent[s] = s;
    fifo.push(s);
    while (!fifo.empty()) {
      const VertexId v = fifo.front();
      fifo.pop();
      for (VertexId w : g.neighbors(v)) {
        if (parent[w] == kInvalidVertex) {
          parent[w] = v;
          fifo.push(w);
        }
      }
    }
  };
  if (n == 0) return parent;
  run(source);
  for (VertexId v = 0; v < n; ++v) {
    if (parent[v] == kInvalidVertex) run(v);
  }
  return parent;
}

/// Checks both backends against the textbook forest: the resident Graph and
/// a BlockedGraph over the same CSR, its cache small enough to evict.
void expect_textbook_forest(const Graph& g, VertexId source,
                            const std::string& tag) {
  const auto want = textbook_bfs_parents(g, source);
  EXPECT_EQ(bfs_spanning_tree(g, source).parent, want) << tag << " resident";

  const auto path = std::filesystem::path(::testing::TempDir()) /
                    ("smpst_seq_bfs_" + tag + ".csr");
  storage::write_csr_file(g, path.string());
  storage::BlockCacheOptions opts;
  opts.block_bytes = 512;
  opts.budget_bytes = 16 * 512;
  const storage::BlockedGraph bg(path.string(), opts);
  EXPECT_EQ(bfs_spanning_tree(bg, source).parent, want) << tag << " blocked";
}

TEST(BfsMatchesTextbook, RandomNlogn) {
  expect_textbook_forest(gen::make_family("random-nlogn", 1 << 14, 5), 0,
                         "random_nlogn");
}

TEST(BfsMatchesTextbook, Whole2d60WithManyComponents) {
  const Graph g = gen::make_family("2d60", 1 << 14, 6);
  ASSERT_GT(compute_stats(g).num_components, 100u);
  expect_textbook_forest(g, 0, "2d60");
}

TEST(BfsMatchesTextbook, StarAndChain) {
  expect_textbook_forest(gen::make_family("star", 5000, 7), 0, "star");
  expect_textbook_forest(gen::make_family("chain-seq", 5000, 7), 0, "chain");
}

TEST(BfsMatchesTextbook, NonZeroSource) {
  const Graph g = gen::make_family("2d60", 1 << 12, 8);
  expect_textbook_forest(g, g.num_vertices() / 2, "2d60_mid");
  expect_textbook_forest(gen::make_family("star", 300, 8), 299, "star_leaf");
}

TEST(BfsMatchesTextbook, EmptyAndSingleVertex) {
  expect_textbook_forest(Graph{}, 0, "empty");
  expect_textbook_forest(Graph::from_csr({0, 0}, {}), 0, "single");
}

TEST(Bfs, LiveTokenReturnsSameForestAsNoToken) {
  // Over 4096 dequeues, so the amortized poll fires mid-traversal too.
  const Graph g = gen::make_family("2d60", 1 << 14, 9);
  CancelToken token;
  token.set_deadline(std::chrono::steady_clock::now() + std::chrono::hours(1));
  EXPECT_EQ(bfs_spanning_tree(g, 0, &token).parent,
            bfs_spanning_tree(g, 0).parent);
}

TEST(Bfs, PreExpiredTokenThrows) {
  const Graph g = gen::make_family("random-nlogn", 1024, 9);
  CancelToken token;
  token.request_cancel();
  EXPECT_THROW((void)bfs_spanning_tree(g, 0, &token), CancelledError);
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
