// Tests for the extension algorithms: level-synchronous parallel BFS, the
// modified HCS spanning tree, and random-mating connectivity.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <system_error>
#include <tuple>
#include <utility>
#include <vector>

#include "cc/connected_components.hpp"
#include "core/bfs.hpp"
#include "core/cancellation.hpp"
#include "core/hcs.hpp"
#include "core/parallel_bfs.hpp"
#include "core/validate.hpp"
#include "gen/registry.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "graph/stats.hpp"
#include "sched/thread_pool.hpp"
#include "storage/blocked_graph.hpp"
#include "storage/csr_file.hpp"
#include "support/failpoint.hpp"
#include "temp_file.hpp"

namespace smpst {
namespace {

using AlgoParam = std::tuple<std::string, int>;

class ParallelBfsSweep : public ::testing::TestWithParam<AlgoParam> {};

TEST_P(ParallelBfsSweep, ProducesValidForest) {
  const auto& [family, threads] = GetParam();
  const Graph g = gen::make_family(family, 500, 77);
  ParallelBfsOptions opts;
  opts.num_threads = static_cast<std::size_t>(threads);
  const auto f = parallel_bfs_spanning_tree(g, opts);
  const auto report = validate_spanning_forest(g, f);
  ASSERT_TRUE(report) << family << " p=" << threads << ": " << report.error;
}

class HcsSweep : public ::testing::TestWithParam<AlgoParam> {};

TEST_P(HcsSweep, ProducesValidForest) {
  const auto& [family, threads] = GetParam();
  const Graph g = gen::make_family(family, 500, 77);
  HcsOptions opts;
  opts.num_threads = static_cast<std::size_t>(threads);
  const auto f = hcs_spanning_tree(g, opts);
  const auto report = validate_spanning_forest(g, f);
  ASSERT_TRUE(report) << family << " p=" << threads << ": " << report.error;
}

const auto kFamilies =
    ::testing::Values("torus-rowmajor", "torus-random", "random-nlogn", "2d60",
                      "ad3", "geo-hier", "chain-seq", "chain-random", "star",
                      "rmat");
const auto kThreads = ::testing::Values(1, 2, 4, 8);

const auto name_fn = [](const auto& info) {
  std::string name = std::get<0>(info.param);
  for (auto& c : name) {
    if (c == '-' || c == '.') c = '_';
  }
  return name + "_p" + std::to_string(std::get<1>(info.param));
};

INSTANTIATE_TEST_SUITE_P(Families, ParallelBfsSweep,
                         ::testing::Combine(kFamilies, kThreads), name_fn);
INSTANTIATE_TEST_SUITE_P(Families, HcsSweep,
                         ::testing::Combine(kFamilies, kThreads), name_fn);

TEST(ParallelBfs, StatsReportLevels) {
  // A chain's frontier is one vertex at every level, so worker 0 expands all
  // 200 levels alone: the group meets at the barrier only to stop, in the
  // traversal's one pool region.
  const Graph g = gen::chain(200);
  ParallelBfsStats stats;
  ParallelBfsOptions opts;
  opts.num_threads = 4;
  opts.stats = &stats;
  const auto f = parallel_bfs_spanning_tree(g, opts);
  ASSERT_TRUE(validate_spanning_forest(g, f));
  EXPECT_EQ(stats.levels, 200u);  // a chain has n levels from one end
  EXPECT_EQ(stats.solo_levels, 200u);
  EXPECT_EQ(stats.regions, 1u);
  EXPECT_EQ(stats.barriers, 1u);
  EXPECT_EQ(stats.max_frontier, 1u);
}

TEST(ParallelBfs, TreeDepthsAreBfsDistances) {
  // Level-synchronous BFS produces shortest-path trees (per source), unlike
  // the work-stealing traversal whose trees have no depth guarantee. Every
  // component must come out as a BFS tree of its root, also with many
  // components (chains plus isolated vertices, a whole 2d60 mesh). grain = 1
  // hands every level wider than p vertices to the group; the default grain
  // leaves the thin levels to worker 0, and grain = n every push level.
  const Graph graphs[] = {gen::make_family("torus-rowmajor", 400, 3),
                          gen::disjoint_chains(12, 40, 9),
                          gen::make_family("2d60", 4096, 7)};
  ThreadPool pool(4);
  for (const Graph& g : graphs) {
    for (const std::size_t grain :
         {std::size_t{1}, std::size_t{64}, std::size_t{g.num_vertices()}}) {
      ParallelBfsOptions opts;
      opts.grain = grain;
      const auto f = parallel_bfs_spanning_tree(g, pool, opts);
      const auto report = validate_spanning_forest(g, f);
      ASSERT_TRUE(report) << "grain " << grain << ": " << report.error;
      const auto depths = f.depths();
      for (const VertexId root : f.roots()) {
        const auto levels = bfs_levels(g, root);
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          if (levels[v] == kInvalidVertex) continue;
          ASSERT_EQ(depths[v], levels[v])
              << "grain " << grain << " root " << root << " vertex " << v;
        }
      }
    }
  }
}

TEST(ParallelBfs, DirectionChoicesDoNotDependOnGrain) {
  // Whether worker 0 expands a push level alone or the group shares it, the
  // level sets and the edge counts the direction heuristic reads are the
  // same, so the choices are too. grain = 1 shares every level wider than
  // p, grain = n none; random-nlogn pulls, the others stay in push, and the
  // 2d60 graph has many components.
  const std::pair<const char*, VertexId> cases[] = {{"random-nlogn", 16384},
                                                    {"geo-flat", 16384},
                                                    {"torus-rowmajor", 16384},
                                                    {"2d60", 16384}};
  ThreadPool pool(4);
  for (const auto& [family, n] : cases) {
    const Graph g = gen::make_family(family, n, 24301);
    std::vector<ParallelBfsStats> runs;
    std::size_t trees = 0;
    for (const std::size_t grain :
         {std::size_t{1}, std::size_t{64}, std::size_t{g.num_vertices()}}) {
      ParallelBfsStats stats;
      ParallelBfsOptions opts;
      opts.grain = grain;
      opts.stats = &stats;
      const auto f = parallel_bfs_spanning_tree(g, pool, opts);
      ASSERT_TRUE(validate_spanning_forest(g, f)) << family;
      runs.push_back(stats);
      trees = f.num_trees();
    }
    if (std::string(family) == "random-nlogn") {
      EXPECT_GE(runs[0].pull_levels, 1u);
    }
    if (std::string(family) == "2d60") {
      EXPECT_GT(trees, 1u);
    }
    EXPECT_LT(runs.front().solo_levels, runs.front().push_levels) << family;
    EXPECT_EQ(runs.back().solo_levels, runs.back().push_levels) << family;
    for (const ParallelBfsStats& s : runs) {
      EXPECT_EQ(s.levels, runs[0].levels) << family;
      EXPECT_EQ(s.push_levels, runs[0].push_levels) << family;
      EXPECT_EQ(s.pull_levels, runs[0].pull_levels) << family;
      EXPECT_EQ(s.direction_switches, runs[0].direction_switches) << family;
    }
  }
}

class ParallelBfsFailure : public ::testing::Test {
 protected:
  void TearDown() override { fail::disable_all(); }

  // The pool must come back from a failed traversal ready for the next one.
  static void expect_valid_run(const Graph& g, ThreadPool& pool) {
    const auto f = parallel_bfs_spanning_tree(g, pool, ParallelBfsOptions{});
    const auto report = validate_spanning_forest(g, f);
    EXPECT_TRUE(report) << report.error;
  }
};

TEST_F(ParallelBfsFailure, CancelMidTraversalReachesCaller) {
  // Every level is slowed by 1 ms and the graph has well over 20 levels, so
  // the 20 ms deadline expires while worker 0 is planning.
  const Graph g = gen::make_family("2d60", 4096, 7);
  ThreadPool pool(4);
  fail::enable("core.parallel_bfs.level", "delay(1)");
  CancelToken token;
  token.set_deadline(std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(20));
  ParallelBfsOptions opts;
  opts.cancel = &token;
  EXPECT_THROW(parallel_bfs_spanning_tree(g, pool, opts), CancelledError);
  fail::disable_all();
  expect_valid_run(g, pool);
}

TEST_F(ParallelBfsFailure, ThrownLevelFailpointReachesCaller) {
  const Graph g = gen::make_family("2d60", 4096, 7);
  ThreadPool pool(4);
  fail::enable("core.parallel_bfs.level", "10+throw");
  EXPECT_THROW(parallel_bfs_spanning_tree(g, pool, ParallelBfsOptions{}),
               fail::FailpointError);
  fail::disable_all();
  expect_valid_run(g, pool);
}

TEST_F(ParallelBfsFailure, StorageErrorsReachCaller) {
  // A chain whose end vertices have 17 more neighbours each: their slices
  // are longer than BlockedGraph copies, so each span pins its block.
  constexpr VertexId kN = 2000;
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < kN; ++v) edges.push_back({v, v + 1});
  for (VertexId k = 2; k < 19; ++k) {
    edges.push_back({0, k});
    edges.push_back({kN - 1, kN - 1 - k});
  }
  const Graph chain = GraphBuilder::from_edges(kN, std::move(edges));
  const Graph wide = gen::make_family("random-nlogn", 2048, 3);
  const std::string chain_path = testing_util::temp_file("smpst_pbfs_chain");
  const std::string wide_path = testing_util::temp_file("smpst_pbfs_wide");
  storage::write_csr_file(chain, chain_path);
  storage::write_csr_file(wide, wide_path);
  storage::BlockCacheOptions copts;
  copts.block_bytes = 4096;
  copts.budget_bytes = 2 * 4096;  // the floor: two frames in one shard
  copts.shards = 1;
  const storage::BlockedGraph starved(chain_path, copts);
  const auto slice_block = [&](VertexId v, std::uint64_t end) {
    const std::uint64_t at = chain.offsets()[v + end] * sizeof(VertexId);
    return (starved.header().targets_pos + at - end) / copts.block_bytes;
  };
  for (const VertexId hub : {VertexId{0}, kN - 1}) {
    ASSERT_GT(chain.degree(hub), storage::BlockedGraph::kShortSliceTargets);
    ASSERT_EQ(slice_block(hub, 0), slice_block(hub, 1));
  }
  ThreadPool pool(4);
  {
    // The two spans pin two distinct blocks; while they are held, nothing
    // else can be paged in.
    const auto first = starved.neighbors(0);
    const auto last = starved.neighbors(kN - 1);
    ASSERT_THROW((void)starved.degree(kN / 2), storage::StorageError);
    EXPECT_THROW(
        parallel_bfs_spanning_tree(starved, pool, ParallelBfsOptions{}),
        storage::StorageError);
  }
  const auto f =
      parallel_bfs_spanning_tree(starved, pool, ParallelBfsOptions{});
  EXPECT_TRUE(validate_spanning_forest(chain, f));

  // Warm every block worker 0 reads while planning (all offsets, and the
  // root's slice for the thin first level), so the first read fault lands on
  // a worker expanding the group's first push level.
  copts.block_bytes = 64;
  copts.budget_bytes = std::size_t{1} << 20;
  const storage::BlockedGraph paged(wide_path, copts);
  for (VertexId v = 0; v < wide.num_vertices(); ++v) (void)paged.degree(v);
  (void)paged.neighbors(0);
  fail::enable("storage.block.read", "throw");
  ParallelBfsOptions opts;
  opts.grain = 1;
  EXPECT_THROW(parallel_bfs_spanning_tree(paged, pool, opts),
               fail::FailpointError);
  fail::disable_all();
  const auto g = parallel_bfs_spanning_tree(paged, pool, opts);
  EXPECT_TRUE(validate_spanning_forest(wide, g));

  std::error_code ec;
  std::filesystem::remove(chain_path, ec);
  std::filesystem::remove(wide_path, ec);
}

TEST(ParallelBfs, EmptyAndSingleton) {
  ParallelBfsOptions opts;
  opts.num_threads = 2;
  EXPECT_EQ(parallel_bfs_spanning_tree(Graph{}, opts).num_vertices(), 0u);
  const Graph one = GraphBuilder::from_edges(1, {});
  EXPECT_EQ(parallel_bfs_spanning_tree(one, opts).num_trees(), 1u);
}

TEST(Hcs, IterationCountReported) {
  const Graph g = gen::make_family("torus-random", 400, 5);
  SvStats stats;
  HcsOptions opts;
  opts.num_threads = 4;
  opts.stats = &stats;
  const auto f = hcs_spanning_tree(g, opts);
  ASSERT_TRUE(validate_spanning_forest(g, f));
  EXPECT_GE(stats.iterations, 1u);
  EXPECT_EQ(stats.grafts, f.num_tree_edges());
  EXPECT_GT(stats.barriers, 0u);
}

TEST(Hcs, MinHookingConvergesFastOnStar) {
  // Every leaf's only neighbour is the centre: one iteration suffices.
  const Graph g = gen::star(100);
  SvStats stats;
  HcsOptions opts;
  opts.num_threads = 4;
  opts.stats = &stats;
  ASSERT_TRUE(validate_spanning_forest(g, hcs_spanning_tree(g, opts)));
  EXPECT_LE(stats.iterations, 2u);
}

TEST(RandomMate, MatchesGroundTruthAcrossFamilies) {
  for (const char* family :
       {"torus-rowmajor", "random-1.5n", "ad3", "geo-hier", "chain-seq"}) {
    const Graph g = gen::make_family(family, 500, 11);
    const auto truth = cc::cc_union_find(g);
    for (std::size_t p : {std::size_t{1}, std::size_t{4}}) {
      const auto rm = cc::cc_random_mate(g, {.num_threads = p});
      EXPECT_EQ(rm.count, truth.count) << family << " p=" << p;
      EXPECT_TRUE(cc::same_partition(rm.label, truth.label))
          << family << " p=" << p;
    }
  }
}

TEST(RandomMate, DifferentSeedsSamePartition) {
  const Graph g = gen::make_family("2d60", 400, 21);
  const auto a = cc::cc_random_mate(g, {.num_threads = 2}, /*seed=*/1);
  const auto b = cc::cc_random_mate(g, {.num_threads = 2}, /*seed=*/999);
  EXPECT_EQ(a.count, b.count);
  EXPECT_TRUE(cc::same_partition(a.label, b.label));
}

TEST(RandomMate, EmptyGraph) {
  EXPECT_EQ(cc::cc_random_mate(Graph{}, {.num_threads = 2}).count, 0u);
}

}  // namespace
}  // namespace smpst
