// Tests for the Bader–Cong work-stealing spanning tree algorithm: validity
// across every graph family, thread count, and seed; race robustness;
// disconnected inputs; the starvation fallback; and instrumentation.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <tuple>
#include <vector>

#include "core/bader_cong.hpp"
#include "core/steal_policy.hpp"
#include "core/validate.hpp"
#include "gen/registry.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "sched/thread_pool.hpp"
#include "storage/blocked_graph.hpp"
#include "storage/csr_file.hpp"
#include "support/failpoint.hpp"
#include "support/prng.hpp"

namespace smpst {
namespace {

BaderCongOptions opts_with(std::size_t threads, std::uint64_t seed = 42) {
  BaderCongOptions o;
  o.num_threads = threads;
  o.seed = seed;
  return o;
}

TEST(BaderCong, SingleVertex) {
  const Graph g = GraphBuilder::from_edges(1, {});
  const auto f = bader_cong_spanning_tree(g, opts_with(2));
  EXPECT_EQ(f.num_trees(), 1u);
  EXPECT_TRUE(f.is_root(0));
}

TEST(BaderCong, EmptyGraph) {
  const Graph g;
  const auto f = bader_cong_spanning_tree(g, opts_with(2));
  EXPECT_EQ(f.num_vertices(), 0u);
}

TEST(BaderCong, SingleThreadMatchesSequentialSemantics) {
  const Graph g = gen::make_family("random-nlogn", 500, 7);
  const auto f = bader_cong_spanning_tree(g, opts_with(1));
  const auto report = validate_spanning_forest(g, f);
  EXPECT_TRUE(report) << report.error;
  EXPECT_EQ(report.num_trees, report.graph_components);
}

TEST(BaderCong, IsolatedVerticesBecomeRoots) {
  const Graph g = gen::disjoint_chains(2, 10, 5);
  const auto f = bader_cong_spanning_tree(g, opts_with(4));
  const auto report = validate_spanning_forest(g, f);
  EXPECT_TRUE(report) << report.error;
  EXPECT_EQ(f.num_trees(), 7u);
}

TEST(BaderCong, ManyComponents) {
  const Graph g = gen::disjoint_chains(50, 20, 10);
  const auto f = bader_cong_spanning_tree(g, opts_with(4));
  const auto report = validate_spanning_forest(g, f);
  EXPECT_TRUE(report) << report.error;
  EXPECT_EQ(f.num_trees(), 60u);
}

// Property sweep: (family, threads) x seeds. Every run must be a valid
// spanning forest; the tree's *shape* may vary run to run.
using SweepParam = std::tuple<std::string, int>;

class BaderCongSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(BaderCongSweep, ProducesValidForest) {
  const auto& [family, threads] = GetParam();
  const Graph g = gen::make_family(family, 600, 2024);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto f = bader_cong_spanning_tree(
        g, opts_with(static_cast<std::size_t>(threads), seed));
    const auto report = validate_spanning_forest(g, f);
    ASSERT_TRUE(report) << family << " p=" << threads << " seed=" << seed
                        << ": " << report.error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndThreads, BaderCongSweep,
    ::testing::Combine(
        ::testing::Values("torus-rowmajor", "torus-random", "random-nlogn",
                          "random-1.5n", "2d60", "3d40", "ad3", "geo-flat",
                          "geo-hier", "chain-seq", "chain-random", "rmat",
                          "star"),
        ::testing::Values(1, 2, 4, 8)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (auto& c : name) {
        if (c == '-' || c == '.') c = '_';
      }
      return name + "_p" + std::to_string(std::get<1>(info.param));
    });

TEST(BaderCong, RepeatedRunsOnSmallGraphStayValid) {
  // Many repetitions on a small dense graph maximize colouring races.
  const Graph g = gen::make_family("random-nlogn", 64, 3);
  ThreadPool pool(8);
  for (int run = 0; run < 50; ++run) {
    BaderCongOptions o = opts_with(8, static_cast<std::uint64_t>(run));
    const auto f = bader_cong_spanning_tree(g, pool, o);
    const auto report = validate_spanning_forest(g, f);
    ASSERT_TRUE(report) << "run " << run << ": " << report.error;
  }
}

// A vertex's claim (its parent store) is ordered before its expansion's
// parent loads only by the queue lock taken in between: the
// publish_and_pop_batch that publishes it and hands over a batch (or a
// steal); the pending counter does not order them. A queue path
// without that fence produced parent cycles on these small graphs at p=8
// about once in 40 sweeps, so hammer them over many seeds and validate every
// forest. 2d60 at this size has several components, so the drain and root
// claim run too.
TEST(BaderCong, ForestsStayAcyclicAtEightThreads) {
  ThreadPool pool(8);
  for (const char* family : {"torus-rowmajor", "2d60"}) {
    const Graph g = gen::make_family(family, 600, 2024);
    for (std::uint64_t seed = 0; seed < 250; ++seed) {
      const auto f = bader_cong_spanning_tree(g, pool, opts_with(8, seed));
      const auto report = validate_spanning_forest(g, f);
      ASSERT_TRUE(report) << family << " seed=" << seed << ": "
                          << report.error;
    }
  }
}

TEST(BaderCong, PoolReuseAcrossGraphs) {
  ThreadPool pool(4);
  for (const char* family : {"ad3", "chain-seq", "torus-rowmajor"}) {
    const Graph g = gen::make_family(family, 300, 5);
    const auto f = bader_cong_spanning_tree(g, pool, opts_with(4));
    ASSERT_TRUE(validate_spanning_forest(g, f)) << family;
  }
}

TEST(BaderCong, StatsAccountForAllVertices) {
  const Graph g = gen::make_family("random-nlogn", 2000, 9);
  TraversalStats stats;
  BaderCongOptions o = opts_with(4);
  o.stats = &stats;
  const auto f = bader_cong_spanning_tree(g, o);
  ASSERT_TRUE(validate_spanning_forest(g, f));
  EXPECT_EQ(stats.per_thread.size(), 4u);
  // Every vertex is processed at least once; duplicates are the excess.
  EXPECT_EQ(stats.total_processed(),
            g.num_vertices() + stats.duplicate_expansions);
  EXPECT_GE(stats.stub_vertices, 1u);
  EXPECT_FALSE(stats.fallback_triggered);
  std::uint64_t edges = 0;
  for (const auto& t : stats.per_thread) edges += t.edges_scanned;
  // Each processed vertex scans its full neighbourhood: at least 2m scans.
  EXPECT_GE(edges, g.num_arcs());
}

// Expansions settle the pending count out of worker-private credit, so the
// shared counter sees roughly one RMW per queue-empty episode, not one per
// vertex.
TEST(BaderCong, PendingUpdatesStayOffThePerVertexPath) {
  const Graph g = gen::make_family("torus-rowmajor", 10000, 9);
  TraversalStats stats;
  BaderCongOptions o = opts_with(1);
  o.stats = &stats;
  ASSERT_TRUE(validate_spanning_forest(g, bader_cong_spanning_tree(g, o)));
  ASSERT_EQ(stats.per_thread.size(), 1u);
  const ThreadStats& t = stats.per_thread[0];
  EXPECT_GE(t.pending_updates, 1u);
  EXPECT_LT(t.pending_updates * 10, t.vertices_processed)
      << t.pending_updates << " shared updates for " << t.vertices_processed
      << " vertices";
}

TEST(BaderCong, DuplicateExpansionsAreRare) {
  // The paper: "less than ten vertices for a graph with millions" — scaled
  // down, duplicates should be a vanishing fraction of n.
  const Graph g = gen::make_family("random-nlogn", 20000, 11);
  TraversalStats stats;
  BaderCongOptions o = opts_with(8);
  o.stats = &stats;
  ASSERT_TRUE(validate_spanning_forest(g, bader_cong_spanning_tree(g, o)));
  EXPECT_LT(stats.duplicate_expansions, g.num_vertices() / 100);
}

TEST(BaderCong, StubSizeIsBoundedByOptions) {
  const Graph g = gen::make_family("random-nlogn", 5000, 13);
  TraversalStats stats;
  BaderCongOptions o = opts_with(4);
  o.stub_steps = 16;
  o.stats = &stats;
  ASSERT_TRUE(validate_spanning_forest(g, bader_cong_spanning_tree(g, o)));
  EXPECT_LE(stats.stub_vertices, 17u);  // walk start + at most 16 new vertices
}

TEST(BaderCong, FallbackProducesValidForest) {
  // Force the detection mechanism: a long chain keeps at most one queue
  // element live, a single steal probe per round makes thieves fail and
  // sleep, and a hair-trigger threshold plus zero patience converts the
  // first such sleep into starvation. The chain is large enough that the
  // busy thread cannot finish before the thieves get scheduled.
  const Graph g = gen::chain(2'000'000);
  TraversalStats stats;
  BaderCongOptions o = opts_with(8);
  o.starvation_fraction = 0.01;
  o.starvation_patience = 1;
  o.steal_attempts = 1;
  o.idle_sleep = std::chrono::microseconds(50);
  o.stats = &stats;
  const auto f = bader_cong_spanning_tree(g, o);
  const auto report = validate_spanning_forest(g, f);
  ASSERT_TRUE(report) << report.error;
  EXPECT_TRUE(stats.fallback_triggered);
  EXPECT_GT(stats.fallback_seconds, 0.0);
}

TEST(BaderCong, FallbackDisabledStillCompletes) {
  const Graph g = gen::chain(5000);
  TraversalStats stats;
  BaderCongOptions o = opts_with(8);
  o.enable_fallback = false;
  o.stats = &stats;
  const auto f = bader_cong_spanning_tree(g, o);
  ASSERT_TRUE(validate_spanning_forest(g, f));
  EXPECT_FALSE(stats.fallback_triggered);
}

TEST(BaderCong, StealChunkOneWorks) {
  const Graph g = gen::make_family("torus-rowmajor", 400, 21);
  BaderCongOptions o = opts_with(4);
  o.steal_chunk = 1;
  ASSERT_TRUE(validate_spanning_forest(g, bader_cong_spanning_tree(g, o)));
}

TEST(BaderCong, OversubscriptionBeyondCores) {
  const Graph g = gen::make_family("random-1.5n", 3000, 17);
  const auto f = bader_cong_spanning_tree(g, opts_with(16));
  ASSERT_TRUE(validate_spanning_forest(g, f));
}

TEST(StealPolicy, NeverSamplesSelfAndCoversEveryOtherVictim) {
  // Regression: the old sampler drew from [0, p) and `continue`d on
  // victim == tid, burning the steal-attempt budget on self-picks (half of
  // it at p = 2). Every draw must now be a usable victim, and all p-1
  // candidates must stay reachable.
  for (const std::size_t p : {2u, 3u, 8u}) {
    for (std::size_t tid = 0; tid < p; ++tid) {
      Xoshiro256 rng(0x5eed + tid);
      std::vector<int> seen(p, 0);
      for (int draw = 0; draw < 4000; ++draw) {
        const std::size_t victim = sample_steal_victim(rng, p, tid);
        ASSERT_LT(victim, p);
        ASSERT_NE(victim, tid) << "p=" << p << " tid=" << tid;
        ++seen[victim];
      }
      for (std::size_t v = 0; v < p; ++v) {
        if (v == tid) continue;
        EXPECT_GT(seen[v], 0) << "p=" << p << " tid=" << tid
                              << " never chose victim " << v;
      }
    }
  }
}

TEST(BaderCong, FallbackRunsStillComputeDuplicateAccounting) {
  // Regression: fallback runs used to skip the duplicate-expansions pass
  // entirely, silently reporting 0 with no colour accounting — exactly the
  // starvation runs the bc.duplicate_expansions metric exists for. Same
  // forced-fallback recipe as FallbackProducesValidForest.
  const Graph g = gen::chain(2'000'000);
  TraversalStats stats;
  BaderCongOptions o = opts_with(8);
  o.starvation_fraction = 0.01;
  o.starvation_patience = 1;
  o.steal_attempts = 1;
  o.idle_sleep = std::chrono::microseconds(50);
  o.stats = &stats;
  const auto f = bader_cong_spanning_tree(g, o);
  ASSERT_TRUE(validate_spanning_forest(g, f));
  ASSERT_TRUE(stats.fallback_triggered);

  // The traversal made progress before the halt, and the accounting must
  // reflect it: colour base recorded, and the saturating identity
  // duplicates = max(0, dequeued - coloured) holds exactly.
  EXPECT_GT(stats.colored_vertices, 0u);
  const std::uint64_t dequeued = stats.total_processed();
  const std::uint64_t expected =
      dequeued > stats.colored_vertices ? dequeued - stats.colored_vertices
                                        : 0;
  EXPECT_EQ(stats.duplicate_expansions, expected);
}

TEST(BaderCong, CompletedRunsColourEveryVertex) {
  const Graph g = gen::make_family("torus-rowmajor", 900, 3);
  TraversalStats stats;
  BaderCongOptions o = opts_with(4);
  o.stats = &stats;
  ASSERT_TRUE(validate_spanning_forest(g, bader_cong_spanning_tree(g, o)));
  ASSERT_FALSE(stats.fallback_triggered);
  EXPECT_EQ(stats.colored_vertices, g.num_vertices());
}

TEST(BaderCong, WorkerExceptionsReachCaller) {
  // Two workers fail while expanding a dequeued vertex, so the pending count
  // can never drain and the two survivors stay below the starvation
  // threshold: without the stop flag they would wait forever.
  const Graph g = gen::make_family("random-nlogn", 4096, 5);
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "smpst_bc_failure.csr")
          .string();
  storage::write_csr_file(g, path);
  storage::BlockCacheOptions copts;
  copts.block_bytes = 64;
  copts.shards = 1;
  const storage::BlockedGraph bg(path, copts);
  ThreadPool pool(4);
  BaderCongOptions o = opts_with(4);
  fail::enable("storage.block.read", "50+2*throw");
  EXPECT_THROW(bader_cong_spanning_tree(bg, pool, o), fail::FailpointError);
  fail::disable_all();
  EXPECT_TRUE(
      validate_spanning_forest(bg, bader_cong_spanning_tree(bg, pool, o)));
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace
}  // namespace smpst
