// Model-based randomized tests: the CSR graph against a reference adjacency
// map, the SplitQueue against std::deque, and end-to-end random pipelines
// that chain generator -> transform -> algorithm -> validator with randomly
// drawn parameters.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

#include <filesystem>

#include "core/algorithms.hpp"
#include "gen/registry.hpp"
#include "graph/builder.hpp"
#include "graph/transform.hpp"
#include "sched/thread_pool.hpp"
#include "sched/work_queue.hpp"
#include "storage/blocked_graph.hpp"
#include "storage/csr_file.hpp"
#include "support/prng.hpp"
#include "temp_file.hpp"

namespace smpst {
namespace {

TEST(Fuzz, CsrMatchesReferenceAdjacencyMap) {
  Xoshiro256 rng(0xf00d);
  for (int round = 0; round < 20; ++round) {
    const auto n = static_cast<VertexId>(2 + rng.next_bounded(60));
    const auto m = rng.next_bounded(3 * n);

    std::set<std::pair<VertexId, VertexId>> ref;  // canonical pairs
    std::vector<Edge> edges;
    for (EdgeId e = 0; e < m; ++e) {
      auto u = static_cast<VertexId>(rng.next_bounded(n));
      auto v = static_cast<VertexId>(rng.next_bounded(n));
      edges.push_back({u, v});  // may include loops and duplicates
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      ref.insert({u, v});
    }
    const Graph g = GraphBuilder::from_edges(n, edges);

    ASSERT_EQ(g.num_edges(), ref.size()) << "round " << round;
    std::map<VertexId, std::size_t> ref_degree;
    for (const auto& [u, v] : ref) {
      ++ref_degree[u];
      ++ref_degree[v];
    }
    for (VertexId v = 0; v < n; ++v) {
      EXPECT_EQ(g.degree(v), ref_degree[v]) << "round " << round;
      for (VertexId w = 0; w < n; ++w) {
        const bool expected =
            ref.count({std::min(v, w), std::max(v, w)}) > 0 && v != w;
        ASSERT_EQ(g.has_edge(v, w), expected)
            << "round " << round << " edge " << v << "," << w;
      }
    }
  }
}

TEST(Fuzz, SplitQueueMatchesDequeModel) {
  Xoshiro256 rng(0xbeef);
  for (int round = 0; round < 30; ++round) {
    // Small rings too, so wrap-around and growth happen often.
    SplitQueue<int> q(std::size_t{2} << rng.next_bounded(8));
    std::deque<int> model;
    int next = 0;
    for (int op = 0; op < 2000; ++op) {
      const auto choice = rng.next_bounded(6);
      switch (choice) {
        case 0:  // push
          q.push(next);
          model.push_back(next);
          ++next;
          break;
        case 1: {  // pop
          int got = -1;
          const bool ok = q.pop(got);
          ASSERT_EQ(ok, !model.empty());
          if (ok) {
            ASSERT_EQ(got, model.front());
            model.pop_front();
          }
          break;
        }
        case 2: {  // steal up to k from the front
          const auto k = static_cast<std::size_t>(rng.next_bounded(8));
          std::vector<int> loot;
          const std::size_t took = q.steal(loot, k);
          ASSERT_EQ(took, std::min(k, model.size()));
          for (std::size_t i = 0; i < took; ++i) {
            ASSERT_EQ(loot[i], model.front());
            model.pop_front();
          }
          break;
        }
        case 3:    // write k tail slots in one or more pieces, then publish
        case 4: {  // them, or publish them and take a batch, as a worker does
          const auto k = static_cast<std::size_t>(rng.next_bounded(12));
          std::size_t written = 0;
          while (written < k) {
            const std::size_t piece = std::min<std::size_t>(
                k - written, 1 + rng.next_bounded(k));
            const auto slots = q.tail_slots(written, piece);
            for (std::size_t i = 0; i < piece; ++i) {
              slots[i] = next;
              model.push_back(next);
              ++next;
            }
            written += piece;
          }
          ASSERT_EQ(q.size_hint(), model.size() - k);  // not yet visible
          if (choice == 3) {
            q.publish(k);
            break;
          }
          const auto max = static_cast<std::size_t>(1 + rng.next_bounded(9));
          int batch[9];
          const std::size_t took = q.publish_and_pop_batch(k, batch, max);
          const std::size_t size = model.size();
          ASSERT_EQ(took, std::min(max, size - size / 2));
          for (std::size_t i = 0; i < took; ++i) {
            ASSERT_EQ(batch[i], model.front());
            model.pop_front();
          }
          break;
        }
        default:
          // Exact here: no other thread touches the queue.
          ASSERT_EQ(q.size_hint(), model.size());
          ASSERT_GE(q.capacity(), model.size());
      }
    }
  }
}

TEST(Fuzz, RandomPipelinesAlwaysValidate) {
  // Random (family, size, algorithm, threads, deg2-preprocessing) pipelines.
  Xoshiro256 rng(0xcafe);
  ThreadPool pool(4);
  const auto& fams = gen::families();
  const auto& algos = algorithms();
  for (int round = 0; round < 25; ++round) {
    const auto& fam = fams[rng.next_bounded(fams.size())];
    const auto n = static_cast<VertexId>(64 + rng.next_bounded(700));
    const Graph g = gen::make_family(fam.name, n, rng.next());
    const auto& algo = algos[rng.next_bounded(algos.size())];
    const bool preprocess = rng.next_bernoulli(0.5);

    SpanningForest forest;
    if (preprocess) {
      const auto red = eliminate_degree2(g);
      const auto rf = run_algorithm(algo.name, red.reduced, pool,
                                      RunOptions{rng.next()});
      forest.parent = expand_parent_forest(g, red, rf.parent);
    } else {
      forest = run_algorithm(algo.name, g, pool, RunOptions{rng.next()});
    }
    const auto report = validate_spanning_forest(g, forest);
    ASSERT_TRUE(report) << "round " << round << ": " << fam.name << " + "
                        << algo.name << (preprocess ? " + deg2" : "") << ": "
                        << report.error;
  }
}

// Property: the blocked (out-of-core) backend is an exact stand-in for the
// in-memory CSR. For every random (family, size, block size, cache budget)
// draw, each blocked-capable algorithm at one thread must produce the
// *identical* parent array over both backends given the same seed — cache
// geometry (tiny blocks, heavy eviction, multi-block neighbour copies) must
// never leak into the result. At four threads, where schedules diverge, the
// blocked forest must still validate.
TEST(Fuzz, BlockedBackendForestsMatchResident) {
  Xoshiro256 rng(0xb10c);
  ThreadPool seq(1);
  ThreadPool par(4);
  const auto& fams = gen::families();
  for (int round = 0; round < 8; ++round) {
    const auto& fam = fams[rng.next_bounded(fams.size())];
    const auto n = static_cast<VertexId>(64 + rng.next_bounded(600));
    const Graph g = gen::make_family(fam.name, n, rng.next());

    const std::string path =
        testing_util::temp_file("smpst_fuzz_blocked_" + std::to_string(round));
    storage::write_csr_file(g, path);
    storage::BlockCacheOptions copts;
    copts.block_bytes = std::size_t{64} << rng.next_bounded(4);  // 64..512
    copts.budget_bytes = copts.block_bytes * (4 + rng.next_bounded(28));
    copts.shards = 1 + rng.next_bounded(4);
    copts.policy = rng.next_bernoulli(0.5) ? storage::EvictionPolicy::kClock
                                           : storage::EvictionPolicy::kLru;
    const storage::BlockedGraph bg(path, copts);

    RunOptions run;
    run.seed = rng.next();
    for (const char* algo :
         {"bfs", "bader-cong", "sv", "sv-lock", "parallel-bfs"}) {
      ASSERT_TRUE(algorithm_supports_blocked(algo));
      const SpanningForest want = run_algorithm(algo, g, seq, run);
      const SpanningForest got = run_algorithm(algo, bg, seq, run);
      ASSERT_EQ(got.parent, want.parent)
          << "round " << round << ": " << fam.name << " + " << algo
          << " (block=" << copts.block_bytes
          << " budget=" << copts.budget_bytes << ")";

      const SpanningForest wide = run_algorithm(algo, bg, par, run);
      const auto report = validate_spanning_forest(bg, wide);
      ASSERT_TRUE(report.ok) << "round " << round << ": " << fam.name
                             << " + " << algo << " p=4: " << report.error;
    }
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
}

// Property: duplicate_expansions counts real duplicate colourings, so it can
// never exceed the number of dequeues — a wrapped value would exceed it by
// ~2^64. Random sparse graphs with a large isolated-vertex tail exercise the
// case the old computation (total_processed() - num_vertices) underflowed on.
TEST(Fuzz, DuplicateExpansionsNeverWrapsOnDisconnectedGraphs) {
  Xoshiro256 rng(0xd00d);
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    const auto reachable = static_cast<VertexId>(2 + rng.next_bounded(200));
    const auto isolated = static_cast<VertexId>(rng.next_bounded(500));
    const VertexId n = reachable + isolated;
    const auto m = rng.next_bounded(3 * reachable);
    std::vector<Edge> edges;
    for (EdgeId e = 0; e < m; ++e) {
      edges.push_back(
          {static_cast<VertexId>(rng.next_bounded(reachable)),
           static_cast<VertexId>(rng.next_bounded(reachable))});
    }
    const Graph g = GraphBuilder::from_edges(n, edges);

    BaderCongOptions opts;
    opts.seed = rng.next();
    TraversalStats stats;
    opts.stats = &stats;
    const SpanningForest forest = bader_cong_spanning_tree(g, pool, opts);
    ASSERT_TRUE(validate_spanning_forest(g, forest))
        << "round " << round << ": n=" << n << " m=" << m;
    ASSERT_LE(stats.duplicate_expansions, stats.total_processed())
        << "round " << round << ": wrapped (n=" << n
        << ", dequeued=" << stats.total_processed() << ")";
  }
}

}  // namespace
}  // namespace smpst
