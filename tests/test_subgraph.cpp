// Tests for subgraph extraction, k-core decomposition, and the
// dissemination barrier.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "gen/random_graph.hpp"
#include "gen/simple.hpp"
#include "gen/torus.hpp"
#include "graph/builder.hpp"
#include "graph/stats.hpp"
#include "graph/subgraph.hpp"
#include "ablation_barriers.hpp"

namespace smpst {
namespace {

TEST(InducedSubgraph, DropsVerticesAndIncidentEdges) {
  // Triangle + pendant; drop the pendant.
  const Graph g = GraphBuilder::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const auto sub = induced_subgraph(g, {true, true, true, false});
  EXPECT_EQ(sub.graph.num_vertices(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 3u);
  EXPECT_EQ(sub.to_original, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(sub.to_subgraph[3], kInvalidVertex);
}

TEST(InducedSubgraph, EmptyAndFullMasks) {
  const Graph g = gen::torus2d(4, 4);
  const auto none = induced_subgraph(g, std::vector<bool>(16, false));
  EXPECT_EQ(none.graph.num_vertices(), 0u);
  const auto all = induced_subgraph(g, std::vector<bool>(16, true));
  EXPECT_EQ(all.graph, g);
}

TEST(CoreNumbers, ChainIsOneCore) {
  const auto core = core_numbers(gen::chain(10));
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(core[v], 1u) << v;
}

TEST(CoreNumbers, CompleteGraphIsNMinusOneCore) {
  const auto core = core_numbers(gen::complete(6));
  for (VertexId c : core) EXPECT_EQ(c, 5u);
}

TEST(CoreNumbers, TriangleWithPendant) {
  const Graph g = GraphBuilder::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const auto core = core_numbers(g);
  EXPECT_EQ(core[0], 2u);
  EXPECT_EQ(core[1], 2u);
  EXPECT_EQ(core[2], 2u);
  EXPECT_EQ(core[3], 1u);
}

TEST(CoreNumbers, IsolatedVerticesAreZeroCore) {
  const Graph g = GraphBuilder::from_edges(3, {{0, 1}});
  const auto core = core_numbers(g);
  EXPECT_EQ(core[2], 0u);
}

TEST(CoreNumbers, DefinitionHoldsOnRandomGraphs) {
  // Property: inside the k-core every vertex has >= k neighbours within it.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Graph g = gen::random_graph(200, 600, seed);
    const auto core = core_numbers(g);
    VertexId max_core = 0;
    for (VertexId c : core) max_core = std::max(max_core, c);
    for (VertexId k = 1; k <= max_core; ++k) {
      const auto sub = k_core(g, k);
      for (VertexId v = 0; v < sub.graph.num_vertices(); ++v) {
        EXPECT_GE(sub.graph.degree(v), k)
            << "seed " << seed << " k " << k << " vertex "
            << sub.to_original[v];
      }
    }
    // Maximality: the (k_max+1)-core is empty.
    EXPECT_EQ(k_core(g, max_core + 1).graph.num_vertices(), 0u);
  }
}

TEST(KCore, TorusIsItsOwn2Core) {
  const Graph g = gen::torus2d(5, 5);
  const auto sub = k_core(g, 2);
  EXPECT_EQ(sub.graph.num_vertices(), 25u);
  EXPECT_EQ(k_core(g, 5).graph.num_vertices(), 0u);
}

TEST(DisseminationBarrier, SeparatesPhases) {
  constexpr std::size_t kThreads = 6;
  constexpr int kPhases = 200;
  DisseminationBarrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int ph = 0; ph < kPhases; ++ph) {
        counter.fetch_add(1);
        barrier.arrive_and_wait(t);
        if (counter.load() < (ph + 1) * static_cast<int>(kThreads)) {
          failed.store(true);
        }
        barrier.arrive_and_wait(t);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(counter.load(), kPhases * static_cast<int>(kThreads));
}

TEST(DisseminationBarrier, SinglePartyIsNoOp) {
  DisseminationBarrier barrier(1);
  barrier.arrive_and_wait(0);
  barrier.arrive_and_wait(0);  // reusable
}

TEST(DisseminationBarrier, NonPowerOfTwoParties) {
  constexpr std::size_t kThreads = 5;
  DisseminationBarrier barrier(kThreads);
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) barrier.arrive_and_wait(t);
      done.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(done.load(), static_cast<int>(kThreads));
}

}  // namespace
}  // namespace smpst
