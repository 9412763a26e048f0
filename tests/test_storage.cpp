// Tests for the out-of-core storage backend: the SMPSTCSR file format, the
// sharded block cache (pin/unpin, eviction policies, refusal semantics,
// fault injection), the BlockedGraph neighbor interface, and the service
// integration (blocked registry entries charged at cache budget, queries
// served end-to-end over a graph larger than its cache).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithms.hpp"
#include "gen/registry.hpp"
#include "sched/thread_pool.hpp"
#include "service/executor.hpp"
#include "service/graph_registry.hpp"
#include "storage/block_cache.hpp"
#include "storage/blocked_graph.hpp"
#include "storage/csr_file.hpp"
#include "support/failpoint.hpp"

namespace smpst::storage {
namespace {

namespace fs = std::filesystem;

/// Writes `g` to a unique SMPSTCSR file under the gtest temp dir and returns
/// the path. Files accumulate per test-process run; the OS temp dir owns
/// cleanup, matching the repo's other file-writing tests.
std::string csr_path_for(const Graph& g, const std::string& tag) {
  const fs::path p = fs::path(::testing::TempDir()) /
                     ("smpst_test_" + tag + ".csr");
  write_csr_file(g, p.string());
  return p.string();
}

Graph medium_graph(std::uint64_t seed = 1) {
  return gen::make_family("random-nlogn", 1024, seed);
}

// ------------------------------------------------------------- file format

TEST(CsrFile, RoundTripsThroughDisk) {
  const Graph g = medium_graph();
  const std::string path = csr_path_for(g, "roundtrip");

  const CsrFileHeader header = read_csr_header(path);
  EXPECT_EQ(header.num_vertices, g.num_vertices());
  EXPECT_EQ(header.num_arcs, g.num_arcs());
  EXPECT_EQ(static_cast<std::uint64_t>(fs::file_size(path)),
            header.file_bytes);

  const Graph back = read_csr_file(path);
  ASSERT_EQ(back.num_vertices(), g.num_vertices());
  ASSERT_EQ(back.num_arcs(), g.num_arcs());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = back.neighbors(v);
    ASSERT_EQ(std::vector<VertexId>(a.begin(), a.end()),
              std::vector<VertexId>(b.begin(), b.end()))
        << "vertex " << v;
  }
}

TEST(CsrFile, RejectsBadMagicAndTruncation) {
  const Graph g = medium_graph();
  const std::string path = csr_path_for(g, "corrupt");
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.write("BOGUS!!!", 8);
  }
  EXPECT_THROW(read_csr_header(path), StorageError);

  const std::string trunc =
      (fs::path(::testing::TempDir()) / "smpst_test_trunc.csr").string();
  fs::copy_file(csr_path_for(g, "trunc_src"), trunc,
                fs::copy_options::overwrite_existing);
  fs::resize_file(trunc, fs::file_size(trunc) / 2);
  EXPECT_THROW(read_csr_header(trunc), StorageError);
}

// -------------------------------------------------------------- block cache

TEST(BlockCache, RefusesEvictionWhenEveryFrameIsPinned) {
  const Graph g = medium_graph();
  const std::string path = csr_path_for(g, "pinned");
  BlockCacheOptions opts;
  opts.block_bytes = 64;
  opts.budget_bytes = 1;  // floors at two frames
  opts.shards = 1;
  BlockCache cache(path, fs::file_size(path), opts);
  ASSERT_EQ(cache.num_frames(), 2u);
  ASSERT_GT(cache.num_blocks(), 3u);

  (void)cache.pin(0);
  (void)cache.pin(1);
  EXPECT_THROW((void)cache.pin(2), StorageError);
  EXPECT_GE(cache.stats().pin_refusals, 1u);

  cache.unpin(1);  // frees a victim; the next miss must now succeed
  (void)cache.pin(2);
  cache.unpin(2);
  cache.unpin(0);
}

// A miss in a full shard waits for another thread's unpin instead of
// refusing: p workers holding one span each share a two-frame shard.
TEST(BlockCache, MissWaitsForAnotherThreadsUnpin) {
  const Graph g = medium_graph();
  const std::string path = csr_path_for(g, "waits");
  BlockCacheOptions opts;
  opts.block_bytes = 64;
  opts.budget_bytes = 1;  // floors at two frames
  opts.shards = 1;
  BlockCache cache(path, fs::file_size(path), opts);
  ASSERT_EQ(cache.num_frames(), 2u);

  (void)cache.pin(0);
  (void)cache.pin(1);
  std::atomic<bool> pinned{false};
  std::thread waiter([&] {
    (void)cache.pin(2);
    pinned.store(true, std::memory_order_release);
    cache.unpin(2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pinned.load(std::memory_order_acquire));
  cache.unpin(1);
  waiter.join();
  EXPECT_TRUE(pinned.load(std::memory_order_acquire));
  EXPECT_EQ(cache.stats().pin_refusals, 0u);
  cache.unpin(0);
}

TEST(BlockCache, PinnedBytesMatchTheFileUnderBothPolicies) {
  const Graph g = medium_graph();
  const std::string path = csr_path_for(g, "verify");
  std::ifstream raw(path, std::ios::binary);
  const std::vector<char> file_bytes{std::istreambuf_iterator<char>(raw),
                                     std::istreambuf_iterator<char>()};

  for (const EvictionPolicy policy :
       {EvictionPolicy::kClock, EvictionPolicy::kLru}) {
    BlockCacheOptions opts;
    opts.block_bytes = 256;
    opts.budget_bytes = 8 * 256;  // far fewer frames than blocks: evict a lot
    opts.shards = 2;
    opts.policy = policy;
    BlockCache cache(path, file_bytes.size(), opts);
    // Sweep twice (forward then backward) so the second pass re-misses
    // blocks the first pass evicted.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint64_t i = 0; i < cache.num_blocks(); ++i) {
        const std::uint64_t b =
            pass == 0 ? i : cache.num_blocks() - 1 - i;
        const std::byte* data = cache.pin(b);
        const std::size_t off = static_cast<std::size_t>(b) * 256;
        const std::size_t len = std::min<std::size_t>(
            256, file_bytes.size() - off);
        EXPECT_EQ(std::memcmp(data, file_bytes.data() + off, len), 0)
            << "block " << b << " policy " << to_string(policy);
        cache.unpin(b);
      }
    }
    EXPECT_GT(cache.stats().evictions, 0u);
  }
}

// Thread-safety hammer: concurrent pins of overlapping block sets, content
// verified under the pin. Run under TSan this checks the shard locking and
// the loading/CondVar handoff; under ASan it checks frame lifetime.
TEST(BlockCache, ConcurrentPinUnpinKeepsContentsStable) {
  const Graph g = medium_graph(7);
  const std::string path = csr_path_for(g, "hammer");
  std::ifstream raw(path, std::ios::binary);
  const std::vector<char> file_bytes{std::istreambuf_iterator<char>(raw),
                                     std::istreambuf_iterator<char>()};

  BlockCacheOptions opts;
  opts.block_bytes = 128;
  opts.budget_bytes = 16 * 128;
  opts.shards = 4;
  BlockCache cache(path, file_bytes.size(), opts);
  const std::uint64_t blocks = cache.num_blocks();

  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::uint64_t s = 0x9e3779b97f4a7c15ULL * static_cast<unsigned>(t + 1);
      for (int i = 0; i < kIters; ++i) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        const std::uint64_t b = s % blocks;
        const std::byte* data = nullptr;
        try {
          data = cache.pin(b);
        } catch (const StorageError&) {
          continue;  // transient all-pinned refusal is legal under load
        }
        const std::size_t off = static_cast<std::size_t>(b) * 128;
        const std::size_t len =
            std::min<std::size_t>(128, file_bytes.size() - off);
        if (std::memcmp(data, file_bytes.data() + off, len) != 0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        cache.unpin(b);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = cache.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_EQ(stats.read_errors, 0u);
}

TEST(BlockCache, ReadFailpointSurfacesAndLeavesTheCacheUsable) {
  const Graph g = medium_graph();
  const std::string path = csr_path_for(g, "failpoint");
  BlockCacheOptions opts;
  opts.block_bytes = 256;
  opts.shards = 1;
  BlockCache cache(path, fs::file_size(path), opts);

  fail::enable("storage.block.read", "throw");
  EXPECT_THROW((void)cache.pin(0), fail::FailpointError);
  fail::disable_all();

  // The failed load must have rolled the frame back: the same block loads
  // cleanly afterwards and no pin leaks out of the throw.
  (void)cache.pin(0);
  cache.unpin(0);
  EXPECT_GE(cache.stats().read_errors, 1u);
}

TEST(BlockCache, ParsesEvictionPolicyNames) {
  EXPECT_EQ(parse_eviction_policy("clock"), EvictionPolicy::kClock);
  EXPECT_EQ(parse_eviction_policy("lru"), EvictionPolicy::kLru);
  EXPECT_THROW((void)parse_eviction_policy("arc"), StorageError);
}

// ------------------------------------------------------------ blocked graph

TEST(BlockedGraph, MatchesResidentAdjacencyUnderEvictionPressure) {
  const Graph g = medium_graph(3);
  const std::string path = csr_path_for(g, "adjacency");
  // 64-byte blocks: adjacency slices of degree > 16 span multiple blocks,
  // covering the copy path; smaller ones cover the zero-copy pinned path.
  BlockCacheOptions opts;
  opts.block_bytes = 64;
  opts.budget_bytes = 32 * 64;
  const BlockedGraph bg(path, opts);

  ASSERT_EQ(bg.num_vertices(), g.num_vertices());
  ASSERT_EQ(bg.num_edges(), g.num_edges());
  ASSERT_EQ(bg.num_arcs(), g.num_arcs());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(bg.degree(v), g.degree(v)) << "vertex " << v;
    const auto want = g.neighbors(v);
    const auto got = bg.neighbors(v);
    ASSERT_EQ(std::vector<VertexId>(got.begin(), got.end()),
              std::vector<VertexId>(want.begin(), want.end()))
        << "vertex " << v;
  }
  EXPECT_GT(bg.cache_stats().evictions, 0u);
  EXPECT_LT(bg.memory_bytes(), bg.csr_bytes());
}

// Determinism contract: at p=1 every kernel with a blocked instantiation is
// deterministic, so the blocked backend must produce the exact forest the
// in-memory backend does on the same seed — not merely a valid one.
TEST(BlockedGraph, ForestsIdenticalToResidentAtOneThread) {
  const Graph g = medium_graph(11);
  const std::string path = csr_path_for(g, "equal");
  BlockCacheOptions opts;
  opts.block_bytes = 512;
  opts.budget_bytes = 16 * 512;
  const BlockedGraph bg(path, opts);

  ThreadPool pool(1);
  RunOptions run;
  run.seed = 0xfeed;
  for (const char* algo : {"bfs", "bader-cong", "sv", "sv-lock",
                           "parallel-bfs"}) {
    const SpanningForest resident = run_algorithm(algo, g, pool, run);
    const SpanningForest blocked = run_algorithm(algo, bg, pool, run);
    EXPECT_EQ(blocked.parent, resident.parent) << algo;
  }
}

TEST(BlockedGraph, ParallelForestsValidateAtFourThreads) {
  const Graph g = medium_graph(13);
  const std::string path = csr_path_for(g, "parallel");
  BlockCacheOptions opts;
  opts.block_bytes = 256;
  opts.budget_bytes = 24 * 256;
  const BlockedGraph bg(path, opts);

  ThreadPool pool(4);
  RunOptions run;
  run.seed = 0xabcd;
  for (const char* algo : {"bader-cong", "sv", "parallel-bfs"}) {
    const SpanningForest forest = run_algorithm(algo, bg, pool, run);
    const auto report = validate_spanning_forest(bg, forest);
    EXPECT_TRUE(report.ok) << algo << ": " << report.error;
  }
}

// Dispatch over the blocked backend follows the algorithms() table: every
// registered algorithm either yields a valid forest or throws
// std::invalid_argument, and it throws exactly when the table says it has no
// blocked instantiation.
TEST(BlockedGraph, ResidentOnlyAlgorithmsAreRejected) {
  const Graph g = medium_graph();
  const std::string path = csr_path_for(g, "reject");
  const BlockedGraph bg(path, {});
  ThreadPool pool(1);
  for (const AlgorithmSpec& spec : algorithms()) {
    bool threw = false;
    try {
      const SpanningForest forest =
          run_algorithm(spec.name, bg, pool, RunOptions{});
      const auto report = validate_spanning_forest(bg, forest);
      EXPECT_TRUE(report.ok) << spec.name << ": " << report.error;
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    EXPECT_EQ(threw, !algorithm_supports_blocked(spec.name)) << spec.name;
  }
  EXPECT_THROW(run_algorithm("no-such-algo", bg, pool, RunOptions{}),
               std::invalid_argument);
}

// --------------------------------------------------------- service backend

// The accounting fix made concrete: a graph whose CSR payload exceeds the
// whole registry budget stays registered (charged at its cache budget) and
// serves validated queries end-to-end through the executor.
TEST(StorageService, GraphLargerThanBudgetServesQueriesBlocked) {
  const Graph g = gen::make_family("random-nlogn", 2048, 5);
  const std::string path = csr_path_for(g, "service");
  const auto csr_bytes = read_csr_header(path).payload_bytes();

  service::GraphRegistry::Options ropts;
  ropts.memory_budget_bytes = csr_bytes / 2;  // resident CSR would not fit
  service::GraphRegistry registry(ropts);

  BlockCacheOptions copts;
  copts.block_bytes = 1 << 10;
  copts.budget_bytes = static_cast<std::size_t>(csr_bytes / 10);
  const auto bg = registry.open_blocked("big", path, copts);
  ASSERT_NE(bg, nullptr);
  EXPECT_GT(bg->csr_bytes(), ropts.memory_budget_bytes);
  EXPECT_LE(registry.stats().resident_bytes, ropts.memory_budget_bytes);

  const auto entries = registry.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].blocked);
  EXPECT_EQ(entries[0].bytes, bg->memory_bytes());

  service::ExecutorOptions eopts;
  eopts.num_workers = 1;
  eopts.threads_per_query = 2;
  service::QueryExecutor executor(registry, eopts);
  service::SpanningTreeRequest req;
  req.graph = "big";
  req.algorithm = "bader-cong";
  req.validate = true;
  const auto result = executor.submit(req).get();
  EXPECT_EQ(result.status, service::QueryStatus::kOk) << result.error;
  EXPECT_TRUE(result.validation.ok) << result.validation.error;
  EXPECT_GT(bg->cache_stats().misses, 0u);
}

// get() stays a resident-only lookup; get_any serves both backends.
TEST(StorageService, GetAnyDistinguishesBackends) {
  service::GraphRegistry registry;
  registry.put("mem", medium_graph());
  const std::string path = csr_path_for(medium_graph(), "getany");
  registry.open_blocked("disk", path, {});

  EXPECT_NE(registry.get("mem"), nullptr);
  EXPECT_EQ(registry.get("disk"), nullptr);  // blocked: resident lookup misses
  const auto mem = registry.get_any("mem");
  EXPECT_NE(mem.resident, nullptr);
  EXPECT_EQ(mem.blocked, nullptr);
  const auto disk = registry.get_any("disk");
  EXPECT_EQ(disk.resident, nullptr);
  EXPECT_NE(disk.blocked, nullptr);
  EXPECT_FALSE(registry.get_any("absent"));
}

// A blocked read fault mid-query must surface as a typed failure (kFailed
// with the injected-fault message), never crash a worker or wedge the queue.
TEST(StorageService, ReadFaultBecomesTypedQueryFailure) {
  const Graph g = medium_graph(17);
  const std::string path = csr_path_for(g, "query_fault");
  service::GraphRegistry registry;
  BlockCacheOptions copts;
  copts.block_bytes = 256;
  copts.budget_bytes = 8 * 256;  // small cache: queries must touch the disk
  registry.open_blocked("faulty", path, copts);

  service::ExecutorOptions eopts;
  eopts.num_workers = 1;
  eopts.max_retries = 1;
  service::QueryExecutor executor(registry, eopts);

  fail::enable("storage.block.read", "throw");
  service::SpanningTreeRequest req;
  req.graph = "faulty";
  req.algorithm = "bfs";
  const auto result = executor.submit(req).get();
  fail::disable_all();

  EXPECT_EQ(result.status, service::QueryStatus::kFailed) << result.error;
  EXPECT_NE(result.error.find("injected fault"), std::string::npos)
      << result.error;

  // The executor must still be healthy: the same query succeeds once the
  // fault is gone.
  const auto ok = executor.submit(req).get();
  EXPECT_EQ(ok.status, service::QueryStatus::kOk) << ok.error;
}

// Root-range validation must hold on the blocked path exactly as it does on
// the resident one: an out-of-range root is kInvalidArgument (never an I/O
// attempt), an in-range root re-roots the returned tree.
TEST(StorageService, BlockedQueriesValidateRootRange) {
  const Graph g = medium_graph(19);
  const std::string path = csr_path_for(g, "root");
  service::GraphRegistry registry;
  registry.open_blocked("roots", path, {});
  service::ExecutorOptions eopts;
  eopts.num_workers = 1;
  service::QueryExecutor executor(registry, eopts);

  service::SpanningTreeRequest bad;
  bad.graph = "roots";
  bad.algorithm = "bfs";
  bad.root = g.num_vertices() + 5;
  const auto rejected = executor.submit(bad).get();
  EXPECT_EQ(rejected.status, service::QueryStatus::kInvalidArgument)
      << rejected.error;

  service::SpanningTreeRequest good = bad;
  good.root = 7;
  const auto rerooted = executor.submit(good).get();
  ASSERT_EQ(rerooted.status, service::QueryStatus::kOk) << rerooted.error;
  EXPECT_EQ(rerooted.forest.parent[7], 7u);
}

// dfs and hcs have no blocked instantiation: on a blocked entry the executor
// sends them straight to the degradation chain (the blocked sequential BFS)
// instead of retrying an attempt that cannot succeed.
TEST(StorageService, BlockedDfsAndHcsDegradeWithoutRetries) {
  const Graph g = medium_graph(23);
  const std::string path = csr_path_for(g, "degrade");
  service::GraphRegistry registry;
  const auto bg = registry.open_blocked("disk", path, {});
  ASSERT_NE(bg, nullptr);
  service::ExecutorOptions eopts;
  eopts.num_workers = 1;
  eopts.max_retries = 2;
  service::QueryExecutor executor(registry, eopts);

  for (const char* algo : {"dfs", "hcs"}) {
    service::SpanningTreeRequest req;
    req.graph = "disk";
    req.algorithm = algo;
    const auto r = executor.submit(req).get();
    ASSERT_EQ(r.status, service::QueryStatus::kOk) << algo << ": " << r.error;
    EXPECT_TRUE(r.degraded) << algo;
    EXPECT_EQ(r.attempts, 1u) << algo;
    const auto report = validate_spanning_forest(*bg, r.forest);
    EXPECT_TRUE(report.ok) << algo << ": " << report.error;
  }
  const auto stats = executor.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.degraded, 2u);
}

// Regression for the memory_bytes accounting fix: a graph carrying vector
// capacity slack must be charged for the slack, so the budget evicts it
// where size-based accounting would not.
TEST(StorageService, RegistryBudgetChargesCapacityNotSize) {
  std::vector<EdgeId> offsets = {0, 1, 2};
  std::vector<VertexId> targets = {1, 0};
  offsets.reserve(1 << 14);
  targets.reserve(1 << 16);
  Graph slack = Graph::from_csr(std::move(offsets), std::move(targets));
  const std::size_t slack_bytes = slack.memory_bytes();
  ASSERT_GT(slack_bytes, (1 << 16) * sizeof(VertexId));  // slack dominates

  const Graph tiny = gen::make_family("chain-seq", 64, 1);
  service::GraphRegistry::Options opts;
  // Fits the slack graph alone, or several size-accounted graphs — but not
  // the slack graph plus the tiny one if capacity is charged.
  opts.memory_budget_bytes = slack_bytes + tiny.memory_bytes() / 2;
  service::GraphRegistry registry(opts);
  registry.put("slack", std::move(slack));
  EXPECT_EQ(registry.stats().resident_bytes, slack_bytes);
  registry.put("tiny", gen::make_family("chain-seq", 64, 1));
  EXPECT_EQ(registry.get("slack"), nullptr);  // evicted on capacity grounds
  EXPECT_NE(registry.get("tiny"), nullptr);
}

}  // namespace
}  // namespace smpst::storage
