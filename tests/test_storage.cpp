// Tests for the out-of-core storage backend: the SMPSTCSR file format, the
// sharded block cache (pin/unpin, eviction policies, refusal semantics,
// fault injection), the BlockedGraph neighbor interface, and the service
// integration (blocked registry entries charged at cache budget, queries
// served end-to-end over a graph larger than its cache).
#include <gtest/gtest.h>

#include <algorithm>
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
#include "core/bfs.hpp"
#include "gen/registry.hpp"
#include "graph/builder.hpp"
#include "sched/thread_pool.hpp"
#include "service/executor.hpp"
#include "service/graph_registry.hpp"
#include "storage/block_cache.hpp"
#include "storage/blocked_graph.hpp"
#include "storage/csr_file.hpp"
#include "support/failpoint.hpp"
#include "support/prng.hpp"
#include "temp_file.hpp"

namespace smpst::storage {
namespace {

namespace fs = std::filesystem;

/// Writes `g` to an SMPSTCSR file under the gtest temp dir, unique per tag
/// and process, and returns the path. Files accumulate per test-process
/// run; the OS temp dir owns cleanup, matching the repo's other
/// file-writing tests.
std::string csr_path_for(const Graph& g, const std::string& tag) {
  const std::string p = testing_util::temp_file("smpst_test_" + tag);
  write_csr_file(g, p);
  return p;
}

Graph medium_graph(std::uint64_t seed = 1) {
  return gen::make_family("random-nlogn", 1024, seed);
}

std::vector<char> file_contents(const std::string& path) {
  std::ifstream raw(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(raw),
          std::istreambuf_iterator<char>()};
}

/// Pins and unpins `block`, expecting the file's bytes in the frame.
void expect_block_matches(BlockCache& cache, std::uint64_t block,
                          const std::vector<char>& file_bytes) {
  const std::byte* data = cache.pin(block);
  const std::size_t off = static_cast<std::size_t>(block) * cache.block_bytes();
  const std::size_t len =
      std::min<std::size_t>(cache.block_bytes(), file_bytes.size() - off);
  EXPECT_EQ(std::memcmp(data, file_bytes.data() + off, len), 0)
      << "block " << block;
  cache.unpin(block);
}

/// Cache pins (hits + misses) so far.
std::uint64_t pins_taken(const BlockCache::Stats& s) {
  return s.hits + s.misses;
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

  const std::string trunc = testing_util::temp_file("smpst_test_trunc");
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
  const std::vector<char> file_bytes = file_contents(path);

  for (const EvictionPolicy policy :
       {EvictionPolicy::kClock, EvictionPolicy::kLru}) {
    SCOPED_TRACE(to_string(policy));
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
        expect_block_matches(
            cache, pass == 0 ? i : cache.num_blocks() - 1 - i, file_bytes);
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
  const std::vector<char> file_bytes = file_contents(path);

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

// The frame table is an array per shard indexed by block / shards. A block
// count that is not a multiple of the shard count leaves the last slot of
// some shards unused; more shards than blocks leaves some shards empty.
// Every block must still evict, reload and read back its own bytes.
TEST(BlockCache, FrameTableServesEveryBlockForUnevenShardCounts) {
  const Graph g = medium_graph(29);
  const std::string path = csr_path_for(g, "table");
  const std::vector<char> file_bytes = file_contents(path);
  const std::uint64_t blocks = (file_bytes.size() + 63) / 64;
  std::size_t uneven = 3;
  while (blocks % uneven == 0) ++uneven;

  for (const std::size_t shards :
       {uneven, static_cast<std::size_t>(blocks + 5)}) {
    for (const EvictionPolicy policy :
         {EvictionPolicy::kClock, EvictionPolicy::kLru}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " + to_string(policy));
      BlockCacheOptions opts;
      opts.block_bytes = 64;
      opts.budget_bytes = 1;  // two frames per shard (one past the blocks)
      opts.shards = shards;
      opts.policy = policy;
      BlockCache cache(path, file_bytes.size(), opts);
      ASSERT_EQ(cache.num_blocks(), blocks);
      // Two ascending sweeps: with more blocks per shard than frames, a
      // cyclic sweep misses on every pin under both policies, so the second
      // pass evicts and reloads every block.
      for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t b = 0; b < blocks; ++b) {
          expect_block_matches(cache, b, file_bytes);
        }
      }
      const auto st = cache.stats();
      if (shards < blocks) {
        EXPECT_EQ(st.misses, 2 * blocks);
        EXPECT_EQ(st.hits, 0u);
        EXPECT_EQ(st.evictions, 2 * blocks - cache.num_frames());
      } else {
        EXPECT_EQ(cache.num_frames(), shards);  // one frame per shard
        EXPECT_EQ(st.misses, blocks);
        EXPECT_EQ(st.hits, blocks);
        EXPECT_EQ(st.evictions, 0u);
      }
    }
  }
}

// A failed load clears the block's table entry: the next pin of the same
// block misses, reads the right bytes and unpins cleanly, and only the
// successful load counts as a miss.
TEST(BlockCache, FailedLoadClearsItsFrameTableEntry) {
  const Graph g = medium_graph();
  const std::string path = csr_path_for(g, "table_rollback");
  const std::vector<char> file_bytes = file_contents(path);
  BlockCacheOptions opts;
  opts.block_bytes = 256;
  opts.budget_bytes = 1;  // two frames per shard
  opts.shards = 2;
  BlockCache cache(path, file_bytes.size(), opts);
  ASSERT_GT(cache.num_blocks(), 8u);

  expect_block_matches(cache, 5, file_bytes);
  fail::enable("storage.block.read", "throw");
  EXPECT_THROW((void)cache.pin(7), fail::FailpointError);
  fail::disable_all();

  expect_block_matches(cache, 7, file_bytes);
  expect_block_matches(cache, 7, file_bytes);
  expect_block_matches(cache, 5, file_bytes);
  const auto st = cache.stats();
  EXPECT_EQ(st.read_errors, 1u);
  EXPECT_EQ(st.misses, 2u);  // 5 and 7, once each
  EXPECT_EQ(st.hits, 2u);
}

// memory_bytes() charges 4 bytes per frame-table slot: two caches with the
// same frames and shards differ by exactly the table growth.
TEST(BlockCache, MemoryBytesChargesTheFrameTable) {
  const Graph big = gen::make_family("random-nlogn", 4096, 1);
  const std::string small = csr_path_for(medium_graph(), "table_small");
  const std::string large = csr_path_for(big, "table_large");
  BlockCacheOptions opts;
  opts.block_bytes = 64;
  opts.budget_bytes = 1;  // two frames per shard in both caches
  opts.shards = 3;
  const BlockCache a(small, fs::file_size(small), opts);
  const BlockCache b(large, fs::file_size(large), opts);
  ASSERT_EQ(a.num_frames(), b.num_frames());
  const auto slots = [&](const BlockCache& c) {
    return (c.num_blocks() + opts.shards - 1) / opts.shards * opts.shards;
  };
  ASSERT_GT(slots(b), slots(a));
  EXPECT_EQ(b.memory_bytes() - a.memory_bytes(),
            (slots(b) - slots(a)) * sizeof(std::uint32_t));
}

TEST(BlockCache, ParsesEvictionPolicyNames) {
  EXPECT_EQ(parse_eviction_policy("clock"), EvictionPolicy::kClock);
  EXPECT_EQ(parse_eviction_policy("lru"), EvictionPolicy::kLru);
  EXPECT_THROW((void)parse_eviction_policy("arc"), StorageError);
}

// A lock-free copy whose frame is reassigned under it is discarded and the
// read pins instead: one thread copies a whole 1 KiB block over and over
// while another keeps evicting it from a two-frame shard. Every copy must
// equal the file, and the discarded ones show up in read_retries().
TEST(BlockCache, CopyRacingAReassignmentIsDiscarded) {
  const Graph g = medium_graph(5);
  const std::string path = csr_path_for(g, "retry");
  const std::vector<char> file_bytes = file_contents(path);
  BlockCacheOptions opts;
  opts.block_bytes = 1024;
  opts.budget_bytes = 1;  // floors at two frames
  opts.shards = 1;
  BlockCache cache(path, file_bytes.size(), opts);
  ASSERT_GE(cache.num_blocks(), 3u);
  constexpr std::size_t kWords = 1024 / sizeof(std::uint64_t);

  std::atomic<bool> stop{false};
  std::thread evictor([&] {
    for (std::uint64_t b = 1; !stop.load(std::memory_order_relaxed);
         b = b % 2 + 1) {
      expect_block_matches(cache, b, file_bytes);
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::vector<std::uint64_t> copy(kWords);
  std::uint64_t reads = 0;
  while (cache.read_retries() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 64; ++i, ++reads) {
      cache.read_words(0, 0, kWords, copy.data());
      ASSERT_EQ(std::memcmp(copy.data(), file_bytes.data(), 1024), 0)
          << "read " << reads;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  evictor.join();
  EXPECT_GT(cache.read_retries(), 0u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

// The reciprocal that picks a block's shard has to agree with block % shards
// for every shard count the wire accepts: a 100% budget then never evicts.
TEST(BlockCache, FullBudgetNeverEvictsForAnyShardCount) {
  const Graph g = medium_graph();
  const std::string path = csr_path_for(g, "shard_spread");
  const std::vector<char> file_bytes = file_contents(path);
  for (std::size_t shards = 1; shards <= 12; ++shards) {
    SCOPED_TRACE(shards);
    BlockCacheOptions opts;
    opts.block_bytes = 64;
    opts.budget_bytes = file_bytes.size();
    opts.shards = shards;
    BlockCache cache(path, file_bytes.size(), opts);
    for (std::uint64_t b = 0; b < cache.num_blocks(); ++b) {
      expect_block_matches(cache, b, file_bytes);
    }
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.stats().misses, cache.num_blocks());
  }
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

// neighbors(v) pins the offsets once (twice when offsets[v] is the last
// entry of its block) and then each block of the target slice; degree(v)
// only pins the offsets. Checked on every vertex of a graph with isolated
// vertices against the counts the file layout implies, with 4 KiB blocks.
TEST(BlockedGraph, NeighborsPinsOffsetsOnce) {
  constexpr VertexId kN = 1200;
  constexpr std::uint64_t kBlock = 4096;
  const auto isolated = [](VertexId v) { return v == 100 || v == 700; };
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < kN; ++v) {
    if (!isolated(v) && !isolated(v + 1)) edges.push_back({v, v + 1});
    if (v % 5 == 0 && v + 40 < kN && !isolated(v) && !isolated(v + 40)) {
      edges.push_back({v, v + 40});
    }
  }
  const Graph g = GraphBuilder::from_edges(kN, std::move(edges));
  const std::string path = csr_path_for(g, "pins");
  BlockCacheOptions opts;
  opts.block_bytes = kBlock;
  const BlockedGraph bg(path, opts);
  const CsrFileHeader& h = bg.header();

  const auto straddles = [&](VertexId v) {
    const std::uint64_t at = h.offsets_pos + sizeof(EdgeId) * (v + 1);
    return at % kBlock == 0;  // offsets[v] ends its block
  };
  const auto target_blocks = [&](VertexId v) -> std::uint64_t {
    const std::uint64_t lo = g.offsets()[v];
    const std::uint64_t hi = g.offsets()[v + 1];
    if (lo == hi) return 0;
    return (h.targets_pos + sizeof(VertexId) * hi - 1) / kBlock -
           (h.targets_pos + sizeof(VertexId) * lo) / kBlock + 1;
  };
  const auto neighbor_pins = [&](VertexId v) {
    const std::uint64_t before = pins_taken(bg.cache_stats());
    const NeighborSpan span = bg.neighbors(v);
    const auto want = g.neighbors(v);
    EXPECT_EQ(std::vector<VertexId>(span.begin(), span.end()),
              std::vector<VertexId>(want.begin(), want.end()))
        << "vertex " << v;
    return pins_taken(bg.cache_stats()) - before;
  };
  const auto degree_pins = [&](VertexId v) {
    const std::uint64_t before = pins_taken(bg.cache_stats());
    EXPECT_EQ(bg.degree(v), g.degree(v)) << "vertex " << v;
    return pins_taken(bg.cache_stats()) - before;
  };

  // The named cases: 64 + 8(v+1) is a multiple of 4096 at v = 503, 1015.
  ASSERT_TRUE(straddles(503));
  ASSERT_TRUE(straddles(1015));
  ASSERT_EQ(target_blocks(503), 1u);
  ASSERT_EQ(target_blocks(10), 1u);
  EXPECT_EQ(neighbor_pins(10), 2u);   // interior vertex
  EXPECT_EQ(neighbor_pins(503), 3u);  // offset pair straddles a block
  EXPECT_EQ(neighbor_pins(100), 1u);  // isolated: no targets pin
  EXPECT_EQ(degree_pins(10), 1u);
  EXPECT_EQ(degree_pins(503), 2u);

  std::uint64_t straddling = 0;
  for (VertexId v = 0; v < kN; ++v) {
    const std::uint64_t offset_pins = straddles(v) ? 2 : 1;
    straddling += offset_pins - 1;
    EXPECT_EQ(neighbor_pins(v), offset_pins + target_blocks(v))
        << "vertex " << v;
    EXPECT_EQ(degree_pins(v), offset_pins) << "vertex " << v;
  }
  EXPECT_EQ(straddling, 2u);
}

// Four threads read random vertices through a cache of two frames per
// shard, so blocks are evicted under the lock-free readers all the time;
// every degree and every slice (short copies, pinned and crossing ones)
// must equal the CSR.
TEST(BlockedGraph, ConcurrentReadsMatchTheCsrUnderConstantEviction) {
  const Graph g = medium_graph(17);
  const std::string path = csr_path_for(g, "concurrent_reads");
  BlockCacheOptions opts;
  opts.block_bytes = 256;
  opts.budget_bytes = 1;  // floors at two frames per shard
  opts.shards = 2;
  const BlockedGraph bg(path, opts);
  constexpr int kThreads = 4;
  constexpr int kReads = 4000;
  std::vector<std::thread> readers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(0x5eed + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kReads; ++i) {
        const auto v =
            static_cast<VertexId>(rng.next_bounded(g.num_vertices()));
        const auto want = g.neighbors(v);
        // degree() first: a thread holding a pinned span must not pin again.
        const EdgeId degree = bg.degree(v);
        const NeighborSpan got = bg.neighbors(v);
        if (degree != g.degree(v) ||
            !std::equal(got.begin(), got.end(), want.begin(), want.end())) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto st = bg.cache_stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_GT(st.hits, 0u);
  EXPECT_EQ(st.pin_refusals, 0u);
}

// A slice of at most 16 targets inside one block is copied (its span holds
// no pin and outlives its block's eviction), a longer one inside one block
// is pinned, and one crossing a block is copied block by block. Over a
// single two-frame shard: two pinned spans leave no frame for a third block,
// while a pinned span beside a copied one does.
TEST(BlockedGraph, ShortLongAndCrossingSlicesTakeTheirOwnPaths) {
  const Graph g = medium_graph(19);
  const std::string path = csr_path_for(g, "slice_paths");
  constexpr std::uint64_t kBlock = 256;
  BlockCacheOptions opts;
  opts.block_bytes = kBlock;
  opts.budget_bytes = 1;  // floors at two frames
  opts.shards = 1;
  const BlockedGraph bg(path, opts);
  const CsrFileHeader& h = bg.header();
  const auto first_block = [&](VertexId v) {
    return (h.targets_pos + sizeof(VertexId) * g.offsets()[v]) / kBlock;
  };
  const auto last_block = [&](VertexId v) {
    return (h.targets_pos + sizeof(VertexId) * g.offsets()[v + 1] - 1) /
           kBlock;
  };
  // Vertex 0's offsets share block 0 with the header only.
  ASSERT_LT(h.offsets_pos + 2 * sizeof(EdgeId), kBlock);
  ASSERT_GE(h.targets_pos, kBlock);
  VertexId short16 = kInvalidVertex;
  VertexId crossing = kInvalidVertex;
  std::vector<VertexId> long17;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const bool one_block = first_block(v) == last_block(v);
    if (g.degree(v) == 16 && one_block && short16 == kInvalidVertex) {
      short16 = v;
    } else if (g.degree(v) == 17 && one_block &&
               (long17.empty() || first_block(long17[0]) != first_block(v)) &&
               long17.size() < 2) {
      long17.push_back(v);
    } else if (g.degree(v) > 0 && !one_block && crossing == kInvalidVertex) {
      crossing = v;
    }
  }
  ASSERT_NE(short16, kInvalidVertex);
  ASSERT_NE(crossing, kInvalidVertex);
  ASSERT_EQ(long17.size(), 2u);
  ASSERT_NE(first_block(short16), first_block(long17[0]));
  const auto matches = [&](const NeighborSpan& got, VertexId v) {
    const auto want = g.neighbors(v);
    return std::equal(got.begin(), got.end(), want.begin(), want.end());
  };

  {
    const NeighborSpan a = bg.neighbors(long17[0]);
    const NeighborSpan b = bg.neighbors(long17[1]);
    EXPECT_THROW((void)bg.degree(0), StorageError);
    EXPECT_TRUE(matches(a, long17[0]));
    EXPECT_TRUE(matches(b, long17[1]));
  }
  {
    const NeighborSpan a = bg.neighbors(long17[0]);
    const NeighborSpan s = bg.neighbors(short16);
    // Block 0 takes the frame of short16's block, which nothing pins.
    EXPECT_EQ(bg.degree(0), g.degree(0));
    EXPECT_TRUE(matches(a, long17[0]));
    EXPECT_TRUE(matches(s, short16));
  }
  {
    const NeighborSpan a = bg.neighbors(long17[0]);
    const NeighborSpan c = bg.neighbors(crossing);
    EXPECT_EQ(bg.degree(0), g.degree(0));
    EXPECT_TRUE(matches(a, long17[0]));
    EXPECT_TRUE(matches(c, crossing));
  }
  EXPECT_EQ(bg.cache_stats().pin_refusals, 1u);
}

// Debug builds assert the one-live-span rule: a short-slice span points into
// the thread's buffer, which the next neighbors() call overwrites.
TEST(BlockedGraphDeathTest, NeighborsWhileAShortSpanLivesAsserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "SMPST_ASSERT is compiled out of this build";
#else
  const Graph g = medium_graph();
  const std::string path = csr_path_for(g, "live_span");
  const BlockedGraph bg(path);
  VertexId v = 0;
  while (g.degree(v) == 0 || g.degree(v) > BlockedGraph::kShortSliceTargets) {
    ++v;
  }
  EXPECT_DEATH(
      {
        const NeighborSpan held = bg.neighbors(v);
        (void)bg.neighbors(v);
      },
      "t_short_span_live");
#endif
}

// One thread, an evicting CLOCK cache: hits + misses over a whole BFS equal
// the block reads the file layout implies (every vertex's offsets and
// slice are read once), whether a read was served without the lock or
// pinned.
TEST(BlockedGraph, HitsPlusMissesCountEveryBlockRead) {
  const Graph g = medium_graph(23);
  const std::string path = csr_path_for(g, "read_count");
  constexpr std::uint64_t kBlock = 256;
  for (const std::uint64_t budget : {std::uint64_t{8}, std::uint64_t{1000}}) {
    SCOPED_TRACE(budget);
    BlockCacheOptions opts;
    opts.block_bytes = kBlock;
    opts.budget_bytes = budget * kBlock;
    opts.shards = 3;
    const BlockedGraph bg(path, opts);
    const CsrFileHeader& h = bg.header();
    std::uint64_t expected = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const std::uint64_t at = h.offsets_pos + sizeof(EdgeId) * v;
      expected += at / kBlock == (at + sizeof(EdgeId)) / kBlock ? 1 : 2;
      const std::uint64_t lo = g.offsets()[v];
      const std::uint64_t hi = g.offsets()[v + 1];
      if (lo == hi) continue;
      expected += (h.targets_pos + sizeof(VertexId) * hi - 1) / kBlock -
                  (h.targets_pos + sizeof(VertexId) * lo) / kBlock + 1;
    }
    const SpanningForest forest = bfs_spanning_tree(bg);
    const auto st = bg.cache_stats();
    EXPECT_EQ(st.hits + st.misses, expected);
    EXPECT_EQ(forest.parent, bfs_spanning_tree(g).parent);
    if (budget == 8) EXPECT_GT(st.evictions, 0u);
    if (budget == 1000) {
      EXPECT_EQ(st.evictions, 0u);
      EXPECT_EQ(st.misses, (h.file_bytes + kBlock - 1) / kBlock);
    }
  }
}

// The traversal hints (prefetch_neighbors, prefetch_offsets) are lookups
// only. bfs_spanning_tree makes them before every dequeue; a FIFO BFS with
// no hints, over a fresh cache, makes the same neighbors() calls in the same
// order. On an evicting CLOCK cache a hint that counted a hit, set a
// reference bit (changing the victims) or loaded a block would show in the
// counts.
TEST(BlockedGraph, PrefetchHintsLeaveCacheStateUntouched) {
  const Graph g = medium_graph(23);
  const std::string path = csr_path_for(g, "hint_state");
  BlockCacheOptions opts;
  opts.block_bytes = 256;
  opts.budget_bytes = 8 * 256;
  opts.shards = 3;

  const BlockedGraph bg(path, opts);
  const SpanningForest hinted = bfs_spanning_tree(bg);

  const BlockedGraph bg2(path, opts);
  const VertexId n = bg2.num_vertices();
  std::vector<VertexId> parent(n, kInvalidVertex);
  std::vector<VertexId> fifo;
  fifo.reserve(n);
  for (VertexId s = 0; s < n; ++s) {
    if (parent[s] != kInvalidVertex) continue;
    parent[s] = s;
    fifo.push_back(s);
    for (std::size_t head = fifo.size() - 1; head < fifo.size(); ++head) {
      const VertexId v = fifo[head];
      for (const VertexId w : bg2.neighbors(v)) {
        if (parent[w] == kInvalidVertex) {
          parent[w] = v;
          fifo.push_back(w);
        }
      }
    }
  }

  EXPECT_EQ(hinted.parent, parent);
  const auto with_hints = bg.cache_stats();
  const auto without = bg2.cache_stats();
  EXPECT_GT(without.evictions, 0u);
  EXPECT_EQ(with_hints.hits, without.hits);
  EXPECT_EQ(with_hints.misses, without.misses);
  EXPECT_EQ(with_hints.evictions, without.evictions);
}

// Hints race readers that evict constantly (two frames per shard): a hint
// may find a frame mid-reassignment or peek a stale offset, and must still
// touch only memory of the cache. A hint-only phase then changes no count.
TEST(BlockedGraph, PrefetchHintsRaceConstantEvictionSafely) {
  const Graph g = medium_graph(29);
  const std::string path = csr_path_for(g, "hint_race");
  BlockCacheOptions opts;
  opts.block_bytes = 256;
  opts.budget_bytes = 1;  // floors at two frames per shard
  opts.shards = 2;
  const BlockedGraph bg(path, opts);
  const VertexId n = g.num_vertices();

  const auto hint_all = [&](std::uint64_t seed,
                            const std::atomic<bool>& stop) {
    std::vector<VertexId> order(n);
    for (VertexId v = 0; v < n; ++v) order[v] = v;
    Xoshiro256 rng(seed);
    do {
      for (VertexId i = n; i > 1; --i) {
        std::swap(order[i - 1],
                  order[static_cast<VertexId>(rng.next_bounded(i))]);
      }
      for (const VertexId v : order) {
        bg.prefetch_neighbors(v);
        bg.prefetch_offsets(v);
      }
    } while (!stop.load(std::memory_order_relaxed));
  };

  std::atomic<bool> readers_done{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back(hint_all, 0x41 + static_cast<std::uint64_t>(t),
                         std::cref(readers_done));
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(0x7eed + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 4000; ++i) {
        const auto v = static_cast<VertexId>(rng.next_bounded(n));
        const auto want = g.neighbors(v);
        const EdgeId degree = bg.degree(v);
        const NeighborSpan got = bg.neighbors(v);
        if (degree != g.degree(v) ||
            !std::equal(got.begin(), got.end(), want.begin(), want.end())) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  readers_done.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto before = bg.cache_stats();
  EXPECT_GT(before.evictions, 0u);

  const std::uint64_t retries = bg.cache_read_retries();
  const std::atomic<bool> once{true};
  std::vector<std::thread> hinters;
  for (int t = 0; t < 2; ++t) {
    hinters.emplace_back(hint_all, 0x51 + static_cast<std::uint64_t>(t),
                         std::cref(once));
  }
  for (auto& h : hinters) h.join();
  const auto after = bg.cache_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.read_errors, before.read_errors);
  EXPECT_EQ(after.pin_refusals, before.pin_refusals);
  EXPECT_EQ(bg.cache_read_retries(), retries);
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
