// Sharded block cache over a read-only file — the paging engine under
// storage::BlockedGraph (architecture after BU-DiSC/CAVE's BlockCache, see
// SNIPPETS.md snippet 1 and docs/STORAGE.md).
//
// The file is divided into fixed-size blocks (power of two, >= 64 bytes).
// pin(block) returns a pointer to an in-memory frame holding that block's
// bytes and guarantees the frame stays put until the matching unpin(block).
// Frames come from a fixed budget; a miss with no free frame evicts an
// unpinned frame chosen by the configured policy:
//
//   * CLOCK (default) — second-chance sweep over the shard's frames; a hit
//     sets the frame's reference bit, the sweep clears bits until it finds a
//     clear, unpinned frame. O(1) amortized, no ordering metadata on hits.
//   * LRU (reference policy) — exact least-recently-used by per-shard tick;
//     O(frames) victim scan, used by tests as the behavioural reference.
//
// If every frame in the shard is pinned, a miss waits for an unpin: the
// kernels hold at most one pin per thread, so a holder always makes
// progress and p workers share a shard of as few as two frames. The wait is
// bounded by kPinWaitLimit; past it the cache refuses — it throws
// StorageError rather than evicting under a pin or blocking indefinitely —
// so a caller that holds more pins than the shard has frames fails loudly
// instead of deadlocking or corrupting a reader (see docs/STORAGE.md).
//
// Concurrency: misses, eviction and disk reads are sharded by block id
// (block % shards, found by multiplying with a reciprocal computed at open);
// each shard is guarded by one smpst::Mutex (lockdep rank
// storage.block_cache.shard). Disk reads happen OUTSIDE the shard lock: a
// miss claims a frame, marks it loading, drops the lock, reads, then marks
// it loaded and notifies — concurrent pins of the same block wait on the
// shard's CondVar, pins of other blocks proceed. The failpoints
// (storage.cache.evict, storage.block.read) sit in that unlocked window,
// both because injected faults should hit the I/O path they model and
// because lint rule SL002 forbids failpoints under a lock guard.
//
// Hits without a lock: read_words() copies a few words out of a cached
// block without pinning it. One frame table of atomics, indexed by block,
// maps a block to its frame; every frame carries a version that is odd from
// the moment its shard reassigns it until its load completes. The reader
// looks up the frame, reads an even version, checks the frame still holds
// the block, copies, then re-reads the version: any change discards the
// copy and the read takes the pinned path instead (a seqlock read). A
// frame's memory is allocated by its first load and kept until the cache
// closes, so a reader never follows a pointer that changes or dangles.
// Only CLOCK caches read this way; an LRU hit must
// update its shard's tick, so it pins. Hits are counted per thread (see
// count_hit), so a lock-free hit writes no line another thread writes.
//
// Hints: prefetch() and peek_word() follow the same frame table to a frame's
// bytes but validate nothing and write nothing — no lock, no count, no
// reference bit, no load on a miss — so they cost a few loads and leave the
// cache's state as they found it. A peeked word may be stale; prefetching a
// stale line is harmless, and a prefetch never faults.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "storage/graph_storage.hpp"
#include "support/cacheline.hpp"
#include "support/prefetch.hpp"
#include "support/thread_annotations.hpp"

namespace smpst::storage {

namespace detail {
/// This thread's hit stripe plus one; zero until the thread's first hit.
/// Stripes below BlockCache::kHitStripes belong to one live thread each.
inline thread_local std::uint32_t t_hit_stripe = 0;
/// Leases a stripe for the calling thread (returned when the thread exits)
/// and returns it plus one; kHitStripes + 1, the shared stripe, once every
/// stripe is leased.
std::uint32_t lease_hit_stripe() noexcept;
}  // namespace detail

enum class EvictionPolicy {
  kClock,  ///< second-chance sweep (default)
  kLru,    ///< exact least-recently-used (reference implementation)
};

[[nodiscard]] const char* to_string(EvictionPolicy p) noexcept;

/// Parses "clock" / "lru"; throws StorageError on anything else.
[[nodiscard]] EvictionPolicy parse_eviction_policy(const std::string& s);

struct BlockCacheOptions {
  /// Bytes per block; power of two, >= 64 (so no u64/u32 CSR value straddles
  /// a block boundary — see csr_file.hpp).
  std::size_t block_bytes = std::size_t{1} << 16;
  /// Target bytes of cached data across all shards. Floored so every shard
  /// keeps at least two frames; memory_bytes() reports the real figure.
  std::size_t budget_bytes = std::size_t{1} << 24;
  std::size_t shards = 8;
  EvictionPolicy policy = EvictionPolicy::kClock;
};

class BlockCache {
 public:
  /// Opens `path` read-only. Throws StorageError if the file cannot be
  /// opened or the options are malformed.
  BlockCache(std::string path, std::uint64_t file_bytes,
             const BlockCacheOptions& opts);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Pins the block and returns its bytes (valid until unpin). Counts a hit
  /// or a miss; a miss may evict and reads from disk. Throws StorageError on
  /// read failure or when every frame in the shard stays pinned for
  /// kPinWaitLimit.
  const std::byte* pin(std::uint64_t block);

  /// Releases one pin taken by pin() on the same block.
  void unpin(std::uint64_t block) noexcept;

  /// Copies `words` 8-byte words starting at byte `at` (8-aligned, inside
  /// the block) of `block` into `dst`, counting one hit or miss as a pin
  /// would. A cached block of a CLOCK cache is read without the shard lock
  /// (see the file comment); otherwise the block is pinned for the copy.
  /// Throws what pin() throws.
  void read_words(std::uint64_t block, std::size_t at, std::size_t words,
                  std::uint64_t* dst) {
    if (!try_read_words(block, at, words, dst)) {
      read_words_pinned(block, at, words, dst);
    }
  }

  /// Hints that byte `at` of `block` will be read soon: when the block is
  /// cached, prefetches that line of its frame. A lookup only: no shard
  /// lock, no hit counted, no reference bit set, nothing loaded on a miss.
  /// A frame reassigned under the hint just warms a line of another block.
  void prefetch(std::uint64_t block, std::size_t at) const noexcept {
    const std::byte* data = cached_bytes(block);
    if (data != nullptr) prefetch_read(data + at);
  }

  /// Stores in `word` the 8-byte word at byte `at` (8-aligned) of `block`
  /// and returns true when the block is cached; a lookup only, like
  /// prefetch(). Stale-tolerant, not validated: the frame may be reassigned
  /// or reloaded under the read, so `word` may come from another block or a
  /// load in progress, and a caller must bound it before using it as an
  /// index.
  bool peek_word(std::uint64_t block, std::size_t at,
                 std::uint64_t& word) const noexcept {
    const std::byte* data = cached_bytes(block);
    if (data == nullptr) return false;
    word = std::atomic_ref<std::uint64_t>(
               *reinterpret_cast<std::uint64_t*>(
                   const_cast<std::byte*>(data + at)))
               .load(std::memory_order_relaxed);
    return true;
  }

  /// How long a miss waits for a frame to be unpinned before refusing.
  static constexpr std::chrono::milliseconds kPinWaitLimit{500};
  /// Threads that count hits on a stripe of their own; later ones share one.
  static constexpr std::uint32_t kHitStripes = 64;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t read_errors = 0;
    std::uint64_t pin_refusals = 0;
    [[nodiscard]] double hit_rate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };
  [[nodiscard]] Stats stats() const noexcept;
  /// Lock-free copies discarded because their frame was reassigned during
  /// the copy; each such read then pinned the block.
  [[nodiscard]] std::uint64_t read_retries() const noexcept {
    return read_retries_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t block_bytes() const noexcept {
    return block_bytes_;
  }
  [[nodiscard]] std::uint64_t num_blocks() const noexcept {
    return num_blocks_;
  }
  [[nodiscard]] std::size_t num_frames() const noexcept {
    return frames_total_;
  }
  /// Bytes this cache is charged for: frame data, per-frame metadata, the
  /// hit stripes and the frame table (4 bytes per block, rounded up to a
  /// whole number of blocks per shard).
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  struct alignas(kCacheLineSize) Frame {
    static constexpr std::uint64_t kNoBlock = ~std::uint64_t{0};
    // Odd from the moment the shard reassigns the frame until its load
    // completes or is abandoned; written under the shard mutex.
    std::atomic<std::uint32_t> version{0};
    // CLOCK reference bit. Optimistic hits set it only when it is clear.
    std::atomic<bool> ref{false};
    std::uint32_t pins = 0;  // guarded by the shard mutex
    // Written under the shard mutex, read by optimistic readers.
    std::atomic<std::uint64_t> block{kNoBlock};
    std::uint64_t last_use = 0;  // LRU tick; guarded by the shard mutex
    // block_bytes_ bytes, allocated by the frame's first load (release) and
    // freed when the cache closes; null until then.
    std::atomic<std::byte*> bytes{nullptr};
  };

  static constexpr std::uint32_t kNotCached = ~std::uint32_t{0};

  struct Shard {
    mutable Mutex mutex{lockdep::rank::kStorageCacheShard};
    CondVar cv;  // load-completion waits; paired with mutex
    // The shard's frames are frames_[first_frame, first_frame + frames).
    std::uint32_t first_frame = 0;
    std::uint32_t frames = 0;
    std::vector<std::uint32_t> free SMPST_GUARDED_BY(mutex);
    std::uint32_t hand SMPST_GUARDED_BY(mutex) = 0;  // CLOCK sweep position
    std::uint64_t tick SMPST_GUARDED_BY(mutex) = 0;
    std::size_t waiters SMPST_GUARDED_BY(mutex) = 0;  // misses awaiting unpin
    std::uint64_t misses SMPST_GUARDED_BY(mutex) = 0;
    std::uint64_t evictions SMPST_GUARDED_BY(mutex) = 0;
  };

  /// block % shards without a divide (Lemire et al., "Faster remainder by
  /// direct computation", 2019): exact for blocks and shard counts below
  /// 2^32, which the constructor checks.
  [[nodiscard]] Shard& shard_of(std::uint64_t block) noexcept {
    __extension__ using u128 = unsigned __int128;
    const u128 low = shard_reciprocal_ * block;
    return shards_[static_cast<std::size_t>((low * shards_.size()) >> 64)];
  }
  [[nodiscard]] static bool loading(const Frame& f) noexcept {
    return (f.version.load(std::memory_order_relaxed) & 1) != 0;
  }

  /// The frame bytes the table maps `block` to, or null; unvalidated (see
  /// peek_word). Frame memory lives until the cache closes, so the pointer
  /// never dangles, whatever block the frame holds by the time it is used.
  [[nodiscard]] const std::byte* cached_bytes(
      std::uint64_t block) const noexcept {
    const std::uint32_t idx = table_[block].load(std::memory_order_acquire);
    if (idx == kNotCached) return nullptr;
    return frames_[idx].bytes.load(std::memory_order_acquire);
  }

  /// The lock-free read behind read_words(). Returns false, counting
  /// nothing, when the cache is LRU, the block is not cached, or its frame
  /// is loading or changed during the copy.
  bool try_read_words(std::uint64_t block, std::size_t at, std::size_t words,
                      std::uint64_t* dst) noexcept {
    if (policy_ != EvictionPolicy::kClock) return false;
    const std::uint32_t idx = table_[block].load(std::memory_order_acquire);
    if (idx == kNotCached) return false;
    Frame& f = frames_[idx];
    const std::uint32_t seen = f.version.load(std::memory_order_acquire);
    if ((seen & 1) != 0 ||
        f.block.load(std::memory_order_relaxed) != block) {
      return false;
    }
    const std::byte* data = f.bytes.load(std::memory_order_acquire);
    if (data == nullptr) return false;
    copy_words(data + at, words, dst);
    // Orders the copy before the re-check: a copy that saw any byte of a
    // reassignment sees the odd version it began with, or a later one.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (f.version.load(std::memory_order_relaxed) != seen) [[unlikely]] {
      read_retries_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (!f.ref.load(std::memory_order_relaxed)) {
      f.ref.store(true, std::memory_order_relaxed);
    }
    count_hit();
    return true;
  }
  /// Relaxed atomic word loads: the frame may be reloaded under the copy
  /// (the version re-check then discards it). A word loop, not memcpy, so
  /// the compiler cannot turn it into a string instruction.
  static void copy_words(const std::byte* src, std::size_t words,
                         std::uint64_t* dst) noexcept {
    auto* from = reinterpret_cast<std::uint64_t*>(const_cast<std::byte*>(src));
    for (std::size_t i = 0; i < words; ++i) {
      dst[i] = std::atomic_ref<std::uint64_t>(from[i]).load(
          std::memory_order_relaxed);
    }
  }
  void read_words_pinned(std::uint64_t block, std::size_t at,
                         std::size_t words, std::uint64_t* dst);

  /// Counts one hit on this thread's stripe of this cache: a plain load and
  /// store on a line no other thread writes (the shared stripe, used past
  /// kHitStripes live threads, takes a fetch_add). The registry's
  /// storage.cache.hits counter gets every kHitBatch-th hit as one add; the
  /// destructor adds the remainders.
  void count_hit() noexcept {
    std::uint32_t s = detail::t_hit_stripe;
    if (s == 0) [[unlikely]] {
      s = detail::lease_hit_stripe();
    }
    std::atomic<std::uint64_t>& n = *hit_stripes_[s - 1];
    std::uint64_t count;
    if (s <= kHitStripes) [[likely]] {
      count = n.load(std::memory_order_relaxed) + 1;
      n.store(count, std::memory_order_relaxed);
    } else {
      count = n.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    if (count % kHitBatch == 0) obs_hits_.add(kHitBatch);
  }
  static constexpr std::uint64_t kHitBatch = 64;

  static constexpr std::uint32_t kNoFrame = ~std::uint32_t{0};
  /// Waits on the shard's CondVar for an unpin. The first wait of a pin()
  /// sets `refuse_at`; returns false once it has passed. noexcept: a wait
  /// that fails on the shard mutex leaves nothing to recover.
  bool wait_for_unpin_locked(
      Shard& sh, std::chrono::steady_clock::time_point& refuse_at) noexcept
      SMPST_REQUIRES(sh.mutex);
  /// Picks a frame for a new block — free-list first, then a policy victim —
  /// and makes its version odd. Sets `evicted` when a mapped block was
  /// displaced. When every frame is pinned or loading, waits for an unpin
  /// and returns kNoFrame, so the caller repeats its lookup; once
  /// `refuse_at` has passed, counts a refusal and throws StorageError
  /// instead.
  std::uint32_t claim_frame_locked(
      Shard& sh, bool& evicted,
      std::chrono::steady_clock::time_point& refuse_at)
      SMPST_REQUIRES(sh.mutex);
  /// Rolls back a load that threw: clears the block's table entry and
  /// returns its frame to the free list, so the cache stays usable. Cannot
  /// throw: the free list has capacity for every frame of the shard.
  void abandon_load(Shard& sh, std::uint64_t block,
                    std::uint32_t frame) noexcept;
  void read_block(std::uint64_t block, std::byte* dst);
  /// Reads `block` into frame `f`, which optimistic readers may be copying,
  /// and returns its bytes. The first load allocates them: frames the
  /// budget allows but no load needs cost nothing.
  std::byte* fill_frame(std::uint64_t block, Frame& f);

  const std::string path_;
  const std::uint64_t file_bytes_;
  const std::size_t block_bytes_;
  const std::uint64_t num_blocks_;
  const EvictionPolicy policy_;
  int fd_ = -1;
  std::size_t frames_total_ = 0;
  std::uint64_t shard_reciprocal_ = 0;  // ceil(2^64 / shards) mod 2^64
  std::vector<Shard> shards_;
  // Frame index of every block, or kNotCached; written under the block's
  // shard mutex.
  std::unique_ptr<std::atomic<std::uint32_t>[]> table_;
  std::size_t table_slots_ = 0;
  std::unique_ptr<Frame[]> frames_;
  std::unique_ptr<Padded<std::atomic<std::uint64_t>>[]> hit_stripes_;

  std::atomic<std::uint64_t> read_errors_{0};
  std::atomic<std::uint64_t> pin_refusals_{0};
  std::atomic<std::uint64_t> read_retries_{0};

  obs::Counter& obs_hits_;
  obs::Counter& obs_misses_;
  obs::Counter& obs_evictions_;
  obs::LatencyHistogram& obs_read_latency_;
};

}  // namespace smpst::storage
