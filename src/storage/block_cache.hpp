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
// Concurrency: state is sharded by block id (block % shards); each shard is
// guarded by one smpst::Mutex (lockdep rank storage.block_cache.shard) and
// finds a block's frame in an array indexed by block / shards, sized when the
// cache opens because the block count is known then. Disk reads happen
// OUTSIDE the shard lock: a miss claims a frame, marks it loading, drops the
// lock, reads, then clears the flag and notifies — concurrent pins of the
// same block wait on the shard's CondVar, pins of other blocks proceed. The
// failpoints (storage.cache.evict, storage.block.read) sit in that unlocked
// window, both because injected faults should hit the I/O path they model
// and because lint rule SL002 forbids failpoints under a lock guard.
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
#include "support/thread_annotations.hpp"

namespace smpst::storage {

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

  /// How long a miss waits for a frame to be unpinned before refusing.
  static constexpr std::chrono::milliseconds kPinWaitLimit{500};

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

  [[nodiscard]] std::size_t block_bytes() const noexcept {
    return block_bytes_;
  }
  [[nodiscard]] std::uint64_t num_blocks() const noexcept {
    return num_blocks_;
  }
  [[nodiscard]] std::size_t num_frames() const noexcept {
    return frames_total_;
  }
  /// Bytes this cache is charged for: frame data, per-frame metadata and the
  /// frame table (4 bytes per block).
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  struct Frame {
    static constexpr std::uint64_t kNoBlock = ~std::uint64_t{0};
    std::uint64_t block = kNoBlock;
    std::uint32_t pins = 0;
    bool loading = false;
    bool ref = false;             // CLOCK reference bit
    std::uint64_t last_use = 0;   // LRU tick
    std::unique_ptr<std::byte[]> data;  // allocated on first claim
  };

  static constexpr std::uint32_t kNotCached = ~std::uint32_t{0};

  struct Shard {
    mutable Mutex mutex{lockdep::rank::kStorageCacheShard};
    CondVar cv;  // load-completion waits; paired with mutex
    // Frame index of each of the shard's blocks (block / shards), or
    // kNotCached.
    std::vector<std::uint32_t> table SMPST_GUARDED_BY(mutex);
    std::vector<Frame> frames SMPST_GUARDED_BY(mutex);
    std::vector<std::size_t> free SMPST_GUARDED_BY(mutex);
    std::size_t hand SMPST_GUARDED_BY(mutex) = 0;  // CLOCK sweep position
    std::uint64_t tick SMPST_GUARDED_BY(mutex) = 0;
    std::size_t waiters SMPST_GUARDED_BY(mutex) = 0;  // misses awaiting unpin
    std::uint64_t hits SMPST_GUARDED_BY(mutex) = 0;
    std::uint64_t misses SMPST_GUARDED_BY(mutex) = 0;
    std::uint64_t evictions SMPST_GUARDED_BY(mutex) = 0;
  };

  /// The block's shard and its index in that shard's frame table.
  struct Location {
    Shard& shard;
    std::size_t slot;
  };
  [[nodiscard]] Location locate(std::uint64_t block) noexcept {
    const std::uint64_t n = shards_.size();
    const std::uint64_t slot = block / n;
    return {shards_[block - slot * n], static_cast<std::size_t>(slot)};
  }
  static constexpr std::size_t kNoFrame = ~std::size_t{0};
  /// Waits on the shard's CondVar for an unpin. The first wait of a pin()
  /// sets `refuse_at`; returns false once it has passed. noexcept: a wait
  /// that fails on the shard mutex leaves nothing to recover.
  bool wait_for_unpin_locked(
      Shard& sh, std::chrono::steady_clock::time_point& refuse_at) noexcept
      SMPST_REQUIRES(sh.mutex);
  /// Picks a frame for a new block: free-list first, then a policy victim.
  /// Sets `evicted` when a mapped block was displaced. When every frame is
  /// pinned or loading, waits for an unpin and returns kNoFrame, so the
  /// caller repeats its lookup; once `refuse_at` has passed, counts a
  /// refusal and throws StorageError instead.
  std::size_t claim_frame_locked(
      Shard& sh, bool& evicted,
      std::chrono::steady_clock::time_point& refuse_at)
      SMPST_REQUIRES(sh.mutex);
  /// Rolls back a load that threw: clears the block's table entry and
  /// returns its frame to the free list, so the cache stays usable. Cannot
  /// throw: the free list has capacity for every frame of the shard.
  void abandon_load(const Location& at, Frame& f) noexcept;
  void read_block(std::uint64_t block, std::byte* dst);

  const std::string path_;
  const std::uint64_t file_bytes_;
  const std::size_t block_bytes_;
  const std::uint64_t num_blocks_;
  const EvictionPolicy policy_;
  int fd_ = -1;
  std::size_t frames_total_ = 0;
  std::vector<Shard> shards_;

  std::atomic<std::uint64_t> read_errors_{0};
  std::atomic<std::uint64_t> pin_refusals_{0};

  obs::Counter& obs_hits_;
  obs::Counter& obs_misses_;
  obs::Counter& obs_evictions_;
  obs::LatencyHistogram& obs_read_latency_;
};

}  // namespace smpst::storage
