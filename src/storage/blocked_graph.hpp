// Disk-resident CSR graph: the blocked GraphStorage implementation.
//
// A BlockedGraph never holds the CSR arrays in memory — every offsets/targets
// access goes through a BlockCache over the SMPSTCSR file, so its footprint
// is the cache budget (plus per-frame metadata), not the graph size. That is
// exactly the figure memory_bytes() reports and the GraphRegistry charges.
//
// Reads go through BlockCache::read_words(), which a CLOCK cache serves
// without its shard lock when the block is cached: the offsets pair of
// degree(v) and neighbors(v), and any neighbour slice of at most
// kShortSliceTargets targets (one cache line) that lies inside one block.
// Such a slice is copied into a per-thread buffer that stays valid until
// the thread's next neighbors() call. A longer slice inside one block is
// zero-copy: the span holds a pin on the block and points into its frame,
// released on destruction. A slice crossing block boundaries is copied into
// the span's owned buffer block-by-block. Either way a thread holds at most
// one pin at a time, so the cache makes progress with two frames per shard.
//
// One live span per thread: a thread destroys its span before its next
// neighbors() call (Debug builds assert it), as every kernel loop does.
//
// Hints: prefetch_offsets(v) and prefetch_neighbors(v) warm the lines a
// later degree(v) or neighbors(v) reads, through BlockCache::prefetch and
// BlockCache::peek_word. They take no lock and no pin, count nothing and
// load nothing, so a kernel can make them for upcoming vertices as it does
// over the resident Graph.
//
// Thread safety: const access from any number of threads concurrently (the
// BlockCache does its own sharded locking); that is what lets the traversal
// kernels run over a BlockedGraph unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "storage/block_cache.hpp"
#include "storage/csr_file.hpp"
#include "storage/graph_storage.hpp"

namespace smpst::storage {

#ifndef NDEBUG
namespace detail {
/// Debug builds: this thread holds a span into its short-slice buffer.
inline thread_local bool t_short_span_live = false;
}  // namespace detail
#endif

/// Neighbour slice of one vertex: a copy in the thread's short-slice
/// buffer, a pinned cache block (zero-copy), or an owned copy when the slice
/// crosses blocks. Move-only: the pin travels with the span and is released
/// exactly once.
class NeighborSpan {
 public:
  using value_type = VertexId;

  NeighborSpan() = default;
  NeighborSpan(NeighborSpan&& o) noexcept
      : cache_(std::exchange(o.cache_, nullptr)),
        block_(o.block_),
        data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        owned_(std::move(o.owned_)) {
#ifndef NDEBUG
    short_ = std::exchange(o.short_, false);
#endif
  }
  NeighborSpan& operator=(NeighborSpan&& o) noexcept {
    if (this != &o) {
      release();
      cache_ = std::exchange(o.cache_, nullptr);
      block_ = o.block_;
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
      owned_ = std::move(o.owned_);
#ifndef NDEBUG
      short_ = std::exchange(o.short_, false);
#endif
    }
    return *this;
  }
  NeighborSpan(const NeighborSpan&) = delete;
  NeighborSpan& operator=(const NeighborSpan&) = delete;
  ~NeighborSpan() { release(); }

  [[nodiscard]] const VertexId* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const VertexId* begin() const noexcept { return data_; }
  [[nodiscard]] const VertexId* end() const noexcept { return data_ + size_; }
  VertexId operator[](std::size_t i) const noexcept { return data_[i]; }

 private:
  friend class BlockedGraph;

  void release() noexcept {
    if (cache_ != nullptr) {
      cache_->unpin(block_);
      cache_ = nullptr;
    }
#ifndef NDEBUG
    if (short_) detail::t_short_span_live = false;
    short_ = false;
#endif
  }

  BlockCache* cache_ = nullptr;  // non-null: span holds a pin on block_
  std::uint64_t block_ = 0;
  const VertexId* data_ = nullptr;
  std::size_t size_ = 0;
  std::vector<VertexId> owned_;  // multi-block slices copy here
#ifndef NDEBUG
  bool short_ = false;  // data_ points into the short-slice buffer
#endif
};

class BlockedGraph {
 public:
  /// Opens an SMPSTCSR file (see csr_file.hpp) behind a block cache. Throws
  /// StorageError on a bad file or malformed options.
  explicit BlockedGraph(const std::string& path,
                        const BlockCacheOptions& opts = {});

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(header_.num_vertices);
  }
  [[nodiscard]] EdgeId num_edges() const noexcept {
    return header_.num_arcs / 2;
  }
  [[nodiscard]] EdgeId num_arcs() const noexcept { return header_.num_arcs; }

  /// Slices of at most this many targets (64 bytes) inside one block are
  /// copied into the thread's short-slice buffer.
  static constexpr std::size_t kShortSliceTargets = 16;

  /// Degree from the two bounding offsets: one block read, two when they
  /// straddle a block. Throws StorageError on I/O failure.
  [[nodiscard]] EdgeId degree(VertexId v) const;

  /// Sorted neighbour slice of v: the offsets (as degree()), then one block
  /// read per block of the targets unless v is isolated. See the file
  /// comment for what the span points into.
  [[nodiscard]] NeighborSpan neighbors(VertexId v) const;

  /// Hints that v's offsets entry will be read soon (BlockCache::prefetch):
  /// lock-free, count-free, and a no-op when its block is not cached.
  void prefetch_offsets(VertexId v) const noexcept {
    const std::uint64_t pos = offset_pos(v);
    cache_.prefetch(pos >> block_shift_, in_block(pos));
  }

  /// Hints that neighbors(v) will be called soon: peeks offsets[v] and warms
  /// the first line of v's targets. Lock-free and count-free like
  /// prefetch_offsets(); does nothing where a block is not cached.
  void prefetch_neighbors(VertexId v) const noexcept {
    const std::uint64_t pos = offset_pos(v);
    std::uint64_t lo = 0;
    if (!cache_.peek_word(pos >> block_shift_, in_block(pos), lo)) return;
    // The peek may be stale; a bounded offset names a block of the file.
    if (lo >= header_.num_arcs) return;
    const std::uint64_t at = header_.targets_pos + lo * sizeof(VertexId);
    cache_.prefetch(at >> block_shift_, in_block(at));
  }

  /// Bytes this graph is charged against a registry budget: the block-cache
  /// frames and metadata — NOT the CSR size, which is csr_bytes().
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return sizeof(BlockedGraph) + cache_.memory_bytes();
  }
  /// On-disk CSR payload bytes (offsets + targets) — what cache-budget
  /// fractions are computed against.
  [[nodiscard]] std::uint64_t csr_bytes() const noexcept {
    return header_.payload_bytes();
  }

  [[nodiscard]] BlockCache::Stats cache_stats() const noexcept {
    return cache_.stats();
  }
  [[nodiscard]] std::uint64_t cache_read_retries() const noexcept {
    return cache_.read_retries();
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const CsrFileHeader& header() const noexcept {
    return header_;
  }

 private:
  /// offsets[v] and offsets[v + 1], one block read unless the pair
  /// straddles a block (1 vertex in block_bytes / 8).
  [[nodiscard]] std::pair<EdgeId, EdgeId> offset_pair(VertexId v) const;
  /// File byte of offsets[v], and a file byte's offset inside its block.
  [[nodiscard]] std::uint64_t offset_pos(VertexId v) const noexcept {
    return header_.offsets_pos + static_cast<std::uint64_t>(v) * sizeof(EdgeId);
  }
  [[nodiscard]] std::size_t in_block(std::uint64_t pos) const noexcept {
    return static_cast<std::size_t>(pos & (cache_.block_bytes() - 1));
  }

  std::string path_;
  CsrFileHeader header_;
  mutable BlockCache cache_;
  int block_shift_;  // log2 of the block size: block = byte >> shift
};

static_assert(!is_resident_v<BlockedGraph>,
              "BlockedGraph neighbour access does I/O; kernels must not "
              "treat it as resident");

}  // namespace smpst::storage
