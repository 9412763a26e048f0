#include "storage/blocked_graph.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "support/assert.hpp"

namespace smpst::storage {

static_assert(GraphStorage<BlockedGraph>,
              "BlockedGraph must satisfy the kernel storage concept");

BlockedGraph::BlockedGraph(const std::string& path,
                           const BlockCacheOptions& opts)
    : path_(path),
      header_(read_csr_header(path)),
      cache_(path, header_.file_bytes, opts),
      block_shift_(std::countr_zero(cache_.block_bytes())) {}

namespace {

/// Words a short slice can touch: kShortSliceTargets targets starting half
/// way into a word.
constexpr std::size_t kShortSliceWords =
    BlockedGraph::kShortSliceTargets * sizeof(VertexId) /
        sizeof(std::uint64_t) +
    1;

/// Short slices are copied here; a span points into it until the thread's
/// next neighbors() call.
thread_local std::uint64_t t_short_slice[kShortSliceWords];

}  // namespace

std::pair<EdgeId, EdgeId> BlockedGraph::offset_pair(VertexId v) const {
  SMPST_ASSERT(static_cast<std::uint64_t>(v) < header_.num_vertices);
  const std::size_t bb = cache_.block_bytes();
  const std::uint64_t pos =
      header_.offsets_pos + static_cast<std::uint64_t>(v) * sizeof(EdgeId);
  // Blocks are >= 64 bytes and the header is 64 bytes, so an 8-byte offset
  // entry is 8-aligned within the file and never straddles a block; only
  // the pair can, when offsets[v] is the last entry of its block.
  const std::uint64_t blk = pos >> block_shift_;
  const std::size_t at = static_cast<std::size_t>(pos - blk * bb);
  std::uint64_t pair[2];
  if (at + 2 * sizeof(EdgeId) <= bb) {
    cache_.read_words(blk, at, 2, pair);
  } else {
    cache_.read_words(blk, at, 1, &pair[0]);
    cache_.read_words(blk + 1, 0, 1, &pair[1]);
  }
  return {pair[0], pair[1]};
}

EdgeId BlockedGraph::degree(VertexId v) const {
  const auto [lo, hi] = offset_pair(v);
  return hi - lo;
}

NeighborSpan BlockedGraph::neighbors(VertexId v) const {
#ifndef NDEBUG
  // A live short span would read the buffer this call may overwrite.
  SMPST_ASSERT(!detail::t_short_span_live);
#endif
  const auto [lo, hi] = offset_pair(v);
  if (lo == hi) return {};
  NeighborSpan span;

  const std::size_t bb = cache_.block_bytes();
  const std::uint64_t byte_lo = header_.targets_pos + lo * sizeof(VertexId);
  const std::uint64_t byte_hi = header_.targets_pos + hi * sizeof(VertexId);
  const std::uint64_t blk_lo = byte_lo >> block_shift_;
  const std::uint64_t blk_hi = (byte_hi - 1) >> block_shift_;
  const auto size = static_cast<std::size_t>(hi - lo);
  if (blk_lo == blk_hi && size <= kShortSliceTargets) {
    // Copy the 8-byte words covering the slice: targets_pos and block
    // boundaries are 8-aligned, so the words stay inside the block.
    const std::uint64_t word_lo = byte_lo & ~std::uint64_t{7};
    const std::uint64_t word_hi = (byte_hi + 7) & ~std::uint64_t{7};
    cache_.read_words(blk_lo, static_cast<std::size_t>(word_lo - blk_lo * bb),
                      static_cast<std::size_t>((word_hi - word_lo) / 8),
                      t_short_slice);
    span.data_ = reinterpret_cast<const VertexId*>(t_short_slice) +
                 (byte_lo - word_lo) / sizeof(VertexId);
    span.size_ = size;
#ifndef NDEBUG
    span.short_ = true;
    detail::t_short_span_live = true;
#endif
    return span;
  }
  if (blk_lo == blk_hi) {
    // Zero-copy: point into the pinned frame. The 4-byte targets are
    // 4-aligned within the block (targets_pos is 8-aligned), so the cast
    // pointer is properly aligned for VertexId loads.
    const std::byte* frame = cache_.pin(blk_lo);
    span.cache_ = &cache_;
    span.block_ = blk_lo;
    span.data_ =
        reinterpret_cast<const VertexId*>(frame + (byte_lo - blk_lo * bb));
    span.size_ = size;
    return span;
  }

  // Slice crosses blocks: copy block-by-block holding one pin at a time, so
  // a minimal cache (two frames per shard) still makes progress.
  span.owned_.resize(size);
  auto* dst = reinterpret_cast<std::byte*>(span.owned_.data());
  std::uint64_t cur = byte_lo;
  while (cur < byte_hi) {
    const std::uint64_t blk = cur >> block_shift_;
    const std::uint64_t take =
        std::min<std::uint64_t>(byte_hi, (blk + 1) * bb) - cur;
    const std::byte* frame = cache_.pin(blk);
    std::memcpy(dst, frame + (cur - blk * bb),
                static_cast<std::size_t>(take));
    cache_.unpin(blk);
    dst += take;
    cur += take;
  }
  span.data_ = span.owned_.data();
  span.size_ = span.owned_.size();
  return span;
}

}  // namespace smpst::storage
