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
  EdgeId lo = 0;
  EdgeId hi = 0;
  const std::byte* frame = cache_.pin(blk);
  std::memcpy(&lo, frame + at, sizeof(lo));
  if (at + 2 * sizeof(EdgeId) <= bb) {
    std::memcpy(&hi, frame + at + sizeof(EdgeId), sizeof(hi));
    cache_.unpin(blk);
    return {lo, hi};
  }
  // Unpin before the next pin: one pin per thread (docs/STORAGE.md).
  cache_.unpin(blk);
  frame = cache_.pin(blk + 1);
  std::memcpy(&hi, frame, sizeof(hi));
  cache_.unpin(blk + 1);
  return {lo, hi};
}

EdgeId BlockedGraph::degree(VertexId v) const {
  const auto [lo, hi] = offset_pair(v);
  return hi - lo;
}

NeighborSpan BlockedGraph::neighbors(VertexId v) const {
  const auto [lo, hi] = offset_pair(v);
  if (lo == hi) return {};
  NeighborSpan span;

  const std::size_t bb = cache_.block_bytes();
  const std::uint64_t byte_lo = header_.targets_pos + lo * sizeof(VertexId);
  const std::uint64_t byte_hi = header_.targets_pos + hi * sizeof(VertexId);
  const std::uint64_t blk_lo = byte_lo >> block_shift_;
  const std::uint64_t blk_hi = (byte_hi - 1) >> block_shift_;
  if (blk_lo == blk_hi) {
    // Zero-copy: point into the pinned frame. The 4-byte targets are
    // 4-aligned within the block (targets_pos is 8-aligned), so the cast
    // pointer is properly aligned for VertexId loads.
    const std::byte* frame = cache_.pin(blk_lo);
    span.cache_ = &cache_;
    span.block_ = blk_lo;
    span.data_ =
        reinterpret_cast<const VertexId*>(frame + (byte_lo - blk_lo * bb));
    span.size_ = static_cast<std::size_t>(hi - lo);
    return span;
  }

  // Slice crosses blocks: copy block-by-block holding one pin at a time, so
  // a minimal cache (two frames per shard) still makes progress.
  span.owned_.resize(static_cast<std::size_t>(hi - lo));
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
