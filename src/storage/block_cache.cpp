#include "storage/block_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "support/assert.hpp"
#include "support/failpoint.hpp"

namespace smpst::storage {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw StorageError("smpst::storage: " + what);
}

bool is_pow2(std::size_t x) noexcept { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

const char* to_string(EvictionPolicy p) noexcept {
  return p == EvictionPolicy::kClock ? "clock" : "lru";
}

EvictionPolicy parse_eviction_policy(const std::string& s) {
  if (s == "clock") return EvictionPolicy::kClock;
  if (s == "lru") return EvictionPolicy::kLru;
  fail("unknown eviction policy: " + s);
}

BlockCache::BlockCache(std::string path, std::uint64_t file_bytes,
                       const BlockCacheOptions& opts)
    : path_(std::move(path)),
      file_bytes_(file_bytes),
      block_bytes_(opts.block_bytes),
      num_blocks_((file_bytes + opts.block_bytes - 1) / opts.block_bytes),
      policy_(opts.policy),
      obs_hits_(obs::MetricsRegistry::instance().counter("storage.cache.hits")),
      obs_misses_(
          obs::MetricsRegistry::instance().counter("storage.cache.misses")),
      obs_evictions_(
          obs::MetricsRegistry::instance().counter("storage.cache.evictions")),
      obs_read_latency_(
          obs::MetricsRegistry::instance().histogram("storage.block.read")) {
  if (!is_pow2(block_bytes_) || block_bytes_ < 64) {
    fail("block_bytes must be a power of two >= 64, got " +
         std::to_string(block_bytes_));
  }
  if (file_bytes_ == 0) fail("empty file: " + path_);

  const std::size_t shards = opts.shards == 0 ? 1 : opts.shards;
  // The budget is a target, floored at two frames per shard so a pin plus a
  // concurrent miss can always coexist; never more frames than blocks.
  // Both divisions round up: a budget covering the whole file must yield a
  // frame for every block of every shard (block→shard is modular, so the
  // fullest shard holds ceil(blocks/shards)), or a "100%" cache would evict.
  const std::uint64_t budget_frames =
      (opts.budget_bytes + block_bytes_ - 1) / block_bytes_;
  std::size_t per_shard = static_cast<std::size_t>(
      (budget_frames + shards - 1) / static_cast<std::uint64_t>(shards));
  if (per_shard < 2) per_shard = 2;
  const std::uint64_t cap =
      (num_blocks_ + shards - 1) / static_cast<std::uint64_t>(shards);
  if (per_shard > cap) per_shard = static_cast<std::size_t>(cap);
  if (per_shard == 0) per_shard = 1;
  // Frame indices are 32-bit in the frame table; kNotCached is the sentinel.
  if (per_shard >= kNotCached) fail("budget holds too many frames per shard");

  shards_ = std::vector<Shard>(shards);
  for (Shard& sh : shards_) {
    LockGuard<Mutex> lk(sh.mutex);
    sh.table.assign(static_cast<std::size_t>(cap), kNotCached);
    sh.frames.resize(per_shard);
    sh.free.reserve(per_shard);
    for (std::size_t i = per_shard; i > 0; --i) sh.free.push_back(i - 1);
  }
  frames_total_ = per_shard * shards;

  fd_ = ::open(path_.c_str(), O_RDONLY);
  if (fd_ < 0) {
    fail("cannot open for read: " + path_ + " (" +
         std::string(std::strerror(errno)) + ")");
  }
}

BlockCache::~BlockCache() {
  if (fd_ >= 0) ::close(fd_);
}

std::size_t BlockCache::memory_bytes() const noexcept {
  const std::uint64_t table_slots =
      (num_blocks_ + shards_.size() - 1) / shards_.size() * shards_.size();
  return frames_total_ * (block_bytes_ + sizeof(Frame)) +
         shards_.size() * sizeof(Shard) +
         static_cast<std::size_t>(table_slots) * sizeof(std::uint32_t);
}

bool BlockCache::wait_for_unpin_locked(
    Shard& sh, std::chrono::steady_clock::time_point& refuse_at) noexcept {
  // Every frame is pinned or loading. A holder releases its pin when it
  // finishes the span, so the wait ends with an unpin. It is bounded because
  // a thread that pins more blocks than the shard has frames would otherwise
  // wait for itself.
  if (refuse_at == std::chrono::steady_clock::time_point{}) {
    refuse_at = std::chrono::steady_clock::now() + kPinWaitLimit;
  }
  ++sh.waiters;
  const std::cv_status st = sh.cv.wait_until(sh.mutex, refuse_at);
  --sh.waiters;
  return st == std::cv_status::no_timeout;
}

std::size_t BlockCache::claim_frame_locked(
    Shard& sh, bool& evicted,
    std::chrono::steady_clock::time_point& refuse_at) {
  if (!sh.free.empty()) {
    const std::size_t idx = sh.free.back();
    sh.free.pop_back();
    return idx;
  }
  const std::size_t nf = sh.frames.size();
  std::size_t victim = nf;  // sentinel: none found
  if (policy_ == EvictionPolicy::kClock) {
    // Second chance: up to two sweeps — the first pass may only be clearing
    // reference bits, the second then finds the first unpinned clear frame.
    for (std::size_t step = 0; step < 2 * nf; ++step) {
      Frame& f = sh.frames[sh.hand];
      const std::size_t idx = sh.hand;
      sh.hand = (sh.hand + 1) % nf;
      if (f.pins > 0 || f.loading) continue;
      if (f.ref) {
        f.ref = false;
        continue;
      }
      victim = idx;
      break;
    }
  } else {
    std::uint64_t best = ~std::uint64_t{0};
    for (std::size_t i = 0; i < nf; ++i) {
      const Frame& f = sh.frames[i];
      if (f.pins > 0 || f.loading) continue;
      if (f.last_use <= best) {
        best = f.last_use;
        victim = i;
      }
    }
  }
  if (victim == nf) {
    // The caller re-runs its lookup after a wait: another thread may have
    // loaded the very block meanwhile.
    if (wait_for_unpin_locked(sh, refuse_at)) return kNoFrame;
    pin_refusals_.fetch_add(1, std::memory_order_relaxed);
    fail("block cache refuses to evict: every frame in the shard stayed "
         "pinned (budget too small for the number of concurrently held "
         "spans)");
  }
  Frame& f = sh.frames[victim];
  SMPST_ASSERT(f.block != Frame::kNoBlock);
  sh.table[f.block / shards_.size()] = kNotCached;
  f.block = Frame::kNoBlock;
  evicted = true;
  ++sh.evictions;
  obs_evictions_.add();
  return victim;
}

void BlockCache::abandon_load(const Location& at, Frame& f) noexcept {
  read_errors_.fetch_add(1, std::memory_order_relaxed);
  Shard& sh = at.shard;
  {
    LockGuard<Mutex> lk(sh.mutex);
    sh.table[at.slot] = kNotCached;
    f.block = Frame::kNoBlock;
    f.loading = false;
    f.pins = 0;
    f.ref = false;
    sh.free.push_back(static_cast<std::size_t>(&f - sh.frames.data()));
  }
  sh.cv.notify_all();
}

void BlockCache::read_block(std::uint64_t block, std::byte* dst) {
  const std::uint64_t pos = block * block_bytes_;
  SMPST_ASSERT(pos < file_bytes_);
  std::size_t want = block_bytes_;
  if (file_bytes_ - pos < want) {
    want = static_cast<std::size_t>(file_bytes_ - pos);
  }
  std::size_t done = 0;
  while (done < want) {
    const ssize_t got =
        ::pread(fd_, dst + done, want - done,
                static_cast<off_t>(pos + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      fail("pread failed at offset " + std::to_string(pos + done) + ": " +
           std::string(std::strerror(errno)) + " (" + path_ + ")");
    }
    if (got == 0) {
      fail("unexpected EOF at offset " + std::to_string(pos + done) + " (" +
           path_ + ")");
    }
    done += static_cast<std::size_t>(got);
  }
}

const std::byte* BlockCache::pin(std::uint64_t block) {
  SMPST_ASSERT(block < num_blocks_);
  const Location at = locate(block);
  Shard& sh = at.shard;
  std::chrono::steady_clock::time_point refuse_at{};
  for (;;) {
    Frame* claimed = nullptr;
    bool evicted = false;
    {
      LockGuard<Mutex> lk(sh.mutex);
      const std::uint32_t cached = sh.table[at.slot];
      if (cached != kNotCached) {
        Frame& f = sh.frames[cached];
        if (f.loading) {
          // Another thread owns the disk read. Wait it out, then re-run the
          // whole lookup: a failed load clears the block's table entry and
          // may hand the frame to a different block entirely.
          while (f.loading && f.block == block) sh.cv.wait(sh.mutex);
          continue;
        }
        ++f.pins;
        f.ref = true;
        f.last_use = ++sh.tick;
        ++sh.hits;
        obs_hits_.add();
        return f.data.get();
      }
      const std::size_t idx = claim_frame_locked(sh, evicted, refuse_at);
      if (idx == kNoFrame) continue;
      Frame& f = sh.frames[idx];
      f.block = block;
      f.loading = true;
      f.pins = 1;
      f.ref = true;
      f.last_use = ++sh.tick;
      if (f.data == nullptr) f.data.reset(new std::byte[block_bytes_]);
      sh.table[at.slot] = static_cast<std::uint32_t>(idx);
      claimed = &f;
    }

    // Unlocked I/O window: other blocks in the shard stay pinnable while the
    // read is in flight; same-block pins wait on the CondVar above. The
    // failpoints live here — injected faults model exactly the disk errors
    // this path can produce (and SL002 keeps failpoints out of lock scopes).
    try {
      if (evicted) SMPST_FAILPOINT("storage.cache.evict");
      SMPST_FAILPOINT("storage.block.read");
      const auto t0 = std::chrono::steady_clock::now();
      read_block(block, claimed->data.get());
      const auto t1 = std::chrono::steady_clock::now();
      obs_read_latency_.record_ms(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    } catch (...) {
      // Counts every failed load — real pread errors and injected faults
      // alike; both take this rollback.
      abandon_load(at, *claimed);
      throw;
    }
    {
      LockGuard<Mutex> lk(sh.mutex);
      claimed->loading = false;
      ++sh.misses;
    }
    sh.cv.notify_all();
    obs_misses_.add();
    return claimed->data.get();
  }
}

void BlockCache::unpin(std::uint64_t block) noexcept {
  const Location at = locate(block);
  Shard& sh = at.shard;
  bool wake = false;
  {
    LockGuard<Mutex> lk(sh.mutex);
    const std::uint32_t cached = sh.table[at.slot];
    SMPST_ASSERT(cached != kNotCached);
    Frame& f = sh.frames[cached];
    SMPST_ASSERT(f.pins > 0);
    --f.pins;
    wake = f.pins == 0 && sh.waiters > 0;
  }
  if (wake) sh.cv.notify_all();
}

BlockCache::Stats BlockCache::stats() const noexcept {
  Stats s;
  for (const Shard& sh : shards_) {
    LockGuard<Mutex> lk(sh.mutex);
    s.hits += sh.hits;
    s.misses += sh.misses;
    s.evictions += sh.evictions;
  }
  s.read_errors = read_errors_.load(std::memory_order_relaxed);
  s.pin_refusals = pin_refusals_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace smpst::storage
