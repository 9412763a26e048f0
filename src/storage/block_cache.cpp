#include "storage/block_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "support/assert.hpp"
#include "support/failpoint.hpp"
#include "support/race.hpp"

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

namespace detail {

namespace {

// Bit i set: stripe i is leased to a live thread. Leasing is acquire and
// returning is release, so a stripe's next owner sees every count its
// previous owner stored there.
std::atomic<std::uint64_t> g_leased_stripes{0};

struct StripeLease {
  std::uint32_t stripe = BlockCache::kHitStripes;
  StripeLease() noexcept {
    std::uint64_t leased = g_leased_stripes.load(std::memory_order_relaxed);
    while (leased != ~std::uint64_t{0}) {
      const int free_bit = std::countr_one(leased);
      if (g_leased_stripes.compare_exchange_weak(
              leased, leased | (std::uint64_t{1} << free_bit),
              std::memory_order_acquire, std::memory_order_relaxed)) {
        stripe = static_cast<std::uint32_t>(free_bit);
        break;
      }
    }
  }
  ~StripeLease() {
    // A hit counted after this (by another thread_local's destructor) goes
    // to the shared stripe.
    t_hit_stripe = BlockCache::kHitStripes + 1;
    if (stripe < BlockCache::kHitStripes) {
      g_leased_stripes.fetch_and(~(std::uint64_t{1} << stripe),
                                 std::memory_order_release);
    }
  }
};

static_assert(BlockCache::kHitStripes == 64,
              "one bit of g_leased_stripes per stripe");

}  // namespace

std::uint32_t lease_hit_stripe() noexcept {
  thread_local StripeLease lease;
  t_hit_stripe = lease.stripe + 1;
  return t_hit_stripe;
}

}  // namespace detail

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
  // shard_of() multiplies by a reciprocal that is exact only for blocks
  // and shard counts below 2^32; the frame-count check below refuses 2^32
  // shards or more.
  if (num_blocks_ > (std::uint64_t{1} << 32)) {
    fail("file has more than 2^32 blocks; use larger blocks");
  }
  shard_reciprocal_ = ~std::uint64_t{0} / shards + 1;
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
  if (per_shard >= kNotCached / shards) {
    fail("budget holds too many frames");
  }
  frames_total_ = per_shard * shards;

  // Sized once: readers that skip the shard lock index these arrays, so
  // they never move.
  table_slots_ = static_cast<std::size_t>(cap) * shards;
  table_ = std::make_unique<std::atomic<std::uint32_t>[]>(table_slots_);
  for (std::size_t i = 0; i < table_slots_; ++i) {
    table_[i].store(kNotCached, std::memory_order_relaxed);
  }
  frames_ = std::make_unique<Frame[]>(frames_total_);
  hit_stripes_ =
      std::make_unique<Padded<std::atomic<std::uint64_t>>[]>(kHitStripes + 1);

  shards_ = std::vector<Shard>(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    Shard& sh = shards_[s];
    LockGuard<Mutex> lk(sh.mutex);
    sh.first_frame = static_cast<std::uint32_t>(s * per_shard);
    sh.frames = static_cast<std::uint32_t>(per_shard);
    sh.free.reserve(per_shard);
    for (std::size_t i = per_shard; i > 0; --i) {
      sh.free.push_back(sh.first_frame + static_cast<std::uint32_t>(i - 1));
    }
  }

  fd_ = ::open(path_.c_str(), O_RDONLY);
  if (fd_ < 0) {
    fail("cannot open for read: " + path_ + " (" +
         std::string(std::strerror(errno)) + ")");
  }
}

BlockCache::~BlockCache() {
  if (fd_ >= 0) ::close(fd_);
  for (std::size_t i = 0; i < frames_total_; ++i) {
    delete[] frames_[i].bytes.load(std::memory_order_relaxed);
  }
  // count_hit() passed on whole batches only.
  for (std::uint32_t s = 0; s <= kHitStripes; ++s) {
    obs_hits_.add(hit_stripes_[s]->load(std::memory_order_relaxed) %
                  kHitBatch);
  }
}

std::size_t BlockCache::memory_bytes() const noexcept {
  return frames_total_ * (block_bytes_ + sizeof(Frame)) +
         shards_.size() * sizeof(Shard) +
         (kHitStripes + 1) * sizeof(hit_stripes_[0]) +
         table_slots_ * sizeof(std::uint32_t);
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

std::uint32_t BlockCache::claim_frame_locked(
    Shard& sh, bool& evicted,
    std::chrono::steady_clock::time_point& refuse_at) {
  std::uint32_t victim = kNoFrame;
  if (!sh.free.empty()) {
    victim = sh.free.back();
    sh.free.pop_back();
  } else if (policy_ == EvictionPolicy::kClock) {
    // Second chance: up to two sweeps — the first pass may only be clearing
    // reference bits, the second then finds the first unpinned clear frame.
    for (std::uint32_t step = 0; step < 2 * sh.frames; ++step) {
      const std::uint32_t idx = sh.first_frame + sh.hand;
      Frame& f = frames_[idx];
      sh.hand = sh.hand + 1 == sh.frames ? 0 : sh.hand + 1;
      if (f.pins > 0 || loading(f)) continue;
      if (f.ref.load(std::memory_order_relaxed)) {
        f.ref.store(false, std::memory_order_relaxed);
        continue;
      }
      victim = idx;
      break;
    }
  } else {
    std::uint64_t best = ~std::uint64_t{0};
    for (std::uint32_t i = 0; i < sh.frames; ++i) {
      const Frame& f = frames_[sh.first_frame + i];
      if (f.pins > 0 || loading(f)) continue;
      if (f.last_use <= best) {
        best = f.last_use;
        victim = sh.first_frame + i;
      }
    }
  }
  if (victim == kNoFrame) {
    // The caller re-runs its lookup after a wait: another thread may have
    // loaded the very block meanwhile.
    if (wait_for_unpin_locked(sh, refuse_at)) return kNoFrame;
    pin_refusals_.fetch_add(1, std::memory_order_relaxed);
    fail("block cache refuses to evict: every frame in the shard stayed "
         "pinned (budget too small for the number of concurrently held "
         "spans)");
  }
  Frame& f = frames_[victim];
  // Odd before anything else changes: a reader that sees any of the
  // writes below, the load's included, then fails its version re-check.
  f.version.store(f.version.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  const std::uint64_t old = f.block.load(std::memory_order_relaxed);
  if (old != Frame::kNoBlock) {
    table_[old].store(kNotCached, std::memory_order_relaxed);
    evicted = true;
    ++sh.evictions;
    obs_evictions_.add();
  }
  return victim;
}

void BlockCache::abandon_load(Shard& sh, std::uint64_t block,
                              std::uint32_t frame) noexcept {
  read_errors_.fetch_add(1, std::memory_order_relaxed);
  {
    LockGuard<Mutex> lk(sh.mutex);
    Frame& f = frames_[frame];
    table_[block].store(kNotCached, std::memory_order_relaxed);
    f.block.store(Frame::kNoBlock, std::memory_order_relaxed);
    f.version.store(f.version.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
    f.pins = 0;
    f.ref.store(false, std::memory_order_relaxed);
    sh.free.push_back(frame);
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

std::byte* BlockCache::fill_frame(std::uint64_t block, Frame& f) {
  std::byte* dst = f.bytes.load(std::memory_order_relaxed);
  if (dst == nullptr) {
    dst = new std::byte[block_bytes_];
    f.bytes.store(dst, std::memory_order_release);
  }
#if SMPST_TSAN_BUILD
  // An optimistic reader may copy this frame while it loads, with relaxed
  // atomic loads; ThreadSanitizer sees pread's writes as plain ones, so
  // its build reads aside and stores the words atomically.
  std::vector<std::uint64_t> bounce(block_bytes_ / sizeof(std::uint64_t));
  read_block(block, reinterpret_cast<std::byte*>(bounce.data()));
  auto* words = reinterpret_cast<std::uint64_t*>(dst);
  for (std::size_t i = 0; i < bounce.size(); ++i) {
    std::atomic_ref<std::uint64_t>(words[i]).store(bounce[i],
                                                   std::memory_order_relaxed);
  }
#else
  read_block(block, dst);
#endif
  return dst;
}

const std::byte* BlockCache::pin(std::uint64_t block) {
  SMPST_ASSERT(block < num_blocks_);
  Shard& sh = shard_of(block);
  std::chrono::steady_clock::time_point refuse_at{};
  for (;;) {
    std::uint32_t claimed = kNoFrame;
    bool evicted = false;
    {
      LockGuard<Mutex> lk(sh.mutex);
      const std::uint32_t cached =
          table_[block].load(std::memory_order_relaxed);
      if (cached != kNotCached) {
        Frame& f = frames_[cached];
        if (loading(f)) {
          // Another thread owns the disk read. Wait it out, then re-run the
          // whole lookup: a failed load clears the block's table entry and
          // may hand the frame to a different block entirely.
          while (loading(f) &&
                 f.block.load(std::memory_order_relaxed) == block) {
            sh.cv.wait(sh.mutex);
          }
          continue;
        }
        ++f.pins;
        f.ref.store(true, std::memory_order_relaxed);
        f.last_use = ++sh.tick;
        count_hit();
        return f.bytes.load(std::memory_order_relaxed);
      }
      claimed = claim_frame_locked(sh, evicted, refuse_at);
      if (claimed == kNoFrame) continue;
      Frame& f = frames_[claimed];
      f.block.store(block, std::memory_order_relaxed);
      f.pins = 1;
      f.ref.store(true, std::memory_order_relaxed);
      f.last_use = ++sh.tick;
      table_[block].store(claimed, std::memory_order_release);
    }

    // Unlocked I/O window: other blocks in the shard stay pinnable while the
    // read is in flight; same-block pins wait on the CondVar above. The
    // failpoints live here — injected faults model exactly the disk errors
    // this path can produce (and SL002 keeps failpoints out of lock scopes).
    try {
      if (evicted) SMPST_FAILPOINT("storage.cache.evict");
      SMPST_FAILPOINT("storage.block.read");
      const auto t0 = std::chrono::steady_clock::now();
      fill_frame(block, frames_[claimed]);
      const auto t1 = std::chrono::steady_clock::now();
      obs_read_latency_.record_ms(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    } catch (...) {
      // Counts every failed load — real pread errors and injected faults
      // alike; both take this rollback.
      abandon_load(sh, block, claimed);
      throw;
    }
    {
      LockGuard<Mutex> lk(sh.mutex);
      Frame& f = frames_[claimed];
      // Even again: the frame holds the block's bytes.
      f.version.store(f.version.load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
      ++sh.misses;
    }
    sh.cv.notify_all();
    obs_misses_.add();
    return frames_[claimed].bytes.load(std::memory_order_relaxed);
  }
}

void BlockCache::unpin(std::uint64_t block) noexcept {
  Shard& sh = shard_of(block);
  bool wake = false;
  {
    LockGuard<Mutex> lk(sh.mutex);
    const std::uint32_t cached = table_[block].load(std::memory_order_relaxed);
    SMPST_ASSERT(cached != kNotCached);
    Frame& f = frames_[cached];
    SMPST_ASSERT(f.pins > 0);
    --f.pins;
    wake = f.pins == 0 && sh.waiters > 0;
  }
  if (wake) sh.cv.notify_all();
}

void BlockCache::read_words_pinned(std::uint64_t block, std::size_t at,
                                   std::size_t words, std::uint64_t* dst) {
  copy_words(pin(block) + at, words, dst);
  unpin(block);
}

BlockCache::Stats BlockCache::stats() const noexcept {
  Stats s;
  for (const Shard& sh : shards_) {
    LockGuard<Mutex> lk(sh.mutex);
    s.misses += sh.misses;
    s.evictions += sh.evictions;
  }
  for (std::uint32_t i = 0; i <= kHitStripes; ++i) {
    s.hits += hit_stripes_[i]->load(std::memory_order_relaxed);
  }
  s.read_errors = read_errors_.load(std::memory_order_relaxed);
  s.pin_refusals = pin_refusals_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace smpst::storage
