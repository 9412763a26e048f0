// Tests for the SMP runtime: spinlock, barriers, thread pool, work-stealing
// queues, and the termination primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "ablation_barriers.hpp"
#include "core/steal_policy.hpp"
#include "sched/barrier.hpp"
#include "sched/spinlock.hpp"
#include "sched/termination.hpp"
#include "sched/thread_pool.hpp"
#include "sched/work_queue.hpp"
#include "support/cpu.hpp"
#include "support/prng.hpp"

namespace smpst {
namespace {

TEST(SpinLock, MutualExclusionUnderContention) {
  SpinLock lock;
  long counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(SpinLock, TryLock) {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

template <typename Barrier>
void barrier_phase_test() {
  constexpr std::size_t kThreads = 6;
  constexpr int kPhases = 50;
  Barrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int ph = 0; ph < kPhases; ++ph) {
        phase_counter.fetch_add(1);
        barrier.arrive_and_wait();
        // After the barrier, all kThreads increments of this phase are done.
        if (phase_counter.load() < (ph + 1) * static_cast<int>(kThreads)) {
          failed.store(true);
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(phase_counter.load(), kPhases * static_cast<int>(kThreads));
}

TEST(SpinBarrier, SeparatesPhases) { barrier_phase_test<SpinBarrier>(); }
TEST(BlockingBarrier, SeparatesPhases) {
  barrier_phase_test<BlockingBarrier>();
}

TEST(SpinBarrier, CountsEpisodes) {
  SpinBarrier b(1);
  EXPECT_EQ(b.episodes(), 0u);
  b.arrive_and_wait();
  b.arrive_and_wait();
  EXPECT_EQ(b.episodes(), 2u);
}

TEST(ThreadPool, RunsBodyOnEveryThread) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<int> hits(4, 0);
  pool.run([&](std::size_t tid) { hits[tid] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 4);
}

TEST(ThreadPool, ReusableAcrossRegions) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int r = 0; r < 20; ++r) {
    pool.run([&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 60);
}

TEST(ThreadPool, ConcurrentCallersAreSerialized) {
  // The query service shares one pool between request handlers; regions from
  // different caller threads must not interleave or lose work.
  ThreadPool pool(3);
  std::atomic<int> total{0};
  std::atomic<int> inside{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int r = 0; r < 25; ++r) {
        pool.run([&](std::size_t) {
          EXPECT_LE(inside.fetch_add(1) + 1, 3);  // one region at a time
          total.fetch_add(1);
          inside.fetch_sub(1);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 4 * 25 * 3);
}

TEST(ThreadPool, PropagatesWorkerException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.run([](std::size_t tid) {
        if (tid == 1) throw std::runtime_error("boom");
      }),
      std::runtime_error);
  // Pool remains usable after an exception.
  std::atomic<int> total{0};
  pool.run([&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 2);
}

TEST(SplitQueue, FifoOrder) {
  SplitQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push(i);
  EXPECT_EQ(q.size_hint(), 10u);
  int v = -1;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.pop(v));
  EXPECT_EQ(q.size_hint(), 0u);
}

TEST(SplitQueue, PushBulk) {
  SplitQueue<int> q;
  const int items[] = {1, 2, 3};
  q.push_bulk(items, 3);
  EXPECT_EQ(q.size_hint(), 3u);
}

TEST(SplitQueue, StealTakesFromFront) {
  SplitQueue<int> q;
  for (int i = 0; i < 8; ++i) q.push(i);
  std::vector<int> out;
  EXPECT_EQ(q.steal(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  int v = -1;
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 4);
}

TEST(SplitQueue, StealMoreThanAvailable) {
  SplitQueue<int> q;
  q.push(42);
  std::vector<int> out;
  EXPECT_EQ(q.steal(out, 100), 1u);
  EXPECT_EQ(q.size_hint(), 0u);
  EXPECT_EQ(q.steal(out, 1), 0u);
}

TEST(SplitQueue, CompactionKeepsContents) {
  // The dead prefix the vector-backed queue used to compact away is now
  // ring space the tail wraps into: 900 pops free the front, 300 pushes
  // wrap past the end of the 1024-slot ring, a steal takes a run across the
  // wrap, and 1000 more pushes force a growth while the live run straddles
  // the wrap.
  SplitQueue<int> q;
  ASSERT_EQ(q.capacity(), 1024u);
  for (int i = 0; i < 1000; ++i) q.push(i);
  int v = -1;
  for (int i = 0; i < 900; ++i) ASSERT_TRUE(q.pop(v));
  for (int i = 1000; i < 1300; ++i) q.push(i);
  EXPECT_EQ(q.capacity(), 1024u);  // wrapped, not grown
  std::vector<int> loot;
  ASSERT_EQ(q.steal(loot, 200), 200u);  // slots 900..1023, then 0..75
  for (int i = 0; i < 200; ++i) ASSERT_EQ(loot[i], 900 + i);
  for (int i = 1300; i < 2300; ++i) q.push(i);
  EXPECT_EQ(q.capacity(), 2048u);
  EXPECT_EQ(q.size_hint(), 1200u);
  for (int i = 1100; i < 2300; ++i) {
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.pop(v));
}

TEST(SplitQueue, FifoOrderSurvivesManyWrapsAndGrowths) {
  // A 4-slot ring; the live count climbs by one per round, so the ring
  // doubles several times and the indices wrap hundreds of times.
  SplitQueue<int> q(4);
  ASSERT_EQ(q.capacity(), 4u);
  int next_in = 0;
  int next_out = 0;
  int v = -1;
  for (int round = 0; round < 2000; ++round) {
    const int pushes = 3 + round % 5;
    for (int i = 0; i < pushes; ++i) q.push(next_in++);
    for (int i = 0; i < pushes - 1 + (round % 3 == 0 ? 0 : 1); ++i) {
      ASSERT_TRUE(q.pop(v));
      ASSERT_EQ(v, next_out++);
    }
    ASSERT_EQ(q.size_hint(), static_cast<std::size_t>(next_in - next_out));
  }
  EXPECT_GT(q.capacity(), 512u);
  while (q.pop(v)) ASSERT_EQ(v, next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(SplitQueue, TailSlotsStayInvisibleUntilPublished) {
  SplitQueue<int> q(8);
  q.push(1);
  const auto slots = q.tail_slots(0, 2);
  slots[0] = 2;
  slots[1] = 3;
  q.tail_slots(2, 1)[0] = 4;  // a second expansion's child, after the first's
  // Written but unpublished: a thief sees only the published element.
  EXPECT_EQ(q.size_hint(), 1u);
  std::vector<int> loot;
  EXPECT_EQ(q.steal(loot, 8), 1u);
  EXPECT_EQ(loot, (std::vector<int>{1}));
  int batch[8] = {};
  ASSERT_EQ(q.publish_and_pop_batch(2, batch, 8), 1u);  // publishes 2 and 3
  EXPECT_EQ(batch[0], 2);
  EXPECT_EQ(q.size_hint(), 1u);
  ASSERT_EQ(q.publish_and_pop_batch(0, batch, 8), 1u);
  EXPECT_EQ(batch[0], 3);
  int v = -1;
  EXPECT_FALSE(q.pop(v));
}

TEST(SplitQueue, TailSlotsGrowTheRingAroundWrappedElements) {
  SplitQueue<int> q(4);
  for (int i = 0; i < 3; ++i) q.push(i);
  int v = -1;
  ASSERT_TRUE(q.pop(v));
  q.push(3);  // the live run 1, 2, 3 now wraps past the ring's end
  const auto slots = q.tail_slots(0, 40);  // 43 live: the ring must grow
  EXPECT_GE(q.capacity(), 43u);
  EXPECT_EQ(q.size_hint(), 3u);
  for (int i = 0; i < 40; ++i) slots[i] = 4 + i;
  q.publish(40);
  for (int i = 1; i < 44; ++i) {
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.pop(v));
}

TEST(SplitQueue, UnpublishedSlotsSurviveAGrowth) {
  // A batch's first expansions fill the ring's free slots past the tail
  // without publishing them; the next expansion's room forces a doubling,
  // which must carry those written slots to their new positions.
  SplitQueue<int> q(8);
  for (int i = 0; i < 5; ++i) q.push(i);
  int v = -1;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.pop(v));
  for (int i = 5; i < 9; ++i) q.push(i);  // live 3..8 wraps past slot 7
  std::size_t skip = 0;
  int next = 9;
  for (int expansion = 0; expansion < 2; ++expansion) {
    q.tail_slots(skip, 1)[0] = next++;
    ++skip;
  }
  ASSERT_EQ(q.capacity(), 8u);  // 6 live + 2 written: full, not grown
  const auto slots = q.tail_slots(skip, 20);
  EXPECT_GE(q.capacity(), 28u);
  EXPECT_EQ(q.size_hint(), 6u);  // the written slots are still unpublished
  for (std::size_t i = 0; i < 20; ++i) slots[i] = next++;
  q.publish(skip + 20);
  for (int i = 3; i < next; ++i) {
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.pop(v));
}

TEST(SplitQueue, BatchTakeLeavesThievesHalf) {
  // publish_and_pop_batch takes at most `max` and at most half the queue,
  // rounded up, front first.
  SplitQueue<int> q;
  int batch[8] = {};
  for (int i = 0; i < 20; ++i) q.push(i);
  ASSERT_EQ(q.publish_and_pop_batch(0, batch, 8), 8u);  // max binds
  for (int i = 0; i < 8; ++i) EXPECT_EQ(batch[i], i);
  EXPECT_EQ(q.size_hint(), 12u);
  ASSERT_EQ(q.publish_and_pop_batch(0, batch, 3), 3u);  // a smaller max
  EXPECT_EQ(batch[0], 8);
  std::vector<int> loot;
  ASSERT_EQ(q.steal(loot, 4), 4u);  // 15..19 left
  ASSERT_EQ(q.publish_and_pop_batch(0, batch, 8), 3u);  // half binds: ⌈5/2⌉
  EXPECT_EQ(batch[0], 15);
  EXPECT_EQ(batch[2], 17);
  EXPECT_EQ(q.size_hint(), 2u);
  q.tail_slots(0, 1)[0] = 20;
  ASSERT_EQ(q.publish_and_pop_batch(1, batch, 8), 2u);  // ⌈3/2⌉, counted
  EXPECT_EQ(batch[1], 19);                              // after publishing
  ASSERT_EQ(q.publish_and_pop_batch(0, batch, 8), 1u);  // ⌈1/2⌉ = 1
  EXPECT_EQ(batch[0], 20);
  EXPECT_EQ(q.publish_and_pop_batch(0, batch, 8), 0u);
}

TEST(SplitQueue, PublishAndPopNothingOnEmptyQueue) {
  SplitQueue<int> q;
  int batch[4] = {-1, -1, -1, -1};
  EXPECT_EQ(q.publish_and_pop_batch(0, batch, 4), 0u);
  EXPECT_EQ(batch[0], -1);
  EXPECT_EQ(q.size_hint(), 0u);
  q.push(5);
  int v = -1;
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(q.publish_and_pop_batch(0, batch, 4), 0u);
  EXPECT_EQ(batch[0], -1);
  EXPECT_EQ(q.size_hint(), 0u);
}

TEST(SplitQueue, ConcurrentOwnerAndThieves) {
  SplitQueue<int> q;
  constexpr int kItems = 100000;
  std::atomic<long> consumed_sum{0};
  std::atomic<int> consumed_count{0};

  std::thread owner([&] {
    int popped;
    for (int i = 0; i < kItems; ++i) {
      q.push(i);
      if (i % 3 == 0 && q.pop(popped)) {
        consumed_sum.fetch_add(popped);
        consumed_count.fetch_add(1);
      }
    }
    while (q.pop(popped)) {
      consumed_sum.fetch_add(popped);
      consumed_count.fetch_add(1);
    }
  });
  std::vector<std::thread> thieves;
  std::atomic<bool> stop{false};
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&] {
      std::vector<int> loot;
      while (!stop.load()) {
        loot.clear();
        if (q.steal(loot, 8) > 0) {
          for (int v : loot) consumed_sum.fetch_add(v);
          consumed_count.fetch_add(static_cast<int>(loot.size()));
        }
      }
    });
  }
  owner.join();
  // Let thieves drain anything left, then stop them.
  std::vector<int> loot;
  while (q.steal(loot, 1024) > 0) {
  }
  for (int v : loot) consumed_sum.fetch_add(v);
  consumed_count.fetch_add(static_cast<int>(loot.size()));
  stop.store(true);
  for (auto& t : thieves) t.join();

  EXPECT_EQ(consumed_count.load(), kItems);
  EXPECT_EQ(consumed_sum.load(), static_cast<long>(kItems) * (kItems - 1) / 2);
}

TEST(PendingCounter, TracksProduceConsume) {
  PendingCounter pc;
  pc.reset(2);
  EXPECT_FALSE(pc.drained());
  pc.consumed_produced(3);  // consumed one, produced three
  EXPECT_EQ(pc.value(), 4);
  pc.add(-4);
  EXPECT_TRUE(pc.drained());
}

TEST(PendingCounter, OneThreadTakesTheDrain) {
  PendingCounter pc;
  pc.reset(1);
  EXPECT_FALSE(pc.try_take_drain());  // work pending
  pc.add(-1);
  std::atomic<int> winners{0};
  ThreadPool pool(4);
  pool.run([&](std::size_t) {
    if (pc.try_take_drain()) winners.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(winners.load(), 1);
  EXPECT_FALSE(pc.drained());  // the holder's unit
  pc.add(-1);
  EXPECT_TRUE(pc.try_take_drain());
}

// Workers take items from a bag, produce 0-2 children each (a critical
// branching process, so the bag keeps running dry) and settle through their
// own PendingCredit; a worker that finds the bag empty flushes and, like
// the traversal's root claim, may take the drain and seed one new item.
// Invariant: shared == bag + items in hand + sum of credits. A worker holding
// an item therefore always sees at least its item and its own credit, a
// successful drain sees an empty bag, and once every worker has flushed the
// shared count is exactly the bag.
TEST(PendingCounter, CreditNeverUnderCountsAndFlushesExact) {
  constexpr std::size_t kThreads = 4;
  constexpr int kSteps = 200000;
  PendingCounter shared;
  std::atomic<std::int64_t> bag{8};
  shared.reset(8);
  std::atomic<int> undercounts{0};
  std::atomic<int> bad_drains{0};
  std::atomic<std::uint64_t> drains{0};
  ThreadPool pool(kThreads);
  pool.run([&](std::size_t tid) {
    Xoshiro256 rng(derive_stream_seed(7, tid));
    PendingCredit credit;
    for (int step = 0; step < kSteps; ++step) {
      std::int64_t have = bag.load(std::memory_order_acquire);
      while (have > 0 &&
             !bag.compare_exchange_weak(have, have - 1,
                                        std::memory_order_acq_rel)) {
      }
      if (have <= 0) {
        credit.flush(shared);
        if (shared.try_take_drain()) {
          if (bag.load(std::memory_order_acquire) != 0) ++bad_drains;
          drains.fetch_add(1, std::memory_order_relaxed);
          bag.fetch_add(1, std::memory_order_acq_rel);  // the drain unit
        }
        continue;
      }
      if (shared.value() < credit.credit() + 1) ++undercounts;
      const auto produced = static_cast<std::int64_t>(rng.next_bounded(3));
      credit.consumed_produced(shared, produced);
      // Counted, not yet published.
      if (shared.value() < credit.credit() + produced) ++undercounts;
      bag.fetch_add(produced, std::memory_order_acq_rel);
    }
    credit.flush(shared);
  });
  EXPECT_EQ(undercounts.load(), 0);
  EXPECT_EQ(bad_drains.load(), 0);
  EXPECT_GT(drains.load(), 0u);
  EXPECT_EQ(shared.value(), bag.load());
}

TEST(PendingCounter, CreditSettlesLocallyUntilTheExcess) {
  PendingCounter shared;
  shared.reset(2);  // two items queued
  PendingCredit credit;
  // A leaf: 1 pending, and the shared count over-counts by 1.
  credit.consumed_produced(shared, 0);
  EXPECT_EQ(credit.credit(), 1);
  EXPECT_EQ(shared.value(), 2);
  EXPECT_EQ(credit.shared_updates(), 0u);
  credit.consumed_produced(shared, 2);  // 2 pending: the credit pays the +1
  EXPECT_EQ(credit.credit(), 0);
  EXPECT_EQ(shared.value(), 2);
  credit.consumed_produced(shared, 4);  // 5 pending: +3 exceeds the credit
  EXPECT_EQ(shared.value(), 5);
  EXPECT_EQ(credit.shared_updates(), 1u);
  for (int i = 0; i < 5; ++i) credit.consumed_produced(shared, 0);
  EXPECT_EQ(credit.credit(), 5);  // nothing pending, but not yet drained
  EXPECT_FALSE(shared.drained());
  credit.flush(shared);
  EXPECT_TRUE(shared.drained());
  EXPECT_EQ(credit.shared_updates(), 2u);
  credit.flush(shared);  // nothing owed: no RMW
  EXPECT_EQ(credit.shared_updates(), 2u);
}

TEST(IdleGate, TimesOutWithoutNotify) {
  IdleGate gate;
  const auto sleepers = gate.sleep_for(std::chrono::microseconds(500));
  EXPECT_EQ(sleepers, 1u);
  EXPECT_EQ(gate.sleepers(), 0u);
}

TEST(IdleGate, NotifyWakesSleeper) {
  IdleGate gate;
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    gate.sleep_for(std::chrono::microseconds(500000));
    woke.store(true);
  });
  while (gate.sleepers() == 0) std::this_thread::yield();
  gate.notify_work();
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

TEST(IdleGate, ReportsSimultaneousSleepers) {
  IdleGate gate;
  std::atomic<std::size_t> max_seen{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      const auto seen = gate.sleep_for(std::chrono::microseconds(200000));
      std::size_t cur = max_seen.load();
      while (seen > cur && !max_seen.compare_exchange_weak(cur, seen)) {
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(max_seen.load(), 2u);  // at least two overlapped
}

TEST(ThreadPool, PinnedOptionRunsEveryThread) {
  // Pinning is best-effort (a no-op on single-context hosts); the contract
  // under test is that an opted-in pool still runs regions normally.
  ThreadPoolOptions opts;
  opts.pin_threads = true;
  ThreadPool pool(3, opts);
  EXPECT_TRUE(pool.pin_threads());
  std::atomic<int> total{0};
  pool.run([&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, PinFailuresAreReportedNotSilent) {
  // More workers than allowed CPUs: the surplus slots cannot be placed, and
  // the old behaviour (wrap onto slot % count) hid that. The pool must run
  // regions normally while reporting exactly how many workers are unpinned.
  const std::size_t allowed = hardware_threads();
  ThreadPoolOptions opts;
  opts.pin_threads = true;
  ThreadPool pool(allowed + 2, opts);
  std::atomic<int> total{0};
  pool.run([&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(total.load(std::memory_order_relaxed),
            static_cast<int>(allowed) + 2);
  // Exact once a region has joined: every worker attempts its pin before
  // serving its first region. At least the two surplus slots must fail.
  EXPECT_GE(pool.pin_failures(), 2u);
}

TEST(ThreadPool, UnpinnedPoolReportsZeroPinFailures) {
  ThreadPool pool(4);
  pool.run([](std::size_t) {});
  EXPECT_EQ(pool.pin_failures(), 0u);
}

TEST(StealDomains, UniformSamplingNeverPicksSelfAndCoversAll) {
  const auto d = StealDomains::uniform(4);
  EXPECT_FALSE(d.topology_aware());
  Xoshiro256 rng(7);
  std::vector<int> seen(4, 0);
  for (int i = 0; i < 400; ++i) {
    const std::size_t v = d.sample(rng, 1, static_cast<std::size_t>(i));
    ASSERT_LT(v, 4u);
    ASSERT_NE(v, 1u);
    ++seen[v];
  }
  EXPECT_GT(seen[0], 0);
  EXPECT_GT(seen[2], 0);
  EXPECT_GT(seen[3], 0);
}

TEST(StealDomains, LocalPeersComeFromSameNode) {
  // Workers 0,1 on node 0; workers 2,3,4 on node 1.
  const auto d = StealDomains::from_nodes({0, 0, 1, 1, 1});
  EXPECT_TRUE(d.topology_aware());
  EXPECT_EQ(d.local_peers(0), (std::vector<std::size_t>{1}));
  EXPECT_EQ(d.local_peers(2), (std::vector<std::size_t>{3, 4}));
  Xoshiro256 rng(11);
  // The first |local| attempts of a probe round must stay on-node.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(d.sample(rng, 0, 0), 1u);
    const std::size_t v = d.sample(rng, 2, 1);
    EXPECT_TRUE(v == 3u || v == 4u) << v;
  }
  // Later attempts fall back to uniform over everyone else — remote victims
  // stay reachable, so a thief can never starve while work exists off-node.
  std::set<std::size_t> fallback;
  for (int i = 0; i < 400; ++i) fallback.insert(d.sample(rng, 2, 2));
  EXPECT_EQ(fallback, (std::set<std::size_t>{0, 1, 3, 4}));
}

TEST(StealDomains, ForPoolUnpinnedDegeneratesToUniform) {
  // Unpinned workers float under the OS scheduler: their placement is
  // unknowable, so no local preference may be derived.
  EXPECT_FALSE(StealDomains::for_pool(4, /*pinned=*/false).topology_aware());
  // Pinned on a single-node host there is likewise nothing to prefer; on a
  // multi-node host awareness depends on which nodes the first slots hit,
  // so only the single-node direction is asserted.
  if (topology().num_nodes <= 1) {
    EXPECT_FALSE(StealDomains::for_pool(4, /*pinned=*/true).topology_aware());
  }
}

TEST(ThreadPool, DefaultIsUnpinned) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.pin_threads());
}

TEST(SplitQueue, PublishAndPopRacesHalfStealersSafely) {
  // The Bader–Cong owner loop against three idle workers: the owner takes a
  // batch of up to 8 items, "expands" each by writing 0-3 new items back to
  // back past the tail, then publishes them all and takes its next batch in
  // one call; thieves probe the size hint and steal half. Every item is
  // taken exactly once. Run under TSan.
  SplitQueue<int> q(16);
  constexpr int kItems = 100000;
  std::vector<std::atomic<int>> seen(kItems);
  std::atomic<bool> stop{false};
  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&] {
      std::vector<int> loot;
      while (!stop.load()) {
        const std::size_t avail = q.size_hint();
        if (avail == 0) continue;
        loot.clear();
        q.steal(loot, std::max<std::size_t>(1, avail / 2));
        for (const int v : loot) seen[v].fetch_add(1);
      }
    });
  }
  Xoshiro256 rng(17);
  int made = 0;
  int batch[8];
  std::size_t taken = 0;
  while (made < kItems || taken != 0) {
    std::size_t written = 0;
    // An empty batch still writes, so the owner makes items while thieves
    // hold all of them.
    for (std::size_t i = 0; i < std::max<std::size_t>(taken, 1); ++i) {
      const int k = std::min(kItems - made,
                             static_cast<int>(rng.next_bounded(4)));
      const auto slots = q.tail_slots(written, static_cast<std::size_t>(k));
      for (int j = 0; j < k; ++j) slots[j] = made++;
      written += static_cast<std::size_t>(k);
      if (i < taken) seen[batch[i]].fetch_add(1);
    }
    taken = q.publish_and_pop_batch(written, batch, 8);
  }
  stop.store(true);
  for (auto& t : thieves) t.join();
  EXPECT_EQ(q.size_hint(), 0u);
  for (int i = 0; i < kItems; ++i) ASSERT_EQ(seen[i].load(), 1) << i;
}

TEST(SplitQueue, StealAfterStaleSizeHintTakesNothing) {
  SplitQueue<int> q;
  q.push(7);
  // A thief's lock-free probe sees one element...
  const std::size_t seen = q.size_hint();
  ASSERT_EQ(seen, 1u);
  // ...the owner takes it before the thief acts...
  int v = -1;
  ASSERT_TRUE(q.pop(v));
  // ...so the steal, which re-checks under the lock, takes nothing and
  // returns at once.
  std::vector<int> out;
  EXPECT_EQ(q.steal(out, seen), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(q.size_hint(), 0u);
}

TEST(SplitQueue, SizeHintProbesRaceOwnerSafely) {
  // Thieves probe without the lock while the owner pushes and pops, the way
  // idle Bader–Cong workers do; every item is consumed exactly once.
  SplitQueue<int> q;
  constexpr int kItems = 20000;
  std::atomic<bool> stop{false};
  std::atomic<int> stolen{0};
  std::vector<std::thread> thieves;
  for (int t = 0; t < 2; ++t) {
    thieves.emplace_back([&] {
      std::vector<int> loot;
      while (!stop.load()) {
        const std::size_t avail = q.size_hint();
        if (avail == 0) continue;
        loot.clear();
        stolen.fetch_add(static_cast<int>(
            q.steal(loot, std::max<std::size_t>(1, avail / 2))));
      }
    });
  }
  int popped = 0;
  int v = -1;
  for (int i = 0; i < kItems; ++i) {
    q.push(i);
    if (i % 2 == 0 && q.pop(v)) ++popped;
  }
  while (q.pop(v)) ++popped;
  stop.store(true);
  for (auto& t : thieves) t.join();
  EXPECT_EQ(popped + stolen.load(), kItems);
  EXPECT_EQ(q.size_hint(), 0u);
}

}  // namespace
}  // namespace smpst
