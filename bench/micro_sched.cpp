// Google-benchmark micro-benchmarks of the runtime substrate: PRNG
// throughput, spinlock round trips, SplitQueue operations (an expansion's
// queue traffic in two lock round trips, one, or one per batch of eight),
// the pending counter (shared RMW vs per-worker credit), barrier episodes,
// region launches, and CSR traversal — the constants behind the
// Helman-JáJá machine parameters.
#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "core/bfs.hpp"
#include "sched/parallel_for.hpp"
#include "sched/prefix_sum.hpp"
#include "sched/thread_pool.hpp"
#include "gen/random_graph.hpp"
#include "sched/barrier.hpp"
#include "sched/spinlock.hpp"
#include "sched/termination.hpp"
#include "sched/work_queue.hpp"
#include "support/prng.hpp"

namespace {

using namespace smpst;

void BM_Xoshiro(benchmark::State& state) {
  Xoshiro256 rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_Xoshiro);

void BM_XoshiroBounded(benchmark::State& state) {
  Xoshiro256 rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_bounded(12345));
  }
}
BENCHMARK(BM_XoshiroBounded);

void BM_SpinLockUncontended(benchmark::State& state) {
  SpinLock lock;
  for (auto _ : state) {
    lock.lock();
    lock.unlock();
  }
}
BENCHMARK(BM_SpinLockUncontended);

void BM_SplitQueuePushPop(benchmark::State& state) {
  SplitQueue<VertexId> q;
  VertexId v = 0;
  for (auto _ : state) {
    q.push(1);
    benchmark::DoNotOptimize(q.pop(v));
  }
}
BENCHMARK(BM_SplitQueuePushPop);

// One Bader–Cong expansion's queue traffic on a steady frontier of 256
// vertices: one vertex out, one child in (a BFS tree's mean). TwoRoundTrips
// is the owner path before the ring: pop, then push_bulk the child staged in
// a vector. OneRoundTrip writes the child past the tail and publishes it
// with the next single-vertex take. Batched is the traversal's path: it
// takes 8 vertices per lock acquisition and writes their children back to
// back past the tail, so the lock is paid once per 8 expansions. Each
// iteration is one expansion, so the gaps are the lock cost per vertex.
void BM_ExpansionQueueTwoRoundTrips(benchmark::State& state) {
  SplitQueue<VertexId> q;
  for (VertexId i = 0; i < 256; ++i) q.push(i);
  std::vector<VertexId> staged;
  staged.reserve(16);
  VertexId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.pop(v));
    staged.clear();
    staged.push_back(v);
    q.push_bulk(staged.data(), staged.size());
  }
}
BENCHMARK(BM_ExpansionQueueTwoRoundTrips);

void BM_ExpansionQueueOneRoundTrip(benchmark::State& state) {
  SplitQueue<VertexId> q;
  for (VertexId i = 0; i < 256; ++i) q.push(i);
  VertexId v = 0;
  benchmark::DoNotOptimize(q.pop(v));
  for (auto _ : state) {
    q.tail_slots(0, 1)[0] = v;
    benchmark::DoNotOptimize(q.publish_and_pop_batch(1, &v, 1));
  }
}
BENCHMARK(BM_ExpansionQueueOneRoundTrip);

void BM_ExpansionQueueBatched(benchmark::State& state) {
  SplitQueue<VertexId> q;
  for (VertexId i = 0; i < 256; ++i) q.push(i);
  VertexId batch[8];
  std::size_t taken = q.publish_and_pop_batch(0, batch, 8);
  std::size_t i = 0;
  for (auto _ : state) {
    q.tail_slots(i, 1)[0] = batch[i];
    if (++i == taken) {
      taken = q.publish_and_pop_batch(taken, batch, 8);
      i = 0;
    }
  }
}
BENCHMARK(BM_ExpansionQueueBatched);

void BM_SplitQueueStealHalf(benchmark::State& state) {
  SplitQueue<VertexId> q;
  std::vector<VertexId> loot;
  for (auto _ : state) {
    state.PauseTiming();
    q.clear();
    for (VertexId i = 0; i < 64; ++i) q.push(i);
    loot.clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(q.steal(loot, 32));
  }
}
BENCHMARK(BM_SplitQueueStealHalf);

// The traversal's pending counter at four threads, one item per iteration,
// each producing 0-2 children (a BFS tree's mean of one). SharedRmw is the
// acq_rel RMW on the one shared line per item that every expansion used to
// pay; Credit settles through a worker-private PendingCredit and touches the
// line only for the excess and the closing flush.
std::vector<std::int64_t> produced_sequence(std::size_t thread) {
  Xoshiro256 rng(derive_stream_seed(11, thread));
  std::vector<std::int64_t> seq(1024);
  for (auto& k : seq) k = static_cast<std::int64_t>(rng.next_bounded(3));
  return seq;
}

void BM_PendingCounterSharedRmw(benchmark::State& state) {
  static PendingCounter pending;
  const auto seq =
      produced_sequence(static_cast<std::size_t>(state.thread_index()));
  std::size_t i = 0;
  for (auto _ : state) {
    pending.consumed_produced(seq[i++ & 1023]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PendingCounterSharedRmw)->Threads(4)->UseRealTime();

void BM_PendingCounterCredit(benchmark::State& state) {
  static PendingCounter pending;
  const auto seq =
      produced_sequence(static_cast<std::size_t>(state.thread_index()));
  PendingCredit credit;
  std::size_t i = 0;
  for (auto _ : state) {
    credit.consumed_produced(pending, seq[i++ & 1023]);
  }
  credit.flush(pending);
  state.SetItemsProcessed(state.iterations());
  state.counters["shared_updates"] =
      benchmark::Counter(static_cast<double>(credit.shared_updates()),
                         benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_PendingCounterCredit)->Threads(4)->UseRealTime();

void BM_BarrierSingleParty(benchmark::State& state) {
  SpinBarrier barrier(1);
  for (auto _ : state) {
    barrier.arrive_and_wait();
  }
}
BENCHMARK(BM_BarrierSingleParty);

// One empty ThreadPool::run at p=4: the mutex, condvar broadcast and join a
// region launch costs, with no work inside.
void BM_RegionLaunch(benchmark::State& state) {
  static ThreadPool pool(4);
  const std::function<void(std::size_t)> body = [](std::size_t tid) {
    benchmark::DoNotOptimize(tid);
  };
  for (auto _ : state) {
    pool.run(body);
  }
}
BENCHMARK(BM_RegionLaunch)->UseRealTime();

// SpinBarrier episodes among four pool workers inside one region, the cost
// a region launch per level is traded for in parallel BFS. Items are
// episodes, so items/s is the episode rate.
void BM_SpinBarrierFourParties(benchmark::State& state) {
  static ThreadPool pool(4);
  constexpr std::int64_t kEpisodes = 1024;
  SpinBarrier barrier(4);
  for (auto _ : state) {
    pool.run([&](std::size_t) {
      for (std::int64_t i = 0; i < kEpisodes; ++i) barrier.arrive_and_wait();
    });
  }
  benchmark::DoNotOptimize(barrier.episodes());
  state.SetItemsProcessed(state.iterations() * kEpisodes);
}
BENCHMARK(BM_SpinBarrierFourParties)->UseRealTime();

void BM_ParallelForStatic(benchmark::State& state) {
  static ThreadPool pool(4);
  std::vector<std::uint64_t> data(1 << 16);
  for (auto _ : state) {
    parallel_for_static(pool, 0, data.size(),
                        [&](std::size_t i) { data[i] = i * 3; });
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ParallelForStatic);

void BM_PrefixSum(benchmark::State& state) {
  static ThreadPool pool(4);
  std::vector<std::uint64_t> data(1 << 16, 1);
  for (auto _ : state) {
    state.PauseTiming();
    std::fill(data.begin(), data.end(), 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(parallel_exclusive_scan(pool, data));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_PrefixSum);

void BM_CsrBfs(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const Graph g =
      gen::random_graph(n, static_cast<EdgeId>(1.5 * n), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs_spanning_tree(g));
  }
  state.SetItemsProcessed(state.iterations() * (n + 2 * g.num_edges()));
}
BENCHMARK(BM_CsrBfs)->Arg(1 << 12)->Arg(1 << 15);

}  // namespace
