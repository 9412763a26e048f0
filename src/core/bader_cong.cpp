#include "core/bader_cong.hpp"

#include <algorithm>
#include <atomic>

#include "core/shiloach_vishkin.hpp"
#include "core/steal_policy.hpp"
#include "storage/blocked_graph.hpp"
#include "storage/graph_storage.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/termination.hpp"
#include "sched/thread_pool.hpp"
#include "sched/work_queue.hpp"
#include "support/assert.hpp"
#include "support/cacheline.hpp"
#include "support/cpu.hpp"
#include "support/failpoint.hpp"
#include "support/prefetch.hpp"
#include "support/prng.hpp"
#include "support/race.hpp"
#include "support/timer.hpp"

namespace smpst {

namespace {

/// What worker t owns: its queue and its share of the pending count
/// (sched/termination.hpp). The owner touches both per vertex, so they share
/// the worker's cache line.
struct WorkerSlot {
  SplitQueue<VertexId> queue;
  PendingCredit credit;
};

/// Shared state of one traversal. parent[v] == kInvalidVertex means v is
/// unvisited; a root is its own parent. Parent writes race benignly exactly
/// as in the paper: the last writer wins and either value forms a valid tree
/// edge.
///
/// parent is deliberately a PLAIN array, accessed through the
/// SMPST_BENIGN_RACE_* layer (support/race.hpp): the races on it are the
/// paper's intended ones, so non-TSan builds pay nothing for them, while TSan
/// builds see relaxed atomics and stay quiet without suppressions. The one
/// decision whose atomicity is load-bearing — the exactly-one-winner claim of
/// a component root — is arbitrated by a real CAS on the pending counter
/// (try_claim_root). See docs/CONCURRENCY.md for the per-site safety
/// arguments.
template <storage::GraphStorage GS>
struct TraversalState {
  /// The traversal writes parent pointers straight into `forest_parent`, the
  /// result forest's array of n entries, which the caller has filled with
  /// kInvalidVertex.
  TraversalState(const GS& graph, std::size_t p, VertexId* forest_parent)
      : g(graph),
        n(graph.num_vertices()),
        parent(forest_parent),
        workers(p) {}

  // Read by every expansion; the shared-write state below starts on its own
  // cache lines so its traffic never evicts these.
  const GS& g;
  const VertexId n;
  VertexId* const parent;
  std::vector<Padded<WorkerSlot>> workers;

  alignas(kCacheLineSize) PendingCounter pending;
  alignas(kCacheLineSize) IdleGate gate;
  /// Touched only by the worker holding the drain (try_claim_root).
  alignas(kCacheLineSize) std::atomic<VertexId> root_cursor{0};
  alignas(kCacheLineSize) std::atomic<bool> done{false};
  alignas(kCacheLineSize) std::atomic<bool> starved{false};
  alignas(kCacheLineSize) std::atomic<bool> cancelled{false};
  /// A worker threw: the others stop, and the pool rethrows on the caller.
  alignas(kCacheLineSize) std::atomic<bool> failed{false};
};

/// True when work is pending beyond the credit workers have not returned yet:
/// what the starvation check must see. A worker preempted while holding
/// credit keeps the shared count up after the real work is done, and the
/// sleepers would count that as starvation. The reads are not one snapshot,
/// so an update racing them can skew one round of the check; the drain CAS
/// still reads the exact shared count.
template <storage::GraphStorage GS>
bool work_outstanding(const TraversalState<GS>& st) {
  std::int64_t held = 0;
  for (const auto& w : st.workers) held += w->credit.credit();
  return st.pending.value() - held > 0;
}

enum class RootClaim { kClaimed, kBusy, kExhausted };

/// Claims the next unvisited vertex as a fresh component root, enqueued on
/// the caller's queue. kBusy: work is pending again or another worker holds
/// the drain. kExhausted: every vertex is visited.
///
/// Exactly one root may be claimed per drain: claiming a second root while
/// the first's component is still being traversed could seed two trees inside
/// one component (the second root might be an as-yet-unvisited vertex of the
/// first root's component). So the claimer first takes the drain itself
/// (pending 0 -> 1). While it holds that unit nothing is pending anywhere, no
/// other worker claims a vertex, and it alone scans and moves the cursor.
/// Sleep/wake churn on graphs with thousands of tiny components is the price
/// of that soundness; the paper's experiments assume connected inputs, where
/// this path runs at most once.
template <storage::GraphStorage GS>
RootClaim try_claim_root(TraversalState<GS>& st, std::size_t tid,
                         ThreadStats& ts) {
  ++ts.pending_updates;
  if (!st.pending.try_take_drain()) return RootClaim::kBusy;
  // Relaxed on the cursor: the drain CAS orders one holder after the next.
  VertexId v = st.root_cursor.load(std::memory_order_relaxed);
  while (v < st.n && SMPST_BENIGN_RACE_LOAD(st.parent[v]) != kInvalidVertex) {
    ++v;
  }
  if (v == st.n) {
    st.root_cursor.store(v, std::memory_order_relaxed);
    st.pending.add(-1);
    ++ts.pending_updates;
    return RootClaim::kExhausted;
  }
  // The drain unit becomes the root's pending count.
  SMPST_BENIGN_RACE_STORE(st.parent[v], v);
  st.root_cursor.store(v + 1, std::memory_order_relaxed);
  st.workers[tid]->queue.push(v);
  ++ts.roots_claimed;
  return RootClaim::kClaimed;
}

/// Parent lines of neighbours this many iterations ahead are prefetched; far
/// enough to cover an L2 miss at typical expansion cost, near enough that the
/// line is rarely evicted again before use.
constexpr std::size_t kParentPrefetchDistance = 4;

/// Vertices a worker takes from its own queue per lock acquisition. The
/// acquisition that takes a batch also publishes the previous batch's
/// children, so its cost is paid once per batch instead of once per vertex.
/// publish_and_pop_batch leaves thieves at least half the queue.
constexpr std::size_t kBatch = 8;

/// Expansions between two looks at the stop flags, the expand failpoint and
/// the cancel token: rare enough to keep them off the per-vertex path, often
/// enough that a stop is seen within microseconds.
constexpr std::size_t kExpansionsPerCheck = 64;

/// Expands one vertex: claims every unvisited neighbour and writes it into
/// the worker's tail slots, after the `skip` children that earlier
/// expansions of the batch wrote there (Alg. 1 lines 2.3–2.7). Returns the
/// number of children written; the caller publishes them.
template <storage::GraphStorage GS>
std::size_t expand_vertex(TraversalState<GS>& st, SplitQueue<VertexId>& queue,
                          std::size_t skip, VertexId v,
                          std::uint64_t& edges_scanned) {
  const auto nbrs = st.g.neighbors(v);
  const std::size_t deg = nbrs.size();
  edges_scanned += deg;
  const auto children = queue.tail_slots(skip, deg);
  std::size_t k = 0;
  for (std::size_t i = 0; i < deg; ++i) {
    // The parent check is a random access per edge — the traversal's
    // dominant miss source — so request upcoming lines a few edges early.
    if (i + kParentPrefetchDistance < deg) {
      prefetch_read(&st.parent[nbrs[i + kParentPrefetchDistance]]);
    }
    const VertexId w = nbrs[i];
    // Deliberately check-then-set (no CAS): the race is benign (§2, Fig. 1).
    // Two threads may both see w unvisited and both enqueue it; the
    // duplicate expansion is absorbed by the pending counter and parent
    // stays valid either way. These stores reach the worker that expands w
    // through the queue's lock (the publish_and_pop_batch that publishes w,
    // then the take or steal that hands it over), never through the counter.
    if (SMPST_BENIGN_RACE_LOAD(st.parent[w]) == kInvalidVertex) {
      SMPST_BENIGN_RACE_STORE(st.parent[w], v);
      children[k++] = w;
    }
  }
  return k;
}

template <storage::GraphStorage GS>
void traversal_worker(TraversalState<GS>& st, std::size_t tid,
                      const BaderCongOptions& opts, std::size_t p,
                      const StealDomains& domains, ThreadStats& ts) {
  SMPST_TRACE_SCOPE("bc.worker");
  const std::size_t steal_attempts =
      opts.steal_attempts != 0 ? opts.steal_attempts : 2 * p;
  const std::size_t starvation_threshold = std::max<std::size_t>(
      1, static_cast<std::size_t>(opts.starvation_fraction *
                                  static_cast<double>(p)));
  Xoshiro256 rng(derive_stream_seed(opts.seed, 0x1000 + tid));

  std::vector<VertexId> stolen;
  std::size_t starving_rounds = 0;
  SplitQueue<VertexId>& queue = st.workers[tid]->queue;
  PendingCredit& credit = st.workers[tid]->credit;
  // Per-vertex counts live in registers until the loop ends.
  std::uint64_t processed = 0;
  std::uint64_t edges_scanned = 0;
  std::uint64_t enqueued = 0;

  while (!st.done.load(std::memory_order_acquire) &&
         !st.starved.load(std::memory_order_acquire) &&
         !st.cancelled.load(std::memory_order_acquire) &&
         !st.failed.load(std::memory_order_acquire)) {
    // Fault site at the loop boundary, where this worker holds no claimed
    // vertex; like any worker exception, the throw stops the traversal and
    // reaches the caller (bader_cong_impl).
    SMPST_FAILPOINT("core.bader_cong.expand");
    if (opts.cancel != nullptr && opts.cancel->expired()) {
      st.cancelled.store(true, std::memory_order_release);
      st.gate.notify_work();
      break;
    }
    VertexId batch[kBatch];
    std::size_t taken = queue.publish_and_pop_batch(0, batch, kBatch);
    if (taken != 0) {
      starving_rounds = 0;
      // Own work: expand the batch, writing its children back to back past
      // the tail, then publish them and take the next batch in one lock
      // acquisition, until the queue runs dry or the check budget is spent.
      bool ran_dry = false;
      for (std::size_t left = kExpansionsPerCheck;;) {
        std::size_t written = 0;
        for (std::size_t i = 0; i < taken; ++i) {
          // Warm the next batch member's CSR slice while this one expands:
          // neighbors() touches the offsets line and the first targets
          // line, both cold for vertices that arrived by steal or long-ago
          // enqueue. Resident backends only: on a blocked graph neighbors()
          // is real cache/disk work, not a pointer computation, so the
          // "hint" would cost more than the miss it hides.
          if constexpr (storage::is_resident_v<GS>) {
            if (i + 1 < taken) {
              prefetch_read(st.g.neighbors(batch[i + 1]).data());
            }
          }
          const std::size_t k =
              expand_vertex(st, queue, written, batch[i], edges_scanned);
          written += k;
          // Children counted (+k) and the vertex consumed (-1) *before* the
          // children are published, out of this worker's credit where it
          // covers k-1, so the shared counter can never drain while any
          // claimed-but-uncounted child exists, and a thief can never
          // consume a child not yet counted. Most expansions leave the
          // shared cacheline alone.
          credit.consumed_produced(st.pending, static_cast<std::int64_t>(k));
        }
        processed += taken;
        enqueued += written;
        const bool check_now = left <= taken;
        if (check_now) {
          queue.publish(written);
        } else {
          left -= taken;
          taken = queue.publish_and_pop_batch(written, batch, kBatch);
          ran_dry = taken == 0;
        }
        if (written != 0) st.gate.notify_work();
        if (check_now || ran_dry) break;
      }
      if (!ran_dry) continue;  // back to the checks at the top
    }

    // Out of local work: return the credit before reading the counter, so
    // the drain test, the root claim and the starvation check see it exact
    // as far as this worker is concerned.
    credit.flush(st.pending);
    if (st.pending.drained()) {
      const RootClaim claim = try_claim_root(st, tid, ts);
      if (claim == RootClaim::kClaimed) {
        SMPST_TRACE_INSTANT("bc.root");
        continue;
      }
      if (claim == RootClaim::kExhausted) {
        st.done.store(true, std::memory_order_release);
        st.gate.notify_work();
        break;
      }
    }

    // Steal the front half (or a fixed chunk) of a random victim's queue.
    // Victims are sampled from [0, p) \ {tid} directly (core/steal_policy.hpp)
    // so self-picks cannot burn the attempt budget — at p = 2 the old
    // [0, p)-with-continue sampling wasted half of every probe round and sent
    // starving workers to sleep early. On pinned NUMA pools the first probes
    // of each round go to same-node victims (StealDomains), keeping stolen
    // cachelines inside one LLC before reaching across the interconnect.
    bool got = false;
    for (std::size_t a = 0; a < steal_attempts && p > 1; ++a) {
      const std::size_t victim = domains.sample(rng, tid, a);
      ++ts.steal_attempts;
      // Lock-free probe: a stale count costs one empty steal, which
      // re-checks under the victim's lock.
      const std::size_t avail = st.workers[victim]->queue.size_hint();
      if (avail == 0) continue;
      // Take at most half the victim's queue ("steals part of the queue"),
      // even under an explicit chunk size: emptying a busy victim makes
      // work slosh between thieves instead of getting processed.
      const std::size_t half = std::max<std::size_t>(1, avail / 2);
      const std::size_t chunk =
          opts.steal_chunk != 0 ? std::min(opts.steal_chunk, half) : half;
      stolen.clear();
      const std::size_t took =
          st.workers[victim]->queue.steal(stolen, chunk);
      if (took > 0) {
        queue.push_bulk(stolen.data(), took);
        SMPST_TRACE_INSTANT("bc.steal");
        ++ts.steals_succeeded;
        ts.items_stolen += took;
        got = true;
        break;
      }
    }
    if (got) {
      starving_rounds = 0;
      continue;
    }

    // Nothing to do and nothing to steal: sleep on the gate (the paper's
    // condition-variable protocol) and watch for starvation.
    ++ts.sleep_episodes;
    std::size_t sleepers;
    {
      SMPST_TRACE_SCOPE("bc.sleep");
      sleepers = st.gate.sleep_for(opts.idle_sleep);
    }
    if (sleepers >= starvation_threshold && work_outstanding(st)) {
      if (++starving_rounds >= opts.starvation_patience &&
          opts.enable_fallback && p > 1) {
        st.starved.store(true, std::memory_order_release);
        st.gate.notify_work();
        break;
      }
    } else {
      starving_rounds = 0;
    }
  }
  ts.vertices_processed += processed;
  ts.edges_scanned += edges_scanned;
  ts.enqueues += enqueued;
  ts.pending_updates += static_cast<std::uint32_t>(credit.shared_updates());
}

/// Phase 1: random walk of `steps` steps from `start`; returns the distinct
/// stub vertices in discovery order (first entry is the walk root).
template <storage::GraphStorage GS>
std::vector<VertexId> grow_stub_tree(TraversalState<GS>& st, VertexId start,
                                     std::size_t steps, std::size_t p,
                                     Xoshiro256& rng) {
  // Phase 1 is single-threaded (the pool enters only for phase 2, and the
  // region handoff publishes these writes), so plain accesses are race-free.
  std::vector<VertexId> stub;
  stub.reserve(steps + 1);
  st.parent[start] = start;
  stub.push_back(start);
  VertexId cur = start;
  for (std::size_t s = 0; s < steps; ++s) {
    const auto nbrs = st.g.neighbors(cur);
    if (nbrs.empty()) break;
    const VertexId next =
        nbrs[static_cast<std::size_t>(rng.next_bounded(nbrs.size()))];
    if (st.parent[next] == kInvalidVertex) {
      st.parent[next] = cur;
      stub.push_back(next);
    }
    cur = next;
  }
  // Deal the stub vertices round-robin into the processors' queues.
  for (std::size_t i = 0; i < stub.size(); ++i) {
    st.workers[i % p]->queue.push(stub[i]);
  }
  st.pending.reset(static_cast<std::int64_t>(stub.size()));
  return stub;
}

/// Fallback merge: partial parent links become tree edges; the partial trees
/// become the initial partition for Shiloach–Vishkin, which connects them;
/// the union of both edge sets is oriented into the final forest (the paper's
/// "merge the grown spanning subtree into a super-vertex and start SV").
template <storage::GraphStorage GS>
SpanningForest finish_with_sv(TraversalState<GS>& st, ThreadPool& pool,
                              const BaderCongOptions& opts,
                              TraversalStats& stats) {
  const VertexId n = st.n;
  std::vector<Edge> edges;
  edges.reserve(n);
  std::vector<VertexId> labels(n);

  // Initial labels: root of each partial tree for visited vertices
  // (memoized pointer walk), self for unvisited ones.
  // Runs after the traversal region joined, so plain reads are race-free.
  std::vector<VertexId> root_of(n, kInvalidVertex);
  std::vector<VertexId> path;
  for (VertexId v = 0; v < n; ++v) {
    if (st.parent[v] == kInvalidVertex) {
      labels[v] = v;
      continue;
    }
    const VertexId pv = st.parent[v];
    if (pv != v) edges.push_back(pv < v ? Edge{pv, v} : Edge{v, pv});
    if (root_of[v] != kInvalidVertex) {
      labels[v] = root_of[v];
      continue;
    }
    path.clear();
    VertexId cur = v;
    while (root_of[cur] == kInvalidVertex && st.parent[cur] != cur) {
      path.push_back(cur);
      cur = st.parent[cur];
    }
    const VertexId root = root_of[cur] != kInvalidVertex ? root_of[cur] : cur;
    root_of[cur] = root;
    for (VertexId u : path) root_of[u] = root;
    labels[v] = root;
  }

  SvOptions sv_opts;
  sv_opts.num_threads = pool.size();
  sv_opts.cancel = opts.cancel;  // the fallback still honours the deadline
  SvStats sv_stats;
  sv_opts.stats = &sv_stats;
  const std::vector<Edge> sv_edges =
      sv_tree_edges(st.g, pool, std::move(labels), sv_opts);
  stats.fallback_sv_iterations =
      static_cast<std::uint32_t>(sv_stats.iterations);
  edges.insert(edges.end(), sv_edges.begin(), sv_edges.end());
  return orient_tree_edges(n, edges);
}

// Internal, so that the parallel region's lambda is too: see "Internal
// bodies" in storage/graph_storage.hpp.
template <storage::GraphStorage GS>
SpanningForest bader_cong_impl(const GS& g, ThreadPool& pool,
                               const BaderCongOptions& opts) {
  const VertexId n = g.num_vertices();
  const std::size_t p = pool.size();

  // The fill is the traversal's visited mark. It runs on the calling
  // thread, so on a multi-node host the caller's node holds its pages.
  SpanningForest forest;
  forest.parent.assign(n, kInvalidVertex);
  if (n == 0) return forest;

  TraversalState<GS> st(g, p, forest.parent.data());
  Xoshiro256 rng(derive_stream_seed(opts.seed, 0xabc));

  TraversalStats local_stats;
  local_stats.per_thread.resize(p);

  // Same-node-first steal probing when the pool's placement is known.
  const StealDomains domains = StealDomains::for_pool(p, pool.pin_threads());

  // Phase 1: stub spanning tree (single processor).
  WallTimer stub_timer;
  const auto start = static_cast<VertexId>(rng.next_bounded(n));
  const std::size_t steps =
      opts.stub_steps != 0 ? opts.stub_steps : 2 * p;
  std::vector<VertexId> stub;
  {
    SMPST_TRACE_SCOPE("bc.stub");
    stub = grow_stub_tree(st, start, steps, p, rng);
  }
  local_stats.stub_vertices = stub.size();
  local_stats.stub_seconds = stub_timer.elapsed_seconds();

  // Phase 2: work-stealing traversal.
  WallTimer trav_timer;
  {
    SMPST_TRACE_SCOPE("bc.traversal");
    pool.run([&](std::size_t tid) {
      try {
        // Counted in a worker-local object: the per_thread entries are not
        // cache-line aligned, so writing them per vertex shares lines
        // between neighbouring workers.
        ThreadStats ts;
        traversal_worker(st, tid, opts, p, domains, ts);
        local_stats.per_thread[tid] = ts;
      } catch (...) {
        // A worker that dies holding a dequeued vertex (a StorageError from
        // a BlockedGraph pin, say) keeps pending above zero forever: stop
        // the others instead of leaving them to wait for that drain. The
        // pool rethrows the first exception on the caller.
        st.failed.store(true, std::memory_order_release);
        st.gate.notify_work();
        throw;
      }
    });
  }
  local_stats.traversal_seconds = trav_timer.elapsed_seconds();

  // A worker observed the token expire before the traversal drained: the
  // partial forest is not a valid result, so surface the cancellation (unless
  // another worker completed the drain concurrently, in which case the forest
  // is whole and worth returning).
  if (st.cancelled.load(std::memory_order_relaxed) &&
      !st.done.load(std::memory_order_relaxed)) {
    throw CancelledError();
  }

  // The drained exit claims roots until none is left unvisited, so every
  // vertex has a parent and the traversal has written the whole forest.
  VertexId visited = n;
  if (st.starved.load(std::memory_order_relaxed)) {
    // Detection mechanism fired: merge and finish with SV.
    local_stats.fallback_triggered = true;
    // The duplicate accounting below is measured against the traversal's
    // own visits. Count them first: st.parent is this forest's array, which
    // the assignment below frees.
    visited = static_cast<VertexId>(
        std::count_if(st.parent, st.parent + n,
                      [](VertexId pv) { return pv != kInvalidVertex; }));
    WallTimer fb_timer;
    {
      SMPST_TRACE_SCOPE("bc.sv_fallback");
      forest = finish_with_sv(st, pool, opts, local_stats);
    }
    local_stats.fallback_seconds = fb_timer.elapsed_seconds();
  }
  // duplicate_expansions = dequeues beyond one per *visited* vertex,
  // computed on BOTH the normal and the starvation-fallback exits — a
  // fallback run used to leave it at zero, silently zeroing the
  // bc.duplicate_expansions metric exactly on the runs where races matter
  // most. The visited count, not n: isolated or unreached vertices are
  // never dequeued, so subtracting n would wrap the uint64 whenever fewer
  // than n vertices entered the queues. Saturate at 0 for the
  // cancel-then-complete edge where a worker's final decrement raced the
  // drain (and for fallback halts, where visited-but-never-dequeued
  // frontier vertices outnumber the dequeues).
  local_stats.colored_vertices = visited;
  const std::uint64_t dequeued = local_stats.total_processed();
  local_stats.duplicate_expansions =
      dequeued > visited ? dequeued - visited : 0;

  {
    auto& reg = obs::MetricsRegistry::instance();
    static obs::Counter& runs = reg.counter("bc.runs");
    static obs::Counter& fallbacks = reg.counter("bc.fallbacks");
    static obs::Counter& steals = reg.counter("bc.steals");
    static obs::Counter& dups = reg.counter("bc.duplicate_expansions");
    runs.add(1);
    if (local_stats.fallback_triggered) fallbacks.add(1);
    steals.add(local_stats.total_steals());
    dups.add(local_stats.duplicate_expansions);
  }

  if (opts.stats != nullptr) *opts.stats = std::move(local_stats);
  return forest;
}

}  // namespace

template <storage::GraphStorage GS>
SpanningForest bader_cong_spanning_tree(const GS& g, ThreadPool& pool,
                                        const BaderCongOptions& opts) {
  return bader_cong_impl(g, pool, opts);
}

template <storage::GraphStorage GS>
SpanningForest bader_cong_spanning_tree(const GS& g,
                                        const BaderCongOptions& opts) {
  ThreadPool pool(threads_or_hardware(opts.num_threads));
  return bader_cong_spanning_tree(g, pool, opts);
}

template SpanningForest bader_cong_spanning_tree(const Graph&, ThreadPool&,
                                                 const BaderCongOptions&);
template SpanningForest bader_cong_spanning_tree(const storage::BlockedGraph&,
                                                 ThreadPool&,
                                                 const BaderCongOptions&);
template SpanningForest bader_cong_spanning_tree(const Graph&,
                                                 const BaderCongOptions&);
template SpanningForest bader_cong_spanning_tree(const storage::BlockedGraph&,
                                                 const BaderCongOptions&);

}  // namespace smpst
