#include "core/parallel_bfs.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>

#include "obs/trace.hpp"
#include "sched/barrier.hpp"
#include "sched/thread_pool.hpp"
#include "storage/blocked_graph.hpp"
#include "storage/graph_storage.hpp"
#include "support/cacheline.hpp"
#include "support/cpu.hpp"
#include "support/failpoint.hpp"
#include "support/race.hpp"

namespace smpst {

namespace {

/// push→pull requires frontier_edges * kAlpha > unexplored_edges, i.e. the
/// frontier's edges must exceed 1/kAlpha of the unexplored edges (Beamer's
/// alpha; larger = pulls more eagerly). Beamer's classic 15 assumes a pull
/// level is nearly free; ours costs an O(n/p) shard scan plus two barriers
/// regardless of frontier size, so the frontier must dominate the remaining
/// work (measured: medium-diameter families like geo-flat peak at ~0.43 of
/// unexplored and lose in pull, while random-nlogn's big levels reach
/// 0.61-1.0 and win ~2x).
constexpr double kAlpha = 2.0;
/// Pull also requires (entering and staying) frontier_size * kBeta >= n: the
/// whole-shard scan only pays off when a decent fraction of all vertices can
/// early-exit it. Larger kBeta = pulls on smaller frontiers.
constexpr double kBeta = 18.0;
/// Absolute floor on frontier_edges before pull is considered: keeps
/// high-diameter trickles (a chain's 2-edge frontier near exhaustion, where
/// unexplored_edges → 0 makes the kAlpha ratio meaningless) from ever paying
/// a whole-shard scan.
constexpr std::uint64_t kPullMinFrontierEdges = 1024;

/// What worker 0 planned for the level the whole group expands next.
enum class LevelKind : std::uint8_t { kPush, kPull, kStop };

/// parent is a PLAIN array (support/race.hpp). In push levels the load that
/// pre-screens the CAS claim is the intended benign race — stale values only
/// cost a wasted CAS or skip a vertex another thread already owns — while the
/// claim itself goes through race_cas(), a real CAS in every build, because
/// the exactly-one-parent invariant is load-bearing. In pull levels parent is
/// ownership-partitioned (only the shard owner reads or writes its vertices),
/// so there is no race at all; the accesses still go through the wrappers so
/// the whole array carries one auditable annotation discipline.
template <storage::GraphStorage GS>
struct BfsState {
  explicit BfsState(const GS& graph, std::size_t p_)
      // Uninitialized allocations on purpose (no make_unique, which would
      // zero-fill and thereby first-touch every page on the calling thread):
      // first_touch_init() faults each shard in from its owning worker, so a
      // pinned multi-node pool serves each shard from local memory.
      : g(graph),
        n(graph.num_vertices()),
        p(p_),
        parent(new VertexId[n]),
        in_cur_frontier(new std::uint8_t[n]),
        buffers(p),
        barrier(p) {}

  /// Contiguous vertex-ownership shards; worker t owns
  /// [shard_lo(t), shard_hi(t)) for first touch and for pull scans.
  [[nodiscard]] VertexId shard_lo(std::size_t tid) const noexcept {
    return static_cast<VertexId>(static_cast<std::uint64_t>(n) * tid / p);
  }
  [[nodiscard]] VertexId shard_hi(std::size_t tid) const noexcept {
    return static_cast<VertexId>(static_cast<std::uint64_t>(n) * (tid + 1) /
                                 p);
  }

  void first_touch_init(ThreadPool& pool) {
    pool.run([&](std::size_t tid) {
      SMPST_TRACE_SCOPE("pbfs.first_touch");
      const VertexId lo = shard_lo(tid);
      const VertexId hi = shard_hi(tid);
      for (VertexId v = lo; v < hi; ++v) {
        SMPST_BENIGN_RACE_STORE(parent[v], kInvalidVertex);
        in_cur_frontier[v] = 0;
      }
    });
  }

  /// Called from a catch block: keeps the first exception of any worker.
  /// The worker still goes on to its next barrier, and worker 0 turns
  /// `failed` into a stop at its next plan, so no party is stranded.
  void record_failure() noexcept {
    if (!failed.exchange(true, std::memory_order_acq_rel)) {
      error = std::current_exception();
    }
  }

  const GS& g;
  const VertexId n;
  const std::size_t p;
  std::unique_ptr<VertexId[]> parent;
  /// Frontier-membership flags consulted by pull levels. Written (phase A)
  /// and cleared (phase C) by frontier-slice owners, read by everyone in the
  /// scan phase between them; the in-region barriers separate the phases, so
  /// every access is race-free.
  std::unique_ptr<std::uint8_t[]> in_cur_frontier;

  std::vector<VertexId> frontier;
  std::vector<Padded<std::vector<VertexId>>> buffers;  // next-frontier pieces
  std::atomic<std::size_t> cursor{0};
  SpinBarrier barrier;
  /// Written by worker 0 before the barrier episode that publishes it and
  /// read by every worker after it, never in the same interval.
  LevelKind next = LevelKind::kStop;
  std::atomic<bool> failed{false};
  /// Written once, by the worker that set `failed`; read by the caller after
  /// the region joins.
  std::exception_ptr error;
};

/// Push expansion: grab frontier grains from the shared cursor, CAS-claim
/// unvisited neighbours.
template <storage::GraphStorage GS>
void expand_level_push(BfsState<GS>& st, std::size_t tid, std::size_t grain) {
  SMPST_TRACE_SCOPE("pbfs.push");
  auto& out = *st.buffers[tid];
  for (;;) {
    const std::size_t begin =
        st.cursor.fetch_add(grain, std::memory_order_relaxed);
    if (begin >= st.frontier.size()) break;
    const std::size_t end = std::min(begin + grain, st.frontier.size());
    for (std::size_t i = begin; i < end; ++i) {
      const VertexId v = st.frontier[i];
      for (VertexId w : st.g.neighbors(v)) {
        VertexId expected = kInvalidVertex;
        // Benign racy pre-check, then a CAS claim: exactly one parent per
        // vertex, no duplicates in the next frontier. Relaxed suffices: the
        // winner publishes w only through its own buffer, which worker 0
        // reads after the level's closing barrier.
        if (SMPST_BENIGN_RACE_LOAD(st.parent[w]) == kInvalidVertex &&
            race_cas(st.parent[w], expected, v, std::memory_order_relaxed,
                     std::memory_order_relaxed)) {
          out.push_back(w);
        }
      }
    }
  }
}

/// Pull expansion, three barrier-separated phases:
///   A. each worker flags its index slice of the frontier vector;
///   B. each worker scans its owned vertex shard, attaching every unvisited
///      vertex to its first flagged neighbour (early exit);
///   C. each worker clears the flags it set in A, leaving the array
///      all-zero for the next pull level.
/// No CAS anywhere: vertex v is claimed only by its shard owner, and the
/// flags are written and read in different phases. Only B reads the graph,
/// so only B can throw; its failure is recorded and the worker still
/// reaches both barriers.
template <storage::GraphStorage GS>
void expand_level_pull(BfsState<GS>& st, std::size_t tid) {
  SMPST_TRACE_SCOPE("pbfs.pull");
  const std::size_t fsz = st.frontier.size();
  const std::size_t flo = fsz * tid / st.p;
  const std::size_t fhi = fsz * (tid + 1) / st.p;
  for (std::size_t i = flo; i < fhi; ++i) {
    st.in_cur_frontier[st.frontier[i]] = 1;
  }
  st.barrier.arrive_and_wait();

  try {
    auto& out = *st.buffers[tid];
    const VertexId lo = st.shard_lo(tid);
    const VertexId hi = st.shard_hi(tid);
    for (VertexId v = lo; v < hi; ++v) {
      if (SMPST_BENIGN_RACE_LOAD(st.parent[v]) != kInvalidVertex) continue;
      for (VertexId u : st.g.neighbors(v)) {
        if (st.in_cur_frontier[u] != 0) {
          SMPST_BENIGN_RACE_STORE(st.parent[v], u);
          out.push_back(v);
          break;
        }
      }
    }
  } catch (...) {
    st.record_failure();
  }
  st.barrier.arrive_and_wait();

  for (std::size_t i = flo; i < fhi; ++i) {
    st.in_cur_frontier[st.frontier[i]] = 0;
  }
}

/// Direction decision for the level about to be expanded. A pull level costs
/// O(n/p) per worker (the shard scan visits every owned vertex) plus two
/// barriers, independent of frontier size, so entering pull requires the
/// frontier to be large on two axes: its edge count must exceed
/// unexplored/alpha (it must dominate the remaining work) and its vertex
/// count must reach n/beta (the scan must have a real chance of early-exiting
/// on most vertices). Staying in pull only requires the vertex-count bar, so
/// the entry/exit asymmetry on the edge axis is the hysteresis: a level that
/// barely crossed the density line does not flip straight back. The absolute
/// edge floor keeps high-diameter trickles (a chain's 2-edge frontier near
/// exhaustion, where unexplored -> 0 makes the ratio meaningless) from ever
/// paying a whole-shard scan.
bool choose_pull(const ParallelBfsOptions& opts, bool was_pull,
                 std::uint64_t frontier_vertices,
                 std::uint64_t frontier_edges, std::uint64_t unexplored_edges,
                 std::uint64_t n) {
  if (opts.direction == BfsDirection::kPushOnly) return false;
  const bool frontier_big =
      static_cast<double>(frontier_vertices) * kBeta >= static_cast<double>(n);
  if (was_pull) return frontier_big;
  return frontier_big && frontier_edges >= kPullMinFrontierEdges &&
         static_cast<double>(frontier_edges) * kAlpha >
             static_cast<double>(unexplored_edges);
}

/// Worker 0's side of the level loop. It runs while every other worker waits
/// at the barrier, so it alone touches parent, the frontier and the buffers;
/// the barrier orders its accesses against the expansions. It walks the
/// components in vertex order (like the sequential baseline), polls
/// cancellation, chooses each level's direction and gathers the next
/// frontier. A push level of at most grain * p vertices it expands by
/// itself: on a thin frontier one thread's work is cheaper than two barrier
/// episodes.
template <storage::GraphStorage GS>
class LevelPlanner {
 public:
  LevelPlanner(BfsState<GS>& st, const ParallelBfsOptions& opts,
               std::size_t grain, ParallelBfsStats& stats)
      : st_(st),
        opts_(opts),
        grain_(grain),
        stats_(stats),
        unexplored_edges_(st.g.num_arcs()) {}

  /// The next level the whole group expands, or kStop once every component
  /// is spanned or any worker has failed. A throw while planning (the cancel
  /// poll, the failpoint, a storage error in a thin level) is recorded and
  /// also ends in kStop.
  LevelKind next_level() noexcept {
    SMPST_TRACE_SCOPE("pbfs.plan");
    if (st_.failed.load(std::memory_order_acquire)) return LevelKind::kStop;
    try {
      return plan();
    } catch (...) {
      st_.record_failure();
      return LevelKind::kStop;
    }
  }

 private:
  LevelKind plan() {
    finish_level();  // a no-op before the first level
    for (;;) {
      if (st_.frontier.empty() && !start_component()) return LevelKind::kStop;
      if (opts_.cancel != nullptr) opts_.cancel->poll();
      // Fault site on worker 0 while the others wait at the barrier: the
      // throw is caught by next_level() and becomes a stop for everyone.
      SMPST_FAILPOINT("core.parallel_bfs.level");
      ++stats_.levels;
      stats_.max_frontier =
          std::max<std::uint64_t>(stats_.max_frontier, st_.frontier.size());

      pull_ = choose_pull(opts_, pull_, st_.frontier.size(), frontier_edges_,
                          unexplored_edges_, st_.n);
      if (last_dir_ >= 0 && last_dir_ != static_cast<int>(pull_)) {
        ++stats_.direction_switches;
      }
      last_dir_ = static_cast<int>(pull_);
      if (pull_) {
        ++stats_.pull_levels;
        return LevelKind::kPull;
      }
      ++stats_.push_levels;
      st_.cursor.store(0, std::memory_order_relaxed);
      if (st_.frontier.size() > grain_ * st_.p) return LevelKind::kPush;
      expand_level_push(st_, 0, grain_);
      finish_level();
    }
  }

  /// Roots the next component at the lowest unvisited vertex; false when
  /// none is left.
  bool start_component() {
    while (root_ < st_.n &&
           SMPST_BENIGN_RACE_LOAD(st_.parent[root_]) != kInvalidVertex) {
      ++root_;
    }
    if (root_ == st_.n) return false;
    SMPST_BENIGN_RACE_STORE(st_.parent[root_], root_);
    st_.frontier.assign(1, root_);
    frontier_edges_ = st_.g.degree(root_);
    pull_ = false;  // every component starts in push
    last_dir_ = -1;
    return true;
  }

  /// Retires the expanded level: its edges are now explored (the running
  /// count is the mu term of the alpha heuristic) and the buffers become the
  /// next frontier. Every buffer is left empty, so a thin level can fill
  /// buffer 0 alone.
  void finish_level() {
    unexplored_edges_ -= std::min(unexplored_edges_, frontier_edges_);
    st_.frontier.clear();
    frontier_edges_ = 0;
    for (auto& buf : st_.buffers) {
      for (const VertexId v : *buf) frontier_edges_ += st_.g.degree(v);
      st_.frontier.insert(st_.frontier.end(), buf->begin(), buf->end());
      buf->clear();
    }
  }

  BfsState<GS>& st_;
  const ParallelBfsOptions& opts_;
  const std::size_t grain_;
  ParallelBfsStats& stats_;
  std::uint64_t unexplored_edges_;
  std::uint64_t frontier_edges_ = 0;
  VertexId root_ = 0;
  bool pull_ = false;
  int last_dir_ = -1;  // direction of the previous *expanded* level
};

/// One worker's whole traversal. Each level the group expands costs two
/// barrier episodes (plan published, expansion done), a pull level two more
/// inside; thin levels and component starts cost none. Nothing throws past
/// this function, so every worker reaches every barrier.
template <storage::GraphStorage GS>
void level_worker(BfsState<GS>& st, std::size_t tid, std::size_t grain,
                  LevelPlanner<GS>& planner) {
  for (;;) {
    if (tid == 0) st.next = planner.next_level();
    st.barrier.arrive_and_wait();
    const LevelKind kind = st.next;
    if (kind == LevelKind::kStop) return;
    if (kind == LevelKind::kPull) {
      expand_level_pull(st, tid);
    } else {
      try {
        expand_level_push(st, tid, grain);
      } catch (...) {
        st.record_failure();
      }
    }
    st.barrier.arrive_and_wait();
  }
}

// Internal, so that the parallel region's lambda is too: see "Internal
// bodies" in storage/graph_storage.hpp.
template <storage::GraphStorage GS>
SpanningForest parallel_bfs_impl(const GS& g, ThreadPool& pool,
                                 const ParallelBfsOptions& opts) {
  const VertexId n = g.num_vertices();
  const std::size_t grain = std::max<std::size_t>(1, opts.grain);

  SpanningForest forest;
  forest.parent.assign(n, kInvalidVertex);
  if (n == 0) return forest;
  if (opts.cancel != nullptr) opts.cancel->poll();

  BfsState<GS> st(g, pool.size());
  ParallelBfsStats stats;
  st.first_touch_init(pool);
  ++stats.regions;
  SMPST_TRACE_SCOPE("pbfs.run");

  LevelPlanner<GS> planner(st, opts, grain, stats);
  pool.run([&](std::size_t tid) { level_worker(st, tid, grain, planner); });
  ++stats.regions;
  if (st.error) std::rethrow_exception(st.error);
  stats.barriers = st.barrier.episodes();

  for (VertexId v = 0; v < n; ++v) {
    forest.parent[v] = st.parent[v];  // after the region join: race-free
  }
  if (opts.stats != nullptr) *opts.stats = stats;
  return forest;
}

}  // namespace

template <storage::GraphStorage GS>
SpanningForest parallel_bfs_spanning_tree(const GS& g, ThreadPool& pool,
                                          const ParallelBfsOptions& opts) {
  return parallel_bfs_impl(g, pool, opts);
}

template <storage::GraphStorage GS>
SpanningForest parallel_bfs_spanning_tree(const GS& g,
                                          const ParallelBfsOptions& opts) {
  ThreadPool pool(threads_or_hardware(opts.num_threads));
  return parallel_bfs_spanning_tree(g, pool, opts);
}

template SpanningForest parallel_bfs_spanning_tree(const Graph&, ThreadPool&,
                                                   const ParallelBfsOptions&);
template SpanningForest parallel_bfs_spanning_tree(
    const storage::BlockedGraph&, ThreadPool&, const ParallelBfsOptions&);
template SpanningForest parallel_bfs_spanning_tree(const Graph&,
                                                   const ParallelBfsOptions&);
template SpanningForest parallel_bfs_spanning_tree(
    const storage::BlockedGraph&, const ParallelBfsOptions&);

}  // namespace smpst
