#include "core/parallel_bfs.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <vector>

#include "core/fifo_bfs.hpp"
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

/// The vertex-count bar of the pull direction; below it choose_pull never
/// reads the frontier's edge count.
bool frontier_big(std::uint64_t frontier_vertices, std::uint64_t n) {
  return static_cast<double>(frontier_vertices) * kBeta >=
         static_cast<double>(n);
}

/// What worker 0 planned for the level the whole group expands next.
enum class LevelKind : std::uint8_t { kPush, kPull, kStop };

/// What worker t fills in a group level: the vertices it discovers, which
/// become its piece of the next frontier, and two edge counts.
struct WorkerSlot {
  std::vector<VertexId> found;
  std::uint64_t scanned = 0;      ///< edges this worker's push grains scanned
  std::uint64_t found_edges = 0;  ///< degree sum of found
};

/// Worker t's piece of the frontier the group expands: it holds the
/// vertices at indices [start, next piece's start) of the pieces'
/// concatenation.
struct Piece {
  const VertexId* first = nullptr;
  std::size_t start = 0;
};

/// parent is the result forest's array, PLAIN memory (support/race.hpp). In
/// push levels the load that pre-screens the CAS claim is the intended benign
/// race — stale values only cost a wasted CAS or skip a vertex another thread
/// already owns — while the claim itself goes through race_cas(), a real CAS
/// in every build, because the exactly-one-parent invariant is load-bearing.
/// In pull levels parent is ownership-partitioned (only the shard owner reads
/// or writes its vertices), so they do not race at all; the accesses still
/// go through the wrappers so the whole array carries one auditable
/// annotation discipline. Worker 0's solo levels run while every other
/// worker waits at the barrier and use the sequential BFS's plain step.
template <storage::GraphStorage GS>
struct BfsState {
  /// `forest_parent` holds n entries, which the caller has filled with
  /// kInvalidVertex.
  BfsState(const GS& graph, std::size_t p_, std::size_t grain_,
           VertexId* forest_parent)
      : g(graph),
        n(graph.num_vertices()),
        p(p_),
        grain(grain_),
        parent(forest_parent),
        pieces(p_ + 1),
        slots(2 * p_),
        barrier(p_) {}

  /// Contiguous vertex-ownership shards; worker t owns
  /// [shard_lo(t), shard_hi(t)) for pull scans.
  [[nodiscard]] VertexId shard_lo(std::size_t tid) const noexcept {
    return static_cast<VertexId>(static_cast<std::uint64_t>(n) * tid / p);
  }
  [[nodiscard]] VertexId shard_hi(std::size_t tid) const noexcept {
    return static_cast<VertexId>(static_cast<std::uint64_t>(n) * (tid + 1) /
                                 p);
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
  const std::size_t grain;  ///< frontier vertices per cursor grab
  VertexId* const parent;
  /// Frontier-membership flags consulted by pull levels, allocated
  /// zero-filled by worker 0 when it plans the first one. Written (phase A)
  /// and cleared (phase C) by piece owners, read by everyone in the scan
  /// phase between them; the in-region barriers separate the phases, so
  /// every access is race-free.
  std::unique_ptr<std::uint8_t[]> in_cur_frontier;

  [[nodiscard]] WorkerSlot& slot(std::size_t tid) {
    return *slots[out * p + tid];
  }
  [[nodiscard]] std::span<const VertexId> piece(std::size_t tid) const {
    return {pieces[tid].first, pieces[tid + 1].start - pieces[tid].start};
  }

  /// The frontier of the level the group expands, as p pieces; pieces[p]
  /// only marks the end (its start is the frontier's size). Written by
  /// worker 0 while it plans.
  std::vector<Piece> pieces;
  /// Two sets of p slots; worker t fills slot(t). Worker 0 flips `out`
  /// when it takes the filled set's discoveries as the next frontier, so
  /// the buffers being expanded are never the ones being written.
  std::vector<Padded<WorkerSlot>> slots;
  unsigned out = 0;
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

/// Push expansion: grab grains of the frontier's concatenated pieces from
/// the shared cursor, CAS-claim unvisited neighbours.
template <storage::GraphStorage GS>
void expand_level_push(BfsState<GS>& st, WorkerSlot& slot) {
  SMPST_TRACE_SCOPE("pbfs.push");
  auto& out = slot.found;
  const std::size_t size = st.pieces[st.p].start;
  std::uint64_t scanned = 0;
  std::size_t k = 0;  // the piece holding index i; grains only move forward
  for (;;) {
    std::size_t i = st.cursor.fetch_add(st.grain, std::memory_order_relaxed);
    if (i >= size) break;
    for (const std::size_t end = std::min(i + st.grain, size); i < end; ++i) {
      while (st.pieces[k + 1].start <= i) ++k;
      const VertexId v = st.pieces[k].first[i - st.pieces[k].start];
      const auto nbrs = st.g.neighbors(v);
      scanned += nbrs.size();
      for (VertexId w : nbrs) {
        VertexId expected = kInvalidVertex;
        // Benign racy pre-check, then a CAS claim: exactly one parent per
        // vertex, no duplicates in the next frontier. Relaxed suffices: the
        // winner publishes w only through its own buffer, which the others
        // read after the level's closing barrier.
        if (SMPST_BENIGN_RACE_LOAD(st.parent[w]) == kInvalidVertex &&
            race_cas(st.parent[w], expected, v, std::memory_order_relaxed,
                     std::memory_order_relaxed)) {
          out.push_back(w);
        }
      }
    }
  }
  slot.scanned = scanned;
}

/// Pull expansion, three barrier-separated phases:
///   A. each worker flags the vertices of its frontier piece;
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
  const std::span<const VertexId> mine = st.piece(tid);
  for (const VertexId v : mine) st.in_cur_frontier[v] = 1;
  st.barrier.arrive_and_wait();

  try {
    auto& out = st.slot(tid).found;
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

  for (const VertexId v : mine) st.in_cur_frontier[v] = 0;
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
  const bool big = frontier_big(frontier_vertices, n);
  if (was_pull) return big;
  return big && frontier_edges >= kPullMinFrontierEdges &&
         static_cast<double>(frontier_edges) * kAlpha >
             static_cast<double>(unexplored_edges);
}

/// Worker 0's side of the level loop. It runs while every other worker waits
/// at the barrier, so it alone touches parent and the frontier; the barrier
/// orders its accesses against the expansions. It walks the components in
/// vertex order (like the sequential baseline), polls cancellation and
/// chooses each level's direction.
///
/// While the frontier is a push level of at most grain * p vertices, worker
/// 0 expands the levels itself, as one FIFO run like bfs_spanning_tree: a
/// plain check-then-set per edge, the next vertex's neighbour slice
/// prefetched, and level boundaries kept as queue indices. On a thin
/// frontier one thread's work is cheaper than two barrier episodes. The run
/// hands the first wider (or pull) level to the group.
template <storage::GraphStorage GS>
class LevelPlanner {
 public:
  LevelPlanner(BfsState<GS>& st, const ParallelBfsOptions& opts,
               ParallelBfsStats& stats)
      : st_(st),
        opts_(opts),
        solo_max_(st.grain * st.p),
        stats_(stats),
        queue_(std::make_unique_for_overwrite<VertexId[]>(st.n)),
        unexplored_edges_(st.g.num_arcs()) {}

  /// The next level the whole group expands, or kStop once every component
  /// is spanned or any worker has failed. A throw while planning (the cancel
  /// poll, the failpoint, a storage error in a solo level) is recorded and
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
    if (group_level_) take_group_level();
    for (;;) {
      if (frontier_size_ == 0 && !start_component()) return LevelKind::kStop;
      if (opts_.cancel != nullptr) opts_.cancel->poll();
      // Fault site on worker 0 while the others wait at the barrier: the
      // throw is caught by next_level() and becomes a stop for everyone.
      SMPST_FAILPOINT("core.parallel_bfs.level");
      ++stats_.levels;
      stats_.max_frontier =
          std::max<std::uint64_t>(stats_.max_frontier, frontier_size_);

      pull_ = choose_pull(opts_, pull_, frontier_size_, frontier_edges_,
                          unexplored_edges_, st_.n);
      if (last_dir_ >= 0 && last_dir_ != static_cast<int>(pull_)) {
        ++stats_.direction_switches;
      }
      last_dir_ = static_cast<int>(pull_);
      if (pull_) {
        ++stats_.pull_levels;
        if (!st_.in_cur_frontier) {
          st_.in_cur_frontier = std::make_unique<std::uint8_t[]>(st_.n);
        }
        return hand_to_group(LevelKind::kPull);
      }
      ++stats_.push_levels;
      if (frontier_size_ > solo_max_) return hand_to_group(LevelKind::kPush);
      ++stats_.solo_levels;
      expand_solo_level();
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
    head_ = tail_;
    queue_[tail_++] = root_;
    in_queue_ = true;
    frontier_size_ = 1;
    frontier_edges_ = queued_edges();
    pull_ = false;  // every component starts in push
    last_dir_ = -1;
    return true;
  }

  /// Expands the frontier queue_[head_, tail_) as one level of the FIFO run:
  /// the vertices it discovers are queued behind it and become the next
  /// frontier. A push level's scanned edges are its frontier's degree sum,
  /// the edges that become explored. The run's step is bfs_spanning_tree's
  /// (core/fifo_bfs.hpp): a plain check-then-set on parent, which is safe
  /// because every other worker waits at the barrier (docs/CONCURRENCY.md).
  void expand_solo_level() {
    if (!in_queue_) {
      // The group's discoveries continue the queue. Every vertex is queued
      // at most once per traversal, so the queue never outgrows n slots.
      head_ = tail_;
      for (std::size_t t = 0; t < st_.p; ++t) {
        const std::span<const VertexId> piece = st_.piece(t);
        std::copy(piece.begin(), piece.end(), queue_.get() + tail_);
        tail_ += piece.size();
      }
      in_queue_ = true;
    }
    std::size_t head = head_;
    std::size_t tail = tail_;
    const std::size_t level_end = tail;
    const FifoBfsStep<GS> expand_next(st_.g, st_.parent, queue_.get());
    std::uint64_t scanned = 0;
    while (head < level_end) scanned += expand_next(head, tail);
    head_ = head;
    tail_ = tail;
    unexplored_edges_ -= std::min(unexplored_edges_, scanned);
    frontier_size_ = tail - head;
    frontier_edges_ = queued_edges();
  }

  /// The queued frontier's degree sum, summed only when choose_pull reads it.
  std::uint64_t queued_edges() const {
    if (!frontier_big(frontier_size_, st_.n)) return 0;
    std::uint64_t edges = 0;
    for (std::size_t i = head_; i < tail_; ++i) {
      edges += st_.g.degree(queue_[i]);
    }
    return edges;
  }

  /// Publishes the frontier for the group. A queued frontier is cut into p
  /// equal pieces of the queue, which the group's level consumes.
  LevelKind hand_to_group(LevelKind kind) {
    if (in_queue_) {
      const std::size_t size = tail_ - head_;
      for (std::size_t t = 0; t <= st_.p; ++t) {
        const std::size_t start = size * t / st_.p;
        st_.pieces[t] = {queue_.get() + head_ + start, start};
      }
      head_ = tail_;
      in_queue_ = false;
    }
    st_.cursor.store(0, std::memory_order_relaxed);
    group_level_ = true;
    return kind;
  }

  /// Retires the level the group expanded: its edges are now explored (the
  /// running count is the mu term of the alpha heuristic) and the workers'
  /// found buffers, with the degree sums they took, become the next
  /// frontier.
  void take_group_level() {
    group_level_ = false;
    std::uint64_t explored = frontier_edges_;
    if (!pull_) {
      explored = 0;
      for (std::size_t t = 0; t < st_.p; ++t) explored += st_.slot(t).scanned;
    }
    unexplored_edges_ -= std::min(unexplored_edges_, explored);
    std::size_t size = 0;
    frontier_edges_ = 0;
    for (std::size_t t = 0; t < st_.p; ++t) {
      const WorkerSlot& slot = st_.slot(t);
      st_.pieces[t] = {slot.found.data(), size};
      size += slot.found.size();
      frontier_edges_ += slot.found_edges;
    }
    st_.pieces[st_.p] = {nullptr, size};
    frontier_size_ = size;
    st_.out ^= 1U;
  }

  BfsState<GS>& st_;
  const ParallelBfsOptions& opts_;
  const std::size_t solo_max_;  ///< widest frontier worker 0 expands alone
  ParallelBfsStats& stats_;
  /// The solo FIFO. queue_[head_, tail_) is the frontier while in_queue_;
  /// otherwise the frontier is st_.pieces.
  const std::unique_ptr<VertexId[]> queue_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  bool in_queue_ = false;
  bool group_level_ = false;  ///< the group expanded the planned level
  std::uint64_t unexplored_edges_;
  std::uint64_t frontier_size_ = 0;
  std::uint64_t frontier_edges_ = 0;
  VertexId root_ = 0;
  bool pull_ = false;
  int last_dir_ = -1;  // direction of the previous *expanded* level
};

/// One worker's whole traversal. Each level the group expands costs two
/// barrier episodes (plan published, expansion done), a pull level two more
/// inside; solo levels and component starts cost none. Before the closing
/// barrier each worker sums the degrees of what it found, its piece of the
/// next frontier. Nothing throws past this function, so every worker
/// reaches every barrier.
template <storage::GraphStorage GS>
void level_worker(BfsState<GS>& st, std::size_t tid,
                  LevelPlanner<GS>& planner) {
  for (;;) {
    if (tid == 0) st.next = planner.next_level();
    st.barrier.arrive_and_wait();
    const LevelKind kind = st.next;
    if (kind == LevelKind::kStop) return;
    WorkerSlot& slot = st.slot(tid);
    auto& out = slot.found;
    out.clear();
    if (kind == LevelKind::kPull) expand_level_pull(st, tid);
    try {
      if (kind == LevelKind::kPush) expand_level_push(st, slot);
      std::uint64_t edges = 0;
      for (const VertexId v : out) edges += st.g.degree(v);
      slot.found_edges = edges;
    } catch (...) {
      st.record_failure();
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

  SpanningForest forest;
  forest.parent.assign(n, kInvalidVertex);
  if (n == 0) return forest;
  if (opts.cancel != nullptr) opts.cancel->poll();

  // A grain of n already leaves every level to worker 0; the clamp keeps
  // grain * p and the cursor's grabs from overflowing.
  const std::size_t grain = std::clamp<std::size_t>(opts.grain, 1, n);
  BfsState<GS> st(g, pool.size(), grain, forest.parent.data());
  ParallelBfsStats stats;
  SMPST_TRACE_SCOPE("pbfs.run");

  LevelPlanner<GS> planner(st, opts, stats);
  pool.run([&](std::size_t tid) { level_worker(st, tid, planner); });
  ++stats.regions;
  if (st.error) std::rethrow_exception(st.error);
  stats.barriers = st.barrier.episodes();
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
