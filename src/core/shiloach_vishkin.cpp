#include "core/shiloach_vishkin.hpp"

#include <atomic>
#include <limits>
#include <memory>

#include "core/cancellation.hpp"
#include "obs/trace.hpp"
#include "sched/barrier.hpp"
#include "sched/spinlock.hpp"
#include "sched/thread_pool.hpp"
#include "storage/blocked_graph.hpp"
#include "storage/graph_storage.hpp"
#include "support/assert.hpp"
#include "support/cacheline.hpp"
#include "support/cpu.hpp"
#include "support/timer.hpp"

namespace smpst {

namespace {

constexpr EdgeId kNoWinner = std::numeric_limits<EdgeId>::max();

struct Range {
  std::size_t begin;
  std::size_t end;
};

Range chunk_of(std::size_t total, std::size_t tid, std::size_t p) {
  const std::size_t base = total / p;
  const std::size_t extra = total % p;
  const std::size_t begin = tid * base + std::min(tid, extra);
  return {begin, begin + base + (tid < extra ? 1 : 0)};
}

struct SvState {
  // The constructor is SV's ONLY graph access: it materializes the canonical
  // edge array. Templated over the storage backend, so a blocked graph pays
  // its cache I/O once here and the label-propagation rounds run over plain
  // memory.
  template <storage::GraphStorage GS>
  SvState(const GS& g, std::vector<VertexId> initial, std::size_t p)
      : n(g.num_vertices()),
        labels(std::make_unique<std::atomic<VertexId>[]>(n)),
        winner(std::make_unique<std::atomic<EdgeId>[]>(n)),
        per_thread_edges(p),
        barrier(p) {
    SMPST_CHECK(initial.size() == n, "sv: initial label size mismatch");
    for (VertexId v = 0; v < n; ++v) {
      labels[v].store(initial[v], std::memory_order_relaxed);
      winner[v].store(kNoWinner, std::memory_order_relaxed);
    }
    // Canonical undirected edge array (u < v once each).
    edges.reserve(g.num_edges());
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : g.neighbors(u)) {
        if (u < v) edges.push_back(Edge{u, v});
      }
    }
  }

  VertexId n;
  std::unique_ptr<std::atomic<VertexId>[]> labels;
  std::unique_ptr<std::atomic<EdgeId>[]> winner;
  std::vector<Edge> edges;
  std::vector<std::vector<Edge>> per_thread_edges;
  SpinBarrier barrier;
  std::atomic<bool> grafted_flag{false};
  std::atomic<bool> shortcut_flag{false};
  std::atomic<bool> cancel_flag{false};
  std::atomic<std::uint64_t> graft_count{0};

  // Lock table for the lock-based variant (hashed by root id).
  std::vector<Padded<SpinLock>> locks;
};

/// Cancellation consensus at a round boundary. Only thread 0 reads the
/// clock; the vote_or barrier publishes one shared verdict, so either every
/// worker starts the round or every worker returns — a lone early exit
/// would deadlock the others at the next barrier.
bool cancelled_by_consensus(SvState& st, std::size_t tid,
                            const CancelToken* cancel) {
  if (cancel == nullptr) return false;
  return vote_or(st.barrier, st.cancel_flag, tid,
                 tid == 0 && cancel->expired());
}

/// Pointer jumping until every component is a rooted star. Termination is a
/// barrier-consensus OR over per-thread "changed" votes. This full collapse
/// is the SMP adaptation's extra log n factor.
void shortcut_to_stars(SvState& st, std::size_t tid, const Range& vr,
                       SvStats& stats, bool collect_stats) {
  WallTimer timer;
  for (;;) {
    bool changed = false;
    for (std::size_t v = vr.begin; v < vr.end; ++v) {
      const VertexId dv = st.labels[v].load(std::memory_order_relaxed);
      const VertexId ddv = st.labels[dv].load(std::memory_order_relaxed);
      if (ddv != dv) {
        st.labels[v].store(ddv, std::memory_order_relaxed);
        changed = true;
      }
    }
    const bool any = vote_or(st.barrier, st.shortcut_flag, tid, changed);
    if (tid == 0 && collect_stats) ++stats.shortcut_passes;
    if (!any) break;
  }
  if (tid == 0 && collect_stats) {
    stats.shortcut_seconds += timer.elapsed_seconds();
  }
}

/// One worker of the election-based SV. Each iteration: propose (CAS
/// elections on the larger-labelled root of every crossing edge), apply
/// (winning edges graft their root and join the spanning forest), shortcut.
void sv_worker_election(SvState& st, std::size_t tid, std::size_t p,
                        const CancelToken* cancel, SvStats& stats,
                        bool collect_stats) {
  const Range vr = chunk_of(st.n, tid, p);
  const Range er = chunk_of(st.edges.size(), tid, p);
  auto& tree_edges = st.per_thread_edges[tid];

  for (;;) {
    if (cancelled_by_consensus(st, tid, cancel)) return;
    for (std::size_t v = vr.begin; v < vr.end; ++v) {
      st.winner[v].store(kNoWinner, std::memory_order_relaxed);
    }
    st.barrier.arrive_and_wait();  // winners reset before proposals

    WallTimer phase_timer;
    bool proposed = false;
    for (std::size_t e = er.begin; e < er.end; ++e) {
      const VertexId ru =
          st.labels[st.edges[e].u].load(std::memory_order_relaxed);
      const VertexId rv =
          st.labels[st.edges[e].v].load(std::memory_order_relaxed);
      if (ru == rv) continue;
      const VertexId target = ru > rv ? ru : rv;
      EdgeId expected = kNoWinner;
      st.winner[target].compare_exchange_strong(expected, e,
                                                std::memory_order_relaxed);
      proposed = true;
    }
    st.barrier.arrive_and_wait();  // proposals complete before applying

    for (std::size_t v = vr.begin; v < vr.end; ++v) {
      const EdgeId e = st.winner[v].load(std::memory_order_relaxed);
      if (e == kNoWinner) continue;
      const Edge edge = st.edges[e];
      const VertexId du = st.labels[edge.u].load(std::memory_order_relaxed);
      const VertexId small =
          du == static_cast<VertexId>(v)
              ? st.labels[edge.v].load(std::memory_order_relaxed)
              : du;
      st.labels[v].store(small, std::memory_order_relaxed);
      tree_edges.push_back(edge);
      st.graft_count.fetch_add(1, std::memory_order_relaxed);
    }
    if (tid == 0 && collect_stats) {
      stats.graft_seconds += phase_timer.elapsed_seconds();
    }

    const bool any = vote_or(st.barrier, st.grafted_flag, tid, proposed);
    if (tid == 0 && any) SMPST_TRACE_INSTANT("sv.round");
    if (tid == 0 && collect_stats && any) ++stats.iterations;
    if (!any) break;

    shortcut_to_stars(st, tid, vr, stats, collect_stats);
  }
  if (tid == 0 && collect_stats) stats.barriers = st.barrier.episodes();
}

/// Lock-based grafting: the "straightforward solution" from §2. A root is
/// grafted under a hashed per-root lock the moment a crossing edge is found;
/// the still-a-root re-check under the lock prevents double grafts.
void sv_worker_locked(SvState& st, std::size_t tid, std::size_t p,
                      const CancelToken* cancel, SvStats& stats,
                      bool collect_stats) {
  const Range vr = chunk_of(st.n, tid, p);
  const Range er = chunk_of(st.edges.size(), tid, p);
  auto& tree_edges = st.per_thread_edges[tid];

  for (;;) {
    if (cancelled_by_consensus(st, tid, cancel)) return;
    WallTimer phase_timer;
    bool grafted = false;
    for (std::size_t e = er.begin; e < er.end; ++e) {
      const VertexId ru =
          st.labels[st.edges[e].u].load(std::memory_order_relaxed);
      const VertexId rv =
          st.labels[st.edges[e].v].load(std::memory_order_relaxed);
      if (ru == rv) continue;
      const VertexId target = ru > rv ? ru : rv;
      auto& lock = *st.locks[target % st.locks.size()];
      lock.lock();
      // Re-check under the lock: someone may have grafted this root already.
      if (st.labels[target].load(std::memory_order_relaxed) == target) {
        const Edge edge = st.edges[e];
        const VertexId du = st.labels[edge.u].load(std::memory_order_relaxed);
        const VertexId small =
            du == target ? st.labels[edge.v].load(std::memory_order_relaxed)
                         : du;
        if (small != target) {
          st.labels[target].store(small, std::memory_order_relaxed);
          tree_edges.push_back(edge);
          st.graft_count.fetch_add(1, std::memory_order_relaxed);
          grafted = true;
        }
      }
      lock.unlock();
    }
    if (tid == 0 && collect_stats) {
      stats.graft_seconds += phase_timer.elapsed_seconds();
    }

    const bool any = vote_or(st.barrier, st.grafted_flag, tid, grafted);
    if (tid == 0 && any) SMPST_TRACE_INSTANT("sv.round");
    if (tid == 0 && collect_stats && any) ++stats.iterations;
    if (!any) break;

    shortcut_to_stars(st, tid, vr, stats, collect_stats);
  }
  if (tid == 0 && collect_stats) stats.barriers = st.barrier.episodes();
}

// Internal, so that the parallel region's lambda is too: see "Internal
// bodies" in storage/graph_storage.hpp.
template <storage::GraphStorage GS>
std::vector<Edge> sv_tree_edges_impl(const GS& g, ThreadPool& pool,
                                     std::vector<VertexId> initial_labels,
                                     const SvOptions& opts) {
  const std::size_t p = pool.size();
  SvState st(g, std::move(initial_labels), p);
  if (opts.use_locks) {
    st.locks = std::vector<Padded<SpinLock>>(
        std::min<std::size_t>(std::max<VertexId>(1, st.n), 4096));
  }

  SvStats local_stats;
  const bool collect = opts.stats != nullptr;
  SMPST_TRACE_SCOPE("sv.run");
  pool.run([&](std::size_t tid) {
    if (opts.use_locks) {
      sv_worker_locked(st, tid, p, opts.cancel, local_stats, collect);
    } else {
      sv_worker_election(st, tid, p, opts.cancel, local_stats, collect);
    }
  });
  // Workers that lost the cancellation vote left the forest incomplete;
  // surface that to the caller instead of returning a partial edge set.
  if (opts.cancel != nullptr) opts.cancel->poll();

  std::vector<Edge> result;
  for (auto& te : st.per_thread_edges) {
    result.insert(result.end(), te.begin(), te.end());
  }
  if (collect) {
    local_stats.grafts = st.graft_count.load(std::memory_order_relaxed);
    *opts.stats = local_stats;
  }
  return result;
}

}  // namespace

template <storage::GraphStorage GS>
std::vector<Edge> sv_tree_edges(const GS& g, ThreadPool& pool,
                                std::vector<VertexId> initial_labels,
                                const SvOptions& opts) {
  return sv_tree_edges_impl(g, pool, std::move(initial_labels), opts);
}

template <storage::GraphStorage GS>
SpanningForest sv_spanning_tree(const GS& g, ThreadPool& pool,
                                const SvOptions& opts) {
  std::vector<VertexId> identity(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) identity[v] = v;

  const auto edges = sv_tree_edges_impl(g, pool, std::move(identity), opts);

  WallTimer orient_timer;
  auto forest = orient_tree_edges(g.num_vertices(), edges);
  if (opts.stats != nullptr) {
    opts.stats->orient_seconds = orient_timer.elapsed_seconds();
  }
  return forest;
}

template <storage::GraphStorage GS>
SpanningForest sv_spanning_tree(const GS& g, const SvOptions& opts) {
  ThreadPool pool(threads_or_hardware(opts.num_threads));
  return sv_spanning_tree(g, pool, opts);
}

template std::vector<Edge> sv_tree_edges(const Graph&, ThreadPool&,
                                         std::vector<VertexId>,
                                         const SvOptions&);
template std::vector<Edge> sv_tree_edges(const storage::BlockedGraph&,
                                         ThreadPool&, std::vector<VertexId>,
                                         const SvOptions&);
template SpanningForest sv_spanning_tree(const Graph&, ThreadPool&,
                                         const SvOptions&);
template SpanningForest sv_spanning_tree(const storage::BlockedGraph&,
                                         ThreadPool&, const SvOptions&);
template SpanningForest sv_spanning_tree(const Graph&, const SvOptions&);
template SpanningForest sv_spanning_tree(const storage::BlockedGraph&,
                                         const SvOptions&);

}  // namespace smpst
