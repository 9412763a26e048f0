#include "core/hcs.hpp"

#include <atomic>
#include <limits>
#include <memory>

#include "core/cancellation.hpp"
#include "sched/barrier.hpp"
#include "sched/thread_pool.hpp"
#include "support/cpu.hpp"
#include "support/timer.hpp"

namespace smpst {

namespace {

constexpr EdgeId kNoEdge = std::numeric_limits<EdgeId>::max();

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

struct HcsState {
  HcsState(const Graph& g, std::size_t p)
      : n(g.num_vertices()),
        labels(std::make_unique<std::atomic<VertexId>[]>(n)),
        cand(std::make_unique<std::atomic<EdgeId>[]>(n)),
        per_thread_edges(p),
        barrier(p) {
    for (VertexId v = 0; v < n; ++v) {
      labels[v].store(v, std::memory_order_relaxed);
      cand[v].store(kNoEdge, std::memory_order_relaxed);
    }
    edges.reserve(g.num_edges());
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : g.neighbors(u)) {
        if (u < v) edges.push_back(Edge{u, v});
      }
    }
  }

  /// Root of the component on the far side of edge e, as seen from root r
  /// (reads current labels; stable within a phase).
  [[nodiscard]] VertexId other_root(EdgeId e, VertexId r) const {
    const VertexId du = labels[edges[e].u].load(std::memory_order_relaxed);
    return du == r ? labels[edges[e].v].load(std::memory_order_relaxed) : du;
  }

  VertexId n;
  std::unique_ptr<std::atomic<VertexId>[]> labels;
  std::unique_ptr<std::atomic<EdgeId>[]> cand;
  std::vector<Edge> edges;
  std::vector<std::vector<Edge>> per_thread_edges;
  SpinBarrier barrier;
  std::atomic<bool> hooked_flag{false};
  std::atomic<bool> shortcut_flag{false};
  std::atomic<bool> cancel_flag{false};
};

void hcs_worker(HcsState& st, std::size_t tid, std::size_t p,
                const CancelToken* cancel, SvStats& stats,
                bool collect_stats) {
  const Range vr = chunk_of(st.n, tid, p);
  const Range er = chunk_of(st.edges.size(), tid, p);
  auto& tree_edges = st.per_thread_edges[tid];

  for (;;) {
    // Cancellation consensus (see shiloach_vishkin.cpp): thread 0 reads the
    // clock, the vote_or barrier shares the verdict, all exit together.
    if (cancel != nullptr &&
        vote_or(st.barrier, st.cancel_flag, tid,
                tid == 0 && cancel->expired())) {
      return;
    }
    for (std::size_t v = vr.begin; v < vr.end; ++v) {
      st.cand[v].store(kNoEdge, std::memory_order_relaxed);
    }
    st.barrier.arrive_and_wait();  // candidates reset before the reduction

    // Min-reduction: each root's candidate converges to the edge whose far
    // side carries the minimum neighbouring label (ties by edge index).
    WallTimer phase_timer;
    bool proposed = false;
    for (std::size_t e = er.begin; e < er.end; ++e) {
      const VertexId ru =
          st.labels[st.edges[e].u].load(std::memory_order_relaxed);
      const VertexId rv =
          st.labels[st.edges[e].v].load(std::memory_order_relaxed);
      if (ru == rv) continue;
      proposed = true;
      for (const VertexId r : {ru, rv}) {
        const VertexId mine = st.other_root(e, r);
        EdgeId cur = st.cand[r].load(std::memory_order_relaxed);
        while (true) {
          const bool better =
              cur == kNoEdge || mine < st.other_root(cur, r) ||
              (mine == st.other_root(cur, r) && e < cur);
          if (!better) break;
          if (st.cand[r].compare_exchange_weak(cur, e,
                                               std::memory_order_relaxed)) {
            break;
          }
        }
      }
    }
    st.barrier.arrive_and_wait();  // reductions complete before hooking

    // Hook each root onto its minimum neighbour, but only downward
    // (min < r): labels stay monotone, so no hook cycles can form. Roots
    // whose minimum neighbour is larger stay put and get hooked onto.
    for (std::size_t v = vr.begin; v < vr.end; ++v) {
      const EdgeId e = st.cand[v].load(std::memory_order_relaxed);
      if (e == kNoEdge) continue;
      const VertexId target = st.other_root(e, static_cast<VertexId>(v));
      if (target >= static_cast<VertexId>(v)) continue;
      st.labels[v].store(target, std::memory_order_relaxed);
      tree_edges.push_back(st.edges[e]);
    }
    if (tid == 0 && collect_stats) {
      stats.graft_seconds += phase_timer.elapsed_seconds();
    }

    const bool any = vote_or(st.barrier, st.hooked_flag, tid, proposed);
    if (tid == 0 && collect_stats && any) ++stats.iterations;
    if (!any) break;

    // Shortcut to rooted stars.
    WallTimer shortcut_timer;
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
      const bool more = vote_or(st.barrier, st.shortcut_flag, tid, changed);
      if (tid == 0 && collect_stats) ++stats.shortcut_passes;
      if (!more) break;
    }
    if (tid == 0 && collect_stats) {
      stats.shortcut_seconds += shortcut_timer.elapsed_seconds();
    }
  }
  if (tid == 0 && collect_stats) stats.barriers = st.barrier.episodes();
}

}  // namespace

SpanningForest hcs_spanning_tree(const Graph& g, ThreadPool& pool,
                                 const HcsOptions& opts) {
  const std::size_t p = pool.size();
  HcsState st(g, p);
  SvStats stats;
  const bool collect = opts.stats != nullptr;
  pool.run([&](std::size_t tid) {
    hcs_worker(st, tid, p, opts.cancel, stats, collect);
  });
  // A cancelled run left the forest incomplete; throw rather than return it.
  if (opts.cancel != nullptr) opts.cancel->poll();

  std::vector<Edge> edges;
  std::size_t count = 0;
  for (const auto& te : st.per_thread_edges) count += te.size();
  edges.reserve(count);
  for (const auto& te : st.per_thread_edges) {
    edges.insert(edges.end(), te.begin(), te.end());
  }
  if (collect) {
    stats.grafts = edges.size();
    *opts.stats = stats;
  }
  return orient_tree_edges(g.num_vertices(), edges);
}

SpanningForest hcs_spanning_tree(const Graph& g, const HcsOptions& opts) {
  ThreadPool pool(threads_or_hardware(opts.num_threads));
  return hcs_spanning_tree(g, pool, opts);
}

}  // namespace smpst
