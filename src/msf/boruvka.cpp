#include "msf/boruvka.hpp"

#include <atomic>
#include <limits>
#include <memory>

#include "sched/barrier.hpp"
#include "sched/thread_pool.hpp"
#include "support/cpu.hpp"

namespace smpst::msf {

namespace {

constexpr std::uint64_t kNoEdge = std::numeric_limits<std::uint64_t>::max();

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

/// (weight, index) comparison used by every election: strictly smaller
/// weight wins; equal weights fall back to the smaller index so the
/// election is a total order.
bool edge_less(const std::vector<WeightedEdge>& edges, std::uint64_t a,
               std::uint64_t b) {
  if (b == kNoEdge) return true;
  if (edges[a].w != edges[b].w) return edges[a].w < edges[b].w;
  return a < b;
}

}  // namespace

std::vector<WeightedEdge> boruvka(const WeightedEdgeList& graph,
                                  const BoruvkaOptions& opts) {
  const VertexId n = graph.num_vertices;
  const std::size_t p = threads_or_hardware(opts.num_threads);
  const auto& edges = graph.edges;
  if (n == 0) return {};

  auto labels = std::make_unique<std::atomic<VertexId>[]>(n);
  auto cand = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  for (VertexId v = 0; v < n; ++v) {
    labels[v].store(v, std::memory_order_relaxed);
    cand[v].store(kNoEdge, std::memory_order_relaxed);
  }

  SpinBarrier barrier(p);
  std::atomic<bool> any_candidate{false};
  std::atomic<bool> jump_changed{false};
  std::atomic<std::uint64_t> hook_count{0};
  std::vector<std::vector<std::uint64_t>> picked(p);
  // Hook targets are staged here and committed after a barrier so every hook
  // decision reads the stable pre-hook labels (no mid-phase label motion).
  std::vector<VertexId> next_label(n, kInvalidVertex);
  std::uint64_t rounds = 0;

  ThreadPool pool(p);
  pool.run([&](std::size_t tid) {
    const Range vr = chunk_of(n, tid, p);
    const Range er = chunk_of(edges.size(), tid, p);
    for (;;) {
      if (tid == 0) ++rounds;
      for (std::size_t v = vr.begin; v < vr.end; ++v) {
        cand[v].store(kNoEdge, std::memory_order_relaxed);
      }
      barrier.arrive_and_wait();

      // Elect each component's minimum outgoing edge via CAS-min.
      bool local_any = false;
      for (std::size_t e = er.begin; e < er.end; ++e) {
        const VertexId ru = labels[edges[e].u].load(std::memory_order_relaxed);
        const VertexId rv = labels[edges[e].v].load(std::memory_order_relaxed);
        if (ru == rv) continue;
        local_any = true;
        for (const VertexId r : {ru, rv}) {
          std::uint64_t cur = cand[r].load(std::memory_order_relaxed);
          while (edge_less(edges, e, cur) &&
                 !cand[r].compare_exchange_weak(cur, e,
                                                std::memory_order_relaxed)) {
          }
        }
      }
      if (!vote_or(barrier, any_candidate, tid, local_any)) break;

      // Hook each root along its winning edge. If two roots picked the same
      // edge (a mutual minimum), only the larger hooks, breaking the
      // two-cycle; that root also records the MSF edge. Decisions are staged
      // in next_label and committed after a barrier so every decision reads
      // the stable pre-hook labels.
      for (std::size_t v = vr.begin; v < vr.end; ++v) {
        next_label[v] = kInvalidVertex;
        const std::uint64_t e = cand[v].load(std::memory_order_relaxed);
        if (e == kNoEdge) continue;
        const VertexId ru = labels[edges[e].u].load(std::memory_order_relaxed);
        const VertexId rv = labels[edges[e].v].load(std::memory_order_relaxed);
        const VertexId other = (ru == static_cast<VertexId>(v)) ? rv : ru;
        const bool mutual =
            cand[other].load(std::memory_order_relaxed) == e;
        if (mutual && static_cast<VertexId>(v) < other) {
          continue;  // the smaller root of a mutual pair stays put
        }
        next_label[v] = other;
        picked[tid].push_back(e);
        hook_count.fetch_add(1, std::memory_order_relaxed);
      }
      barrier.arrive_and_wait();
      for (std::size_t v = vr.begin; v < vr.end; ++v) {
        if (next_label[v] != kInvalidVertex) {
          labels[v].store(next_label[v], std::memory_order_relaxed);
        }
      }
      barrier.arrive_and_wait();

      // Shortcut to rooted stars.
      for (;;) {
        bool changed = false;
        for (std::size_t v = vr.begin; v < vr.end; ++v) {
          const VertexId dv = labels[v].load(std::memory_order_relaxed);
          const VertexId ddv = labels[dv].load(std::memory_order_relaxed);
          if (ddv != dv) {
            labels[v].store(ddv, std::memory_order_relaxed);
            changed = true;
          }
        }
        if (!vote_or(barrier, jump_changed, tid, changed)) break;
      }
    }
  });

  std::vector<WeightedEdge> msf;
  msf.reserve(n);
  for (const auto& per_thread : picked) {
    for (std::uint64_t e : per_thread) msf.push_back(edges[e]);
  }
  if (opts.stats != nullptr) {
    opts.stats->rounds = rounds;
    opts.stats->hooks = hook_count.load(std::memory_order_relaxed);
  }
  return msf;
}

}  // namespace smpst::msf
