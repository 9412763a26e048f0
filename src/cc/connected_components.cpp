#include "cc/connected_components.hpp"

#include <atomic>
#include <memory>
#include <unordered_map>

#include "cc/union_find.hpp"
#include "graph/stats.hpp"
#include "sched/barrier.hpp"
#include "sched/thread_pool.hpp"
#include "support/assert.hpp"
#include "support/cpu.hpp"
#include "support/prng.hpp"

namespace smpst::cc {

namespace {

/// Renumbers arbitrary representative labels into dense [0, count).
CcResult densify(std::vector<VertexId> raw) {
  CcResult result;
  std::unordered_map<VertexId, VertexId> remap;
  remap.reserve(raw.size() / 4 + 1);
  result.label.resize(raw.size());
  for (std::size_t v = 0; v < raw.size(); ++v) {
    const auto [it, inserted] = remap.emplace(raw[v], result.count);
    if (inserted) ++result.count;
    result.label[v] = it->second;
  }
  return result;
}

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

}  // namespace

CcResult cc_union_find(const Graph& g) {
  UnionFind dsu(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v) dsu.unite(u, v);
    }
  }
  std::vector<VertexId> raw(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) raw[v] = dsu.find(v);
  return densify(std::move(raw));
}

CcResult cc_bfs(const Graph& g) {
  CcResult result;
  result.label = component_labels(g, &result.count);
  return result;
}

CcResult cc_shiloach_vishkin(const Graph& g, const ParallelCcOptions& opts) {
  const VertexId n = g.num_vertices();
  const std::size_t p = threads_or_hardware(opts.num_threads);
  if (n == 0) return {};

  auto labels = std::make_unique<std::atomic<VertexId>[]>(n);
  for (VertexId v = 0; v < n; ++v) {
    labels[v].store(v, std::memory_order_relaxed);
  }
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }

  SpinBarrier barrier(p);
  std::atomic<bool> grafted_flag{false};
  std::atomic<bool> jump_flag{false};
  ThreadPool pool(p);
  pool.run([&](std::size_t tid) {
    const Range vr = chunk_of(n, tid, p);
    const Range er = chunk_of(edges.size(), tid, p);
    for (;;) {
      // Graft: hook the larger root onto the smaller for each crossing edge.
      // Arbitrary concurrent writes suffice for connectivity labels (no tree
      // edges are produced), matching the original CRCW formulation.
      bool local = false;
      for (std::size_t e = er.begin; e < er.end; ++e) {
        const VertexId ru = labels[edges[e].u].load(std::memory_order_relaxed);
        const VertexId rv = labels[edges[e].v].load(std::memory_order_relaxed);
        if (ru == rv) continue;
        const VertexId big = ru > rv ? ru : rv;
        const VertexId small = ru > rv ? rv : ru;
        // Only roots hook, so shortcutting converges.
        if (labels[big].load(std::memory_order_relaxed) == big) {
          labels[big].store(small, std::memory_order_relaxed);
          local = true;
        }
      }
      if (!vote_or(barrier, grafted_flag, tid, local)) break;

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
        if (!vote_or(barrier, jump_flag, tid, changed)) break;
      }
    }
  });

  std::vector<VertexId> raw(n);
  for (VertexId v = 0; v < n; ++v) {
    raw[v] = labels[v].load(std::memory_order_relaxed);
  }
  return densify(std::move(raw));
}

CcResult cc_label_propagation(const Graph& g, const ParallelCcOptions& opts) {
  const VertexId n = g.num_vertices();
  const std::size_t p = threads_or_hardware(opts.num_threads);
  if (n == 0) return {};

  auto labels = std::make_unique<std::atomic<VertexId>[]>(n);
  for (VertexId v = 0; v < n; ++v) {
    labels[v].store(v, std::memory_order_relaxed);
  }

  SpinBarrier barrier(p);
  std::atomic<bool> round_flag{false};
  ThreadPool pool(p);
  pool.run([&](std::size_t tid) {
    const Range vr = chunk_of(n, tid, p);
    for (;;) {
      // Adopt the minimum label in the closed neighbourhood (the CREW
      // min-reduction of HCS), then one pointer-jumping pass to haul labels
      // toward their roots.
      bool changed = false;
      for (std::size_t v = vr.begin; v < vr.end; ++v) {
        VertexId best = labels[v].load(std::memory_order_relaxed);
        for (VertexId w : g.neighbors(static_cast<VertexId>(v))) {
          const VertexId lw = labels[w].load(std::memory_order_relaxed);
          if (lw < best) best = lw;
        }
        if (best < labels[v].load(std::memory_order_relaxed)) {
          labels[v].store(best, std::memory_order_relaxed);
          changed = true;
        }
      }
      for (std::size_t v = vr.begin; v < vr.end; ++v) {
        const VertexId dv = labels[v].load(std::memory_order_relaxed);
        const VertexId ddv = labels[dv].load(std::memory_order_relaxed);
        if (ddv < dv) {
          labels[v].store(ddv, std::memory_order_relaxed);
          changed = true;
        }
      }
      if (!vote_or(barrier, round_flag, tid, changed)) break;
    }
  });

  std::vector<VertexId> raw(n);
  for (VertexId v = 0; v < n; ++v) {
    raw[v] = labels[v].load(std::memory_order_relaxed);
  }
  return densify(std::move(raw));
}

CcResult cc_random_mate(const Graph& g, const ParallelCcOptions& opts,
                        std::uint64_t seed) {
  const VertexId n = g.num_vertices();
  const std::size_t p = threads_or_hardware(opts.num_threads);
  if (n == 0) return {};

  auto labels = std::make_unique<std::atomic<VertexId>[]>(n);
  // Hook target elected per tails-root this round (kInvalidVertex = none).
  auto mate = std::make_unique<std::atomic<VertexId>[]>(n);
  for (VertexId v = 0; v < n; ++v) {
    labels[v].store(v, std::memory_order_relaxed);
    mate[v].store(kInvalidVertex, std::memory_order_relaxed);
  }
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }

  // Coin flip for root r in round k: a pure hash, so all threads agree
  // without communication.
  auto heads = [&](VertexId r, std::uint64_t round) {
    SplitMix64 h(seed ^ (static_cast<std::uint64_t>(r) << 20) ^ round);
    return (h.next() & 1) != 0;
  };

  SpinBarrier barrier(p);
  std::atomic<bool> crossing_flag{false};
  std::atomic<bool> jump_flag{false};
  ThreadPool pool(p);
  pool.run([&](std::size_t tid) {
    const Range vr = chunk_of(n, tid, p);
    const Range er = chunk_of(edges.size(), tid, p);
    for (std::uint64_t round = 1;; ++round) {
      for (std::size_t v = vr.begin; v < vr.end; ++v) {
        mate[v].store(kInvalidVertex, std::memory_order_relaxed);
      }
      barrier.arrive_and_wait();

      // Tails-roots elect an adjacent heads-root to hook onto.
      bool local_crossing = false;
      for (std::size_t e = er.begin; e < er.end; ++e) {
        const VertexId ru = labels[edges[e].u].load(std::memory_order_relaxed);
        const VertexId rv = labels[edges[e].v].load(std::memory_order_relaxed);
        if (ru == rv) continue;
        local_crossing = true;
        for (const auto [a, b] : {std::pair{ru, rv}, std::pair{rv, ru}}) {
          if (!heads(a, round) && heads(b, round)) {
            VertexId expected = kInvalidVertex;
            mate[a].compare_exchange_strong(expected, b,
                                            std::memory_order_relaxed);
          }
        }
      }
      barrier.arrive_and_wait();

      // Apply hooks: tails -> heads, so no two hooked roots hook each other
      // and the hook graph is cycle-free by construction.
      for (std::size_t v = vr.begin; v < vr.end; ++v) {
        const VertexId target = mate[v].load(std::memory_order_relaxed);
        if (target != kInvalidVertex) {
          labels[v].store(target, std::memory_order_relaxed);
        }
      }
      if (!vote_or(barrier, crossing_flag, tid, local_crossing)) break;

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
        if (!vote_or(barrier, jump_flag, tid, changed)) break;
      }
    }
  });

  std::vector<VertexId> raw(n);
  for (VertexId v = 0; v < n; ++v) {
    raw[v] = labels[v].load(std::memory_order_relaxed);
  }
  return densify(std::move(raw));
}

CcResult cc_rem_union(const Graph& g, const ParallelCcOptions& opts) {
  const VertexId n = g.num_vertices();
  const std::size_t p = threads_or_hardware(opts.num_threads);
  if (n == 0) return {};

  auto parent = std::make_unique<std::atomic<VertexId>[]>(n);
  for (VertexId v = 0; v < n; ++v) {
    parent[v].store(v, std::memory_order_relaxed);
  }
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }

  // Rem's union: walk both parent chains keeping the invariant that we
  // always try to splice the larger-id node under the smaller; a CAS that
  // observes interference simply retries from the new parent. Lock-free,
  // barrier-free, and linearizable for connectivity queries issued after
  // the parallel region.
  auto rem_unite = [&](VertexId u, VertexId v) {
    while (true) {
      VertexId pu = parent[u].load(std::memory_order_relaxed);
      VertexId pv = parent[v].load(std::memory_order_relaxed);
      if (pu == pv) return;
      if (pu < pv) {
        std::swap(u, v);
        std::swap(pu, pv);
      }
      // pu > pv: try to hang u's parent below pv.
      if (u == pu) {
        if (parent[u].compare_exchange_weak(pu, pv,
                                            std::memory_order_relaxed)) {
          return;
        }
        continue;  // interference: reread and retry
      }
      // Path-halving step: shortcut u toward its root and climb.
      parent[u].compare_exchange_weak(
          pu, parent[pu].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      u = pu;
    }
  };

  ThreadPool pool(p);
  pool.run([&](std::size_t tid) {
    const Range er = chunk_of(edges.size(), tid, p);
    for (std::size_t e = er.begin; e < er.end; ++e) {
      rem_unite(edges[e].u, edges[e].v);
    }
  });

  // Final sequential flattening (the parallel region left arbitrary trees).
  std::vector<VertexId> raw(n);
  for (VertexId v = 0; v < n; ++v) {
    VertexId cur = v;
    while (parent[cur].load(std::memory_order_relaxed) != cur) {
      cur = parent[cur].load(std::memory_order_relaxed);
    }
    raw[v] = cur;
  }
  return densify(std::move(raw));
}

CcResult cc_from_forest(const SpanningForest& forest) {
  return densify(forest.component_of());
}

bool same_partition(const std::vector<VertexId>& a,
                    const std::vector<VertexId>& b) {
  if (a.size() != b.size()) return false;
  std::unordered_map<VertexId, VertexId> a_to_b;
  std::unordered_map<VertexId, VertexId> b_to_a;
  for (std::size_t v = 0; v < a.size(); ++v) {
    const auto [ita, ia] = a_to_b.emplace(a[v], b[v]);
    if (!ia && ita->second != b[v]) return false;
    const auto [itb, ib] = b_to_a.emplace(b[v], a[v]);
    if (!ib && itb->second != a[v]) return false;
  }
  return true;
}

}  // namespace smpst::cc
