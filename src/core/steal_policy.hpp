// Victim selection for the work-stealing traversal.
//
// Kept out of bader_cong.cpp so the sampling distribution is unit-testable:
// a regression (rediscovered the hard way) drew victims from [0, p) and
// `continue`d on self-picks, which silently consumed the steal-attempt
// budget — at p = 2 half of every idle worker's probes were wasted on
// itself, so starving workers gave up and slept twice as early as intended.
//
// On NUMA hosts victim *order* matters as much as victim coverage: a steal
// from a same-socket victim moves the stolen vertices' queue slots and their
// parent cachelines within one LLC, while a cross-socket steal drags
// them over the interconnect. StealDomains encodes the placement the pool's
// pinning produced so thieves probe intra-node victims before remote ones
// (the locality technique of Sanders & Schimek's parallel MST engineering,
// PAPERS.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/prng.hpp"
#include "support/topology.hpp"

namespace smpst {

/// Samples a uniformly random victim in [0, p) \ {tid}. Draws from the
/// (p-1)-element set directly and remaps past `tid`, so every draw is a
/// usable victim and none of the caller's attempt budget is spent on self.
/// Requires p >= 2.
inline std::size_t sample_steal_victim(Xoshiro256& rng, std::size_t p,
                                       std::size_t tid) noexcept {
  const auto draw = static_cast<std::size_t>(rng.next_bounded(p - 1));
  return draw + static_cast<std::size_t>(draw >= tid);
}

/// Per-worker steal domains derived from thread placement: which workers
/// share this worker's NUMA node. sample() spends the first
/// `local_peers(tid).size()` attempts of a probe round on random same-node
/// victims, then falls back to uniform sampling over every other worker —
/// so a thief prefers local work but can never starve while a remote victim
/// has some. With a single node (or unknown placement) every worker's local
/// set is empty and sample() degenerates to the uniform policy above.
class StealDomains {
 public:
  /// Uniform sampling only — placement unknown (pinning off) or irrelevant.
  static StealDomains uniform(std::size_t p) {
    StealDomains d;
    d.p_ = p;
    d.node_of_.assign(p, 0);
    d.local_peers_.resize(p);
    return d;
  }

  /// From an explicit worker→node map (unit tests, custom placements).
  static StealDomains from_nodes(const std::vector<std::uint32_t>& node_of) {
    StealDomains d;
    d.p_ = node_of.size();
    d.node_of_ = node_of;
    d.local_peers_.resize(d.p_);
    for (std::size_t t = 0; t < d.p_; ++t) {
      for (std::size_t u = 0; u < d.p_; ++u) {
        if (u != t && node_of[u] == node_of[t]) {
          d.local_peers_[t].push_back(u);
        }
      }
    }
    return d;
  }

  /// The placement a pool with `p` workers actually has: pinned pools place
  /// worker t on topology slot t (sched/thread_pool.hpp), so its node is
  /// node_of_slot(t). Unpinned pools float under the OS scheduler — their
  /// placement is unknowable, so they get the uniform policy. Workers beyond
  /// the allowed-CPU count are unpinned (pin_current_thread refuses the
  /// slot) and likewise get no local set.
  static StealDomains for_pool(std::size_t p, bool pinned) {
    const CpuTopology& topo = topology();
    if (!pinned || topo.num_nodes <= 1) return uniform(p);
    std::vector<std::uint32_t> node_of(p);
    std::vector<std::uint32_t> known;  // 1 = slot was actually placeable
    known.assign(p, 0);
    for (std::size_t t = 0; t < p; ++t) {
      if (topo.slot_valid(t)) {
        node_of[t] = static_cast<std::uint32_t>(topo.node_of_slot(t));
        known[t] = 1;
      }
    }
    StealDomains d;
    d.p_ = p;
    d.node_of_ = node_of;
    d.local_peers_.resize(p);
    for (std::size_t t = 0; t < p; ++t) {
      if (known[t] == 0) continue;  // unplaced worker: uniform only
      for (std::size_t u = 0; u < p; ++u) {
        if (u != t && known[u] != 0 && node_of[u] == node_of[t]) {
          d.local_peers_[t].push_back(u);
        }
      }
    }
    return d;
  }

  /// Victim for the `attempt`-th probe of one round (attempt resets to 0
  /// when the thief finds work or sleeps). Never returns tid. Requires
  /// p() >= 2.
  [[nodiscard]] std::size_t sample(Xoshiro256& rng, std::size_t tid,
                                   std::size_t attempt) const noexcept {
    const auto& local = local_peers_[tid];
    if (attempt < local.size()) {
      return local[static_cast<std::size_t>(rng.next_bounded(local.size()))];
    }
    return sample_steal_victim(rng, p_, tid);
  }

  [[nodiscard]] std::size_t p() const noexcept { return p_; }
  [[nodiscard]] std::uint32_t node_of(std::size_t tid) const noexcept {
    return node_of_[tid];
  }
  [[nodiscard]] const std::vector<std::size_t>& local_peers(
      std::size_t tid) const noexcept {
    return local_peers_[tid];
  }
  /// True when at least one worker has a non-empty local set (i.e. the
  /// policy differs from uniform sampling).
  [[nodiscard]] bool topology_aware() const noexcept {
    for (const auto& peers : local_peers_) {
      if (!peers.empty()) return true;
    }
    return false;
  }

 private:
  std::size_t p_ = 0;
  std::vector<std::uint32_t> node_of_;
  std::vector<std::vector<std::size_t>> local_peers_;
};

}  // namespace smpst
