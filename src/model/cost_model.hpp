// The Helman–JáJá SMP complexity model used in §3 of the paper.
//
// A computation is summarized by the triple T(n,p) = <T_M ; T_C ; B>:
//   T_M  maximum number of non-contiguous main-memory accesses by any
//        processor (each is likely a cache miss),
//   T_C  upper bound on any processor's local computation,
//   B    number of barrier synchronizations.
//
// This module provides (a) the closed-form triples the paper derives for the
// sequential baseline, the new traversal algorithm, and Shiloach–Vishkin,
// and (b) a machine-parameter evaluator that converts a triple into seconds
// for a configurable SMP. The figures are measured, not predicted: the
// triples sit beside the kernels' measured counters (perf_suite's
// tm_measured / tm_formula, bench/table_cost_model).
#pragma once

#include <cstdint>
#include <string>

#include "graph/types.hpp"

namespace smpst::model {

struct CostTriple {
  double mem_accesses = 0.0;  ///< T_M: non-contiguous accesses (per processor)
  double local_ops = 0.0;     ///< T_C: local computation (per processor)
  double barriers = 0.0;      ///< B

  CostTriple& operator+=(const CostTriple& o) {
    mem_accesses += o.mem_accesses;
    local_ops += o.local_ops;
    barriers += o.barriers;
    return *this;
  }
};

struct MachineParams {
  std::string name;
  double noncontig_access_ns;  ///< cost of a cache-missing access
  double local_op_ns;          ///< cost of one unit of local work
  double barrier_ns;           ///< cost of one barrier episode
};

/// Sun Enterprise 4500 (the paper's testbed): 400 MHz UltraSPARC II, ~270 ns
/// observed remote-memory latency, software barriers in the tens of
/// microseconds.
MachineParams sun_e4500();

/// A contemporary commodity multicore for comparison.
MachineParams modern_smp();

/// Seconds predicted for one processor executing `cost` on `machine`.
double predict_seconds(const CostTriple& cost, const MachineParams& machine);

/// Sequential BFS baseline: one non-contiguous access per vertex, two per
/// edge (fetch adjacency + touch colour/parent), no barriers.
CostTriple bfs_cost(VertexId n, EdgeId m);

/// The paper's bound for the new algorithm:
///   T(n,p) <= <n/p + 2m/p + O(p) ; O((n+m)/p) ; 2>.
CostTriple bader_cong_cost(VertexId n, EdgeId m, std::size_t p);

/// The paper's per-iteration SV cost; `iterations` is measured (or log n for
/// the worst case). Each iteration: two graft passes at 2(m/p)+1
/// non-contiguous accesses each, plus shortcut passes of n/p accesses each,
/// with 4 barriers per iteration.
CostTriple sv_cost(VertexId n, EdgeId m, std::size_t p,
                   std::uint64_t iterations,
                   std::uint64_t shortcut_passes_per_iter);

/// Worst-case SV triple with log n iterations (the paper's headline bound).
CostTriple sv_worst_case_cost(VertexId n, EdgeId m, std::size_t p);

}  // namespace smpst::model
