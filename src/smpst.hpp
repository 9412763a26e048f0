// Umbrella header: everything a downstream user of the smpst library needs.
//
//   #include "smpst.hpp"
//
// pulls in the graph substrate, the generators, every spanning tree /
// connectivity / MSF algorithm, the applications layer, the cost model, and
// the runtime primitives. Individual headers remain includable on their own
// for faster builds.
#pragma once

// Graph substrate.
#include "graph/builder.hpp"
#include "graph/edge_list.hpp"
#include "graph/formats.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/relabel.hpp"
#include "graph/stats.hpp"
#include "graph/subgraph.hpp"
#include "graph/transform.hpp"
#include "graph/types.hpp"

// Instance generators.
#include "gen/geographic.hpp"
#include "gen/geometric.hpp"
#include "gen/kronecker.hpp"
#include "gen/mesh.hpp"
#include "gen/random_graph.hpp"
#include "gen/registry.hpp"
#include "gen/simple.hpp"
#include "gen/torus.hpp"

// Spanning trees (the paper's contribution and every baseline).
#include "core/algorithms.hpp"
#include "core/bader_cong.hpp"
#include "core/bfs.hpp"
#include "core/dfs.hpp"
#include "core/hcs.hpp"
#include "core/parallel_bfs.hpp"
#include "core/shiloach_vishkin.hpp"
#include "core/spanning_forest.hpp"
#include "core/validate.hpp"

// Connectivity, MSF, applications.
#include "apps/biconnectivity.hpp"
#include "apps/ear_decomposition.hpp"
#include "apps/tarjan_vishkin.hpp"
#include "apps/tree_algebra.hpp"
#include "cc/connected_components.hpp"
#include "cc/union_find.hpp"
#include "msf/boruvka.hpp"
#include "msf/kruskal.hpp"
#include "msf/prim.hpp"
#include "msf/weighted.hpp"

// Cost model.
#include "model/cost_model.hpp"

// Runtime.
#include "sched/barrier.hpp"
#include "sched/parallel_for.hpp"
#include "sched/prefix_sum.hpp"
#include "sched/spinlock.hpp"
#include "sched/termination.hpp"
#include "sched/thread_pool.hpp"
#include "sched/work_queue.hpp"

// Support.
#include "support/prng.hpp"
#include "support/timer.hpp"
