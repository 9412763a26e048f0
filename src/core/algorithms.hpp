// Name-keyed algorithm registry plus the umbrella header for the core
// spanning tree API. The registry lets benches, tests, and example CLIs pick
// algorithms by the names used in the paper's plots.
#pragma once

#include <string>
#include <vector>

#include "core/bader_cong.hpp"
#include "core/bfs.hpp"
#include "core/dfs.hpp"
#include "core/hcs.hpp"
#include "core/parallel_bfs.hpp"
#include "core/shiloach_vishkin.hpp"
#include "core/spanning_forest.hpp"
#include "core/validate.hpp"

namespace smpst {

class ThreadPool;

struct AlgorithmSpec {
  std::string name;
  std::string description;
  bool parallel = false;
  /// Runs over a storage::BlockedGraph as well as a Graph.
  bool blocked = false;
};

/// Registered names: "bfs", "dfs" (sequential); "bader-cong", "sv",
/// "sv-lock", "hcs", "parallel-bfs" (parallel). Every one but "dfs" and
/// "hcs" also runs over a storage::BlockedGraph.
const std::vector<AlgorithmSpec>& algorithms();

/// The table entry named `name`, or nullptr.
const AlgorithmSpec* find_algorithm(const std::string& name);

bool is_algorithm(const std::string& name);

/// True when `name` can run over a BlockedGraph.
bool algorithm_supports_blocked(const std::string& name);

/// Per-run knobs threaded through to the algorithm's own options struct.
struct RunOptions {
  std::uint64_t seed = 0x5eed;

  /// Cooperative cancellation, honoured by every algorithm. Sequential
  /// traversals poll inline; bader-cong and parallel-bfs poll at dequeue and
  /// level boundaries; the SV family and HCS poll once per
  /// graft-and-shortcut round via a barrier consensus. Expiry throws
  /// CancelledError.
  const CancelToken* cancel = nullptr;

  /// When non-null and the algorithm is "bader-cong", filled with traversal
  /// statistics.
  TraversalStats* stats = nullptr;
};

/// Runs the named algorithm on either storage backend. Parallel algorithms
/// use `pool`; sequential ones ignore it. Throws std::invalid_argument for
/// unknown names, and over a BlockedGraph for the names
/// algorithm_supports_blocked() rejects (the service degrades those to
/// sequential BFS).
template <storage::GraphStorage GS>
SpanningForest run_algorithm(const std::string& name, const GS& g,
                             ThreadPool& pool, const RunOptions& opts = {});

}  // namespace smpst
