#include "core/algorithms.hpp"

#include <stdexcept>

#include "sched/thread_pool.hpp"
#include "storage/blocked_graph.hpp"

namespace smpst {

const std::vector<AlgorithmSpec>& algorithms() {
  static const std::vector<AlgorithmSpec> kAlgorithms = {
      {"bfs", "sequential breadth-first traversal (paper's baseline)", false,
       true},
      {"dfs", "sequential depth-first traversal", false, false},
      {"bader-cong", "stub tree + work-stealing traversal (the paper)", true,
       true},
      {"sv", "Shiloach-Vishkin, election grafting", true, true},
      {"sv-lock", "Shiloach-Vishkin, lock grafting", true, true},
      {"hcs", "Hirschberg-Chandra-Sarwate, min-neighbour hooking", true,
       false},
      {"parallel-bfs", "level-synchronous parallel BFS (modern baseline)",
       true, true},
  };
  return kAlgorithms;
}

const AlgorithmSpec* find_algorithm(const std::string& name) {
  for (const auto& a : algorithms()) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

bool is_algorithm(const std::string& name) {
  return find_algorithm(name) != nullptr;
}

bool algorithm_supports_blocked(const std::string& name) {
  const AlgorithmSpec* spec = find_algorithm(name);
  return spec != nullptr && spec->blocked;
}

template <storage::GraphStorage GS>
SpanningForest run_algorithm(const std::string& name, const GS& g,
                             ThreadPool& pool, const RunOptions& run) {
  if (name == "bfs") return bfs_spanning_tree(g, 0, run.cancel);
  if constexpr (storage::is_resident_v<GS>) {
    if (name == "dfs") return dfs_spanning_tree(g, 0, run.cancel);
    if (name == "hcs") {
      HcsOptions opts;
      opts.cancel = run.cancel;
      return hcs_spanning_tree(g, pool, opts);
    }
  }
  if (name == "bader-cong") {
    BaderCongOptions opts;
    opts.seed = run.seed;
    opts.cancel = run.cancel;
    opts.stats = run.stats;
    return bader_cong_spanning_tree(g, pool, opts);
  }
  if (name == "sv" || name == "sv-lock") {
    SvOptions opts;
    opts.use_locks = name == "sv-lock";
    opts.cancel = run.cancel;
    return sv_spanning_tree(g, pool, opts);
  }
  if (name == "parallel-bfs") {
    ParallelBfsOptions opts;
    opts.cancel = run.cancel;
    return parallel_bfs_spanning_tree(g, pool, opts);
  }
  // Only a registered name the backend cannot run (dfs and hcs over a
  // BlockedGraph) or an unregistered one falls through.
  throw std::invalid_argument(
      is_algorithm(name)
          ? "algorithm \"" + name + "\" has no blocked-backend implementation"
          : "unknown algorithm: " + name);
}

template SpanningForest run_algorithm(const std::string&, const Graph&,
                                      ThreadPool&, const RunOptions&);
template SpanningForest run_algorithm(const std::string&,
                                      const storage::BlockedGraph&,
                                      ThreadPool&, const RunOptions&);

}  // namespace smpst
