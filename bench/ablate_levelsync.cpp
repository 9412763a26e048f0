// Ablation A5 — asynchronous work stealing (the paper) vs level-synchronous
// parallel BFS (the strategy of modern frameworks like Ligra/GBBS).
//
// The structural difference is barrier count: the paper's traversal uses O(1)
// barriers regardless of topology, while level-synchronous BFS pays
// barriers on every BFS level wide enough to share — O(diameter). On low-diameter graphs the two are
// equivalent; on meshes (diameter ~ sqrt(n)) and chains (diameter ~ n) the
// barrier term dominates and the asynchronous design should win. This bench
// measures both implementations' wall time on a pool of p workers, next to
// the level-synchronous run's measured levels and barrier episodes.
//
// Usage: ablate_levelsync [--n=65536] [--p=hardware threads] [--reps=2]
//        [--seed=...] [--csv]
#include <iostream>

#include "bench_util/cli.hpp"
#include "bench_util/stats.hpp"
#include "bench_util/table.hpp"
#include "core/bader_cong.hpp"
#include "core/parallel_bfs.hpp"
#include "core/validate.hpp"
#include "gen/registry.hpp"
#include "graph/stats.hpp"
#include "sched/thread_pool.hpp"
#include "support/assert.hpp"
#include "support/cpu.hpp"

using namespace smpst;

int main(int argc, char** argv) try {
  const bench::Cli cli(argc, argv);
  const auto n = static_cast<VertexId>(cli.get_int("n", 1 << 16));
  const auto p = static_cast<std::size_t>(cli.get_int(
      "p", static_cast<std::int64_t>(hardware_threads())));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 2));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 0x5eed));
  const bool csv = cli.get_bool("csv", false);
  cli.reject_unknown();

  std::cout << "== A5: work stealing (O(1) barriers) vs level-synchronous "
               "BFS (O(diameter) barriers), p="
            << p << " ==\n";

  bench::Table table({"family", "diam>=", "levels", "barriers", "bc_wall",
                      "lsync_wall", "lsync/bc"});
  ThreadPool pool(p);

  for (const char* family :
       {"random-nlogn", "geo-hier", "torus-rowmajor", "2d60", "chain-seq"}) {
    const Graph g = gen::make_family(family, n, seed);
    const auto gstats = compute_stats(g);

    BaderCongOptions bc;
    bc.seed = seed;
    SpanningForest forest;
    const auto bc_time = bench::time_repeated(
        [&] { forest = bader_cong_spanning_tree(g, pool, bc); }, reps);
    SMPST_CHECK(validate_spanning_forest(g, forest).ok, "bc invalid");

    ParallelBfsStats ls_stats;
    ParallelBfsOptions ls;
    ls.stats = &ls_stats;
    const auto ls_time = bench::time_repeated(
        [&] { forest = parallel_bfs_spanning_tree(g, pool, ls); }, reps);
    SMPST_CHECK(validate_spanning_forest(g, forest).ok, "lsync invalid");

    table.add_row({family, std::to_string(gstats.diameter_lower_bound),
                   bench::fmt_count(ls_stats.levels),
                   bench::fmt_count(ls_stats.barriers),
                   bench::fmt_seconds(bc_time.min_s),
                   bench::fmt_seconds(ls_time.min_s),
                   bench::fmt_double(ls_time.min_s / bc_time.min_s, 2)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "ablate_levelsync: " << e.what() << "\n";
  return 1;
}
