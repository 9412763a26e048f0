// Experiment E14 — the paper's load-balancing claim: "the expected number of
// vertices processed per processor is O(n/p) with the work-stealing
// technique; we find that this technique keeps all processors equally busy".
//
// One instrumented run of the real traversal per family on a pool of p
// workers reports: per-worker min/max vertices, the imbalance factor
// (max/mean; 1.0 = perfect), steal traffic, and whether the starvation
// fallback fired (the chain is the paper's stated pathological case). Every
// forest is validated.
//
// Usage: table_load_balance [--n=65536] [--p=hardware threads] [--seed=...]
//        [--csv]
#include <algorithm>
#include <iostream>

#include "bench_util/cli.hpp"
#include "bench_util/table.hpp"
#include "core/bader_cong.hpp"
#include "core/validate.hpp"
#include "gen/registry.hpp"
#include "sched/thread_pool.hpp"
#include "support/assert.hpp"
#include "support/cpu.hpp"

using namespace smpst;

int main(int argc, char** argv) try {
  const bench::Cli cli(argc, argv);
  const auto n = static_cast<VertexId>(cli.get_int("n", 1 << 16));
  const auto p = static_cast<std::size_t>(cli.get_int(
      "p", static_cast<std::int64_t>(hardware_threads())));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 0x5eed));
  const bool csv = cli.get_bool("csv", false);
  cli.reject_unknown();

  std::cout << "== E14: work-stealing load balance (real kernel, p=" << p
            << ") ==\n"
            << "paper: ~n/p vertices per processor on almost all graphs; the "
               "high-diameter chain is the stated pathological case\n";

  bench::Table table({"family", "verts_min", "verts_max", "imbalance",
                      "steals_ok", "items_stolen", "probe_fails", "fallback"});
  ThreadPool pool(p);

  for (const char* family :
       {"torus-rowmajor", "random-nlogn", "random-1.5n", "2d60", "3d40", "ad3",
        "geo-flat", "geo-hier", "rmat", "chain-seq"}) {
    const Graph g = gen::make_family(family, n, seed);
    TraversalStats stats;
    BaderCongOptions opts;
    opts.seed = seed;
    opts.stats = &stats;
    const auto forest = bader_cong_spanning_tree(g, pool, opts);
    SMPST_CHECK(validate_spanning_forest(g, forest).ok, "bc forest invalid");

    std::uint64_t vmin = ~0ULL;
    std::uint64_t vmax = 0;
    std::uint64_t stolen = 0;
    std::uint64_t attempts = 0;
    for (const auto& t : stats.per_thread) {
      vmin = std::min(vmin, t.vertices_processed);
      vmax = std::max(vmax, t.vertices_processed);
      stolen += t.items_stolen;
      attempts += t.steal_attempts;
    }
    const std::uint64_t steals = stats.total_steals();
    table.add_row({family, bench::fmt_count(vmin), bench::fmt_count(vmax),
                   bench::fmt_double(stats.load_imbalance()),
                   bench::fmt_count(steals), bench::fmt_count(stolen),
                   bench::fmt_count(attempts - steals),
                   stats.fallback_triggered ? "yes" : "no"});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "table_load_balance: " << e.what() << "\n";
  return 1;
}
