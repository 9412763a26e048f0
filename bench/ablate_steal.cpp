// Ablation A2 — steal granularity. The paper's thief "steals part of the
// queue"; we sweep BaderCongOptions::steal_chunk from steal-1 (Chase-Lev
// style) through fixed sizes to steal-half (the default), running the real
// traversal on a pool of p workers and reporting median wall time, steal
// traffic and load balance per family. Expectation: steal-half needs far
// fewer steals for the same balance; steal-1 multiplies steal overhead on
// bushy graphs and is the only viable option on chains anyway.
//
// Each row is the median of kReps instrumented runs; the counters are from
// the last run, whose forest is validated.
//
// Usage: ablate_steal [--n=65536] [--p=hardware threads] [--seed=...] [--csv]
#include <iostream>

#include "bench_util/cli.hpp"
#include "bench_util/stats.hpp"
#include "bench_util/table.hpp"
#include "core/bader_cong.hpp"
#include "core/validate.hpp"
#include "gen/registry.hpp"
#include "sched/thread_pool.hpp"
#include "support/assert.hpp"
#include "support/cpu.hpp"

using namespace smpst;

int main(int argc, char** argv) try {
  constexpr std::size_t kReps = 5;
  const bench::Cli cli(argc, argv);
  const auto n = static_cast<VertexId>(cli.get_int("n", 1 << 16));
  const auto p = static_cast<std::size_t>(cli.get_int(
      "p", static_cast<std::int64_t>(hardware_threads())));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 0x5eed));
  const bool csv = cli.get_bool("csv", false);
  cli.reject_unknown();

  std::cout << "== A2: steal chunk ablation, p=" << p
            << " (real kernel; chunk 0 = steal half) ==\n";

  bench::Table table({"family", "chunk", "wall", "imbalance", "steals",
                      "items_stolen"});
  ThreadPool pool(p);
  for (const char* family :
       {"random-nlogn", "torus-rowmajor", "geo-hier", "chain-seq"}) {
    const Graph g = gen::make_family(family, n, seed);
    for (const std::size_t chunk :
         {std::size_t{0}, std::size_t{1}, std::size_t{4}, std::size_t{64},
          std::size_t{1024}}) {
      TraversalStats stats;
      BaderCongOptions opts;
      opts.steal_chunk = chunk;
      opts.seed = seed;
      opts.stats = &stats;
      SpanningForest forest;
      const auto wall = bench::time_repeated(
          [&] { forest = bader_cong_spanning_tree(g, pool, opts); }, kReps);
      SMPST_CHECK(validate_spanning_forest(g, forest).ok, "bc forest invalid");
      std::uint64_t stolen = 0;
      for (const auto& t : stats.per_thread) stolen += t.items_stolen;
      table.add_row({family, chunk == 0 ? "half" : std::to_string(chunk),
                     bench::fmt_seconds(wall.median_s),
                     bench::fmt_double(stats.load_imbalance()),
                     bench::fmt_count(stats.total_steals()),
                     bench::fmt_count(stolen)});
    }
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "ablate_steal: " << e.what() << "\n";
  return 1;
}
