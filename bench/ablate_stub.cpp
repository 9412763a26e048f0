// Ablation A1 — the stub spanning tree's size. The paper grows a stub of
// O(p) vertices by random walk before the parallel traversal; this sweep
// varies BaderCongOptions::stub_steps from one step (every processor but one
// starts idle and must steal) through the O(p) default to much larger serial
// prefixes, running the real traversal on a pool of p workers. Expectation:
// tiny stubs hurt startup balance a little, huge stubs serialize work, O(p)
// is a sweet spot — and on well-connected graphs the effect is small
// (stealing recovers quickly), which is itself a finding worth recording.
//
// Each row is the median of kReps instrumented runs (statistics on in every
// row, so rows compare like with like); the counters are from the last run,
// whose forest is validated.
//
// Usage: ablate_stub [--n=65536] [--p=hardware threads]
//        [--family=random-nlogn] [--seed=...] [--csv]
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
  const auto family = cli.get_string("family", "random-nlogn");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 0x5eed));
  const bool csv = cli.get_bool("csv", false);
  cli.reject_unknown();

  const Graph g = gen::make_family(family, n, seed);
  std::cout << "== A1: stub spanning tree size ablation, " << family
            << ", p=" << p << " (real kernel) ==\n";

  bench::Table table({"stub_steps", "stub_vertices", "wall", "stub_time",
                      "imbalance", "steals"});
  ThreadPool pool(p);
  for (const std::size_t steps :
       {std::size_t{1}, p / 2 + 1, 2 * p, 8 * p, 64 * p, 1024 * p}) {
    TraversalStats stats;
    BaderCongOptions opts;
    opts.stub_steps = steps;
    opts.seed = seed;
    opts.stats = &stats;
    SpanningForest forest;
    const auto wall = bench::time_repeated(
        [&] { forest = bader_cong_spanning_tree(g, pool, opts); }, kReps);
    SMPST_CHECK(validate_spanning_forest(g, forest).ok, "bc forest invalid");
    table.add_row({std::to_string(steps), bench::fmt_count(stats.stub_vertices),
                   bench::fmt_seconds(wall.median_s),
                   bench::fmt_seconds(stats.stub_seconds),
                   bench::fmt_double(stats.load_imbalance()),
                   bench::fmt_count(stats.total_steals())});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "ablate_stub: " << e.what() << "\n";
  return 1;
}
