// Experiment E13 — the §3 Helman-JáJá analysis: closed-form cost triples for
// the traversal algorithm vs Shiloach-Vishkin, side by side with the
// *measured* counters of the real kernels on a pool of p workers (BC's T_M is
// the busiest worker's dequeues plus edges scanned; SV's triple is evaluated
// at its measured iteration count), the formulas' Sun E4500 time predictions
// (model::predict_seconds), and the measured wall times on this host. Every
// forest is validated.
//
// The paper's comparison this table reproduces: the traversal does O((n+m)/p)
// work with 2 barriers, while SV carries an extra ~log n work factor and
// O(log n) barriers, so the traversal wins at every p.
//
// Usage: table_cost_model [--n=65536] [--threads=1,2,..,hardware threads]
//        [--seed=...] [--csv]
#include <algorithm>
#include <iostream>

#include "bench_util/cli.hpp"
#include "bench_util/stats.hpp"
#include "bench_util/table.hpp"
#include "core/bader_cong.hpp"
#include "core/shiloach_vishkin.hpp"
#include "core/validate.hpp"
#include "gen/registry.hpp"
#include "model/cost_model.hpp"
#include "sched/thread_pool.hpp"
#include "support/assert.hpp"
#include "support/cpu.hpp"

using namespace smpst;

int main(int argc, char** argv) try {
  constexpr std::size_t kReps = 3;
  const bench::Cli cli(argc, argv);
  const auto n = static_cast<VertexId>(cli.get_int("n", 1 << 16));
  const auto hw = static_cast<std::int64_t>(hardware_threads());
  std::vector<std::int64_t> default_threads;
  for (std::int64_t p = 1; p < hw; p *= 2) default_threads.push_back(p);
  default_threads.push_back(hw);
  const auto threads = cli.get_int_list("threads", default_threads);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 0x5eed));
  const bool csv = cli.get_bool("csv", false);
  cli.reject_unknown();

  const Graph g = gen::make_family("random-nlogn", n, seed);
  const VertexId nv = g.num_vertices();
  const EdgeId m = g.num_edges();
  const auto machine = model::sun_e4500();

  std::cout << "== E13: Helman-JaJa cost model, formula vs measured ==\n"
            << "# instance: random-nlogn n=" << nv << " m=" << m
            << "; predictions: " << machine.name << "\n"
            << "# seq BFS: T_M = n + 2m = "
            << bench::fmt_double(model::bfs_cost(nv, m).mem_accesses, 0)
            << " accesses, predicted "
            << bench::fmt_seconds(
                   model::predict_seconds(model::bfs_cost(nv, m), machine))
            << "\n";

  bench::Table table({"p", "bc_TM_formula", "bc_TM_measured", "bc_B",
                      "sv_TM_formula", "sv_iters", "sv_B", "bc_pred",
                      "sv_pred", "bc_wall", "sv_wall"});

  for (const std::int64_t pi : threads) {
    const auto p = static_cast<std::size_t>(pi);
    ThreadPool pool(p);

    TraversalStats bstats;
    BaderCongOptions bo;
    bo.seed = seed;
    bo.stats = &bstats;
    SpanningForest forest;
    const auto bc_wall = bench::time_repeated(
        [&] { forest = bader_cong_spanning_tree(g, pool, bo); }, kReps);
    SMPST_CHECK(validate_spanning_forest(g, forest).ok, "bc forest invalid");
    const auto bc_formula = model::bader_cong_cost(nv, m, p);

    SvStats sstats;
    SvOptions so;
    so.stats = &sstats;
    const auto sv_wall = bench::time_repeated(
        [&] { forest = sv_spanning_tree(g, pool, so); }, kReps);
    SMPST_CHECK(validate_spanning_forest(g, forest).ok, "sv forest invalid");
    const auto sv_formula = model::sv_cost(
        nv, m, p, sstats.iterations,
        std::max<std::uint64_t>(
            1, sstats.shortcut_passes /
                   std::max<std::uint64_t>(1, sstats.iterations)));

    table.add_row({std::to_string(p),
                   bench::fmt_double(bc_formula.mem_accesses, 0),
                   bench::fmt_count(bstats.max_thread_accesses()),
                   bench::fmt_double(bc_formula.barriers, 0),
                   bench::fmt_double(sv_formula.mem_accesses, 0),
                   bench::fmt_count(sstats.iterations),
                   bench::fmt_double(sv_formula.barriers, 0),
                   bench::fmt_seconds(model::predict_seconds(bc_formula,
                                                             machine)),
                   bench::fmt_seconds(model::predict_seconds(sv_formula,
                                                             machine)),
                   bench::fmt_seconds(bc_wall.median_s),
                   bench::fmt_seconds(sv_wall.median_s)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "table_cost_model: " << e.what() << "\n";
  return 1;
}
