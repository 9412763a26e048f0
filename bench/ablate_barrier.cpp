// Ablation A6 — software barrier implementations. The B term of the
// Helman-JáJá model is a first-class cost in the paper's analysis (the new
// algorithm's selling point is B = 2 vs SV's 4 log n), and the paper's
// implementation used the software barriers of SIMPLE [5]. This bench
// measures barrier latency per episode for SpinBarrier (sched/barrier.hpp)
// and the two in ablation_barriers.hpp across party counts — the measured
// numbers are what the cost model's `barrier_ns` parameter abstracts.
//
// Note: on a single-core host every episode costs at least p context
// switches, so absolute numbers here are upper bounds; the *relative*
// ordering (dissemination's O(log p) signalling vs the centralized
// counter's O(p) contention vs the blocking barrier's syscalls) survives.
//
// Usage: ablate_barrier [--parties=2,4,8] [--episodes=2000] [--csv]
#include <iostream>

#include "bench_util/cli.hpp"
#include "bench_util/table.hpp"
#include "ablation_barriers.hpp"
#include "sched/barrier.hpp"
#include "sched/thread_pool.hpp"
#include "support/timer.hpp"

using namespace smpst;

namespace {

template <typename Barrier, typename Arrive>
double episodes_per_second(std::size_t parties, std::size_t episodes,
                           Arrive&& arrive) {
  Barrier barrier(parties);
  ThreadPool pool(parties);
  WallTimer timer;
  pool.run([&](std::size_t tid) {
    for (std::size_t e = 0; e < episodes; ++e) arrive(barrier, tid);
  });
  return timer.elapsed_seconds() / static_cast<double>(episodes);
}

}  // namespace

int main(int argc, char** argv) try {
  const bench::Cli cli(argc, argv);
  const auto parties = cli.get_int_list("parties", {2, 4, 8});
  const auto episodes =
      static_cast<std::size_t>(cli.get_int("episodes", 2000));
  const bool csv = cli.get_bool("csv", false);
  cli.reject_unknown();

  std::cout << "== A6: software barrier latency per episode (" << episodes
            << " episodes; oversubscribed single-core host => upper bounds) "
               "==\n";

  bench::Table table({"parties", "spin_centralized", "dissemination",
                      "blocking_condvar"});
  for (const std::int64_t pi : parties) {
    const auto p = static_cast<std::size_t>(pi);
    const double spin = episodes_per_second<SpinBarrier>(
        p, episodes, [](SpinBarrier& b, std::size_t) { b.arrive_and_wait(); });
    const double diss = episodes_per_second<DisseminationBarrier>(
        p, episodes,
        [](DisseminationBarrier& b, std::size_t tid) {
          b.arrive_and_wait(tid);
        });
    const double block = episodes_per_second<BlockingBarrier>(
        p, episodes,
        [](BlockingBarrier& b, std::size_t) { b.arrive_and_wait(); });
    table.add_row({std::to_string(p), bench::fmt_seconds(spin),
                   bench::fmt_seconds(diss), bench::fmt_seconds(block)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "ablate_barrier: " << e.what() << "\n";
  return 1;
}
