// Chaos harness for the query service (robustness extension).
//
// Drives a closed-loop query mix against a QueryExecutor while randomly
// arming failpoints across the scheduler, the service, and the traversal hot
// paths, then asserts the service's robustness contract:
//
//   1. zero crashes — the process survives every injected fault;
//   2. every submitted query resolves to a *typed* outcome (a known
//      QueryStatus, never a broken promise or an escaped exception);
//   3. the service counters stay consistent:
//        submitted == accepted + rejected
//        accepted  == served_ok + timed_out + not_found + failed + invalid.
//
// Each round picks a random subset of sites and arms each with a random
// probability in [--fail-lo, --fail-hi] percent (default 5..20). Sites are
// classified by the strongest action that is safe there: a site reached by a
// worker that other threads barrier-wait on must never throw (the group
// would deadlock), so sched.thread_pool.worker is delay-only and
// sched.termination.sleep is wake-only. See docs/ROBUSTNESS.md.
//
//   ext_chaos --queries=1000 --seed=1 --fail-lo=5 --fail-hi=20
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util/cli.hpp"
#include "service/executor.hpp"
#include "support/failpoint.hpp"
#include "support/prng.hpp"
#include "support/timer.hpp"

namespace {

using namespace smpst;
using namespace smpst::service;

struct ChaosSite {
  const char* name;
  const char* action;  // strongest action safe at this site
};

// The site table. Sites whose faults a barrier-synchronized peer would wait
// out must not throw; everything else may.
constexpr ChaosSite kSites[] = {
    {"service.executor.execute", "throw"},
    {"service.executor.dequeue", "throw"},
    {"service.executor.respond", "throw"},
    {"service.bounded_queue.push", "throw"},
    {"service.bounded_queue.pop", "throw"},
    {"service.registry.get", "throw"},
    {"core.bader_cong.expand", "throw"},
    {"core.parallel_bfs.level", "throw"},
    {"sched.work_queue.pop", "throw"},
    {"sched.work_queue.steal", "throw"},
    {"sched.thread_pool.region", "throw"},
    // A pool worker that throws instead of entering a barrier-synchronized
    // job (SV/HCS) would deadlock its group: delay/wake only.
    {"sched.thread_pool.worker", "delay(1)"},
    {"sched.termination.sleep", "wake"},
};

const char* const kAlgos[] = {"bader-cong", "parallel-bfs", "sv", "hcs",
                              "bfs"};

bool known_status(QueryStatus s) {
  switch (s) {
    case QueryStatus::kOk:
    case QueryStatus::kRejected:
    case QueryStatus::kTimedOut:
    case QueryStatus::kNotFound:
    case QueryStatus::kInvalidArgument:
    case QueryStatus::kError:
    case QueryStatus::kFailed:
    case QueryStatus::kInvalid:
      return true;
  }
  return false;
}

/// Arms a random subset of the site table; returns a printable summary.
std::string arm_round(Xoshiro256& rng, std::uint64_t lo_pct,
                      std::uint64_t hi_pct) {
  fail::disable_all();
  std::string summary;
  for (const ChaosSite& s : kSites) {
    if (rng.next_bounded(100) < 60) continue;  // ~40% of sites per round
    const std::uint64_t pct = lo_pct + rng.next_bounded(hi_pct - lo_pct + 1);
    const std::string spec = std::to_string(pct) + "%" + s.action;
    fail::enable(s.name, spec);
    if (!summary.empty()) summary += " ";
    summary += std::string(s.name) + "=" + spec;
  }
  return summary.empty() ? "(none)" : summary;
}

}  // namespace

int main(int argc, char** argv) try {
  const bench::Cli cli(argc, argv);
  const auto queries = static_cast<std::size_t>(cli.get_int("queries", 1000));
  const auto clients = static_cast<std::size_t>(cli.get_int("clients", 4));
  const auto rounds = static_cast<std::size_t>(cli.get_int("rounds", 8));
  const auto n = static_cast<VertexId>(cli.get_int("n", 1 << 12));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 0x5eed));
  const auto lo = static_cast<std::uint64_t>(cli.get_int("fail-lo", 5));
  const auto hi = static_cast<std::uint64_t>(cli.get_int("fail-hi", 20));
  const auto family = cli.get_string("family", "random-nlogn");
  cli.reject_unknown();
  if (lo > hi || hi > 100) {
    std::fprintf(stderr, "ext_chaos: need 0 <= fail-lo <= fail-hi <= 100\n");
    return 1;
  }

  GraphRegistry registry;
  registry.generate("g", family, n, seed);

  ExecutorOptions opts;
  opts.num_workers = clients;
  opts.threads_per_query = 2;
  opts.queue_capacity = 4 * clients;
  opts.paranoid_validate = true;  // every kOk is a checked spanning forest
  QueryExecutor executor(registry, opts);

  std::printf("chaos: %zu queries, %zu clients, %zu rounds, faults %llu-%llu%%"
              ", graph %s n=%u\n\n",
              queries, clients, rounds,
              static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi), family.c_str(), n);

  std::atomic<std::uint64_t> untyped{0};
  std::atomic<std::uint64_t> escaped{0};
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> by_status[16] = {};

  // Cumulative per-site hit/fire counts: disable_all() between rounds resets
  // the live counters, so fold them into this tally first.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> tally;
  const auto accumulate = [&tally] {
    for (const auto& info : fail::list()) {
      auto& [h, f] = tally[info.name];
      h += info.hits;
      f += info.fires;
    }
  };

  Xoshiro256 round_rng(seed);
  WallTimer wall;
  const std::size_t per_round = (queries + rounds - 1) / rounds;
  for (std::size_t round = 0; round < rounds; ++round) {
    accumulate();
    const std::string armed = arm_round(round_rng, lo, hi);
    std::printf("round %zu: %s\n", round, armed.c_str());

    std::vector<std::thread> drivers;
    drivers.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      drivers.emplace_back([&, c, round] {
        Xoshiro256 rng(seed ^ (round * 1315423911u) ^ (c * 2654435761u));
        const std::size_t mine =
            per_round / clients + (c < per_round % clients ? 1 : 0);
        for (std::size_t i = 0; i < mine; ++i) {
          SpanningTreeRequest req;
          req.graph = rng.next_bounded(50) == 0 ? "missing" : "g";
          req.algorithm =
              kAlgos[rng.next_bounded(std::size(kAlgos))];
          req.seed = rng.next();
          // Mix of no deadline, generous, and tight deadlines: the tight
          // ones exercise cancellation under faults.
          const auto roll = rng.next_bounded(4);
          req.timeout_ms =
              roll == 0 ? -1 : (roll == 1 ? 2000 : static_cast<std::int64_t>(
                                                       1 + rng.next_bounded(20)));
          try {
            const QueryResult r = executor.submit(std::move(req)).get();
            if (!known_status(r.status)) {
              untyped.fetch_add(1);
            } else {
              by_status[static_cast<std::size_t>(r.status)].fetch_add(1);
            }
            done.fetch_add(1);
          } catch (...) {
            // submit().get() must never throw: a broken promise or an
            // exception smuggled through the future is a contract violation.
            escaped.fetch_add(1);
          }
        }
      });
    }
    for (auto& d : drivers) d.join();
  }
  accumulate();
  fail::disable_all();
  const double wall_s = wall.elapsed_seconds();

  const ServiceStats s = executor.stats();
  executor.shutdown();

  std::printf("\n%llu queries in %.2fs (%.1f qps under chaos)\n",
              static_cast<unsigned long long>(done.load()), wall_s,
              static_cast<double>(done.load()) / wall_s);
  std::printf("outcomes: ok=%llu rejected=%llu timed_out=%llu not_found=%llu"
              " failed=%llu invalid=%llu\n",
              static_cast<unsigned long long>(s.served_ok),
              static_cast<unsigned long long>(s.rejected),
              static_cast<unsigned long long>(s.timed_out),
              static_cast<unsigned long long>(s.not_found),
              static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.invalid));
  std::printf("recovery: retries=%llu degraded=%llu\n",
              static_cast<unsigned long long>(s.retries),
              static_cast<unsigned long long>(s.degraded));
  for (const auto& [name, counts] : tally) {
    std::printf("site %-32s hits=%llu fires=%llu\n", name.c_str(),
                static_cast<unsigned long long>(counts.first),
                static_cast<unsigned long long>(counts.second));
  }

  bool ok = true;
  if (escaped.load() != 0 || untyped.load() != 0) {
    std::printf("FAIL: %llu futures threw, %llu untyped statuses\n",
                static_cast<unsigned long long>(escaped.load()),
                static_cast<unsigned long long>(untyped.load()));
    ok = false;
  }
  if (s.submitted != s.accepted + s.rejected) {
    std::printf("FAIL: submitted (%llu) != accepted (%llu) + rejected (%llu)\n",
                static_cast<unsigned long long>(s.submitted),
                static_cast<unsigned long long>(s.accepted),
                static_cast<unsigned long long>(s.rejected));
    ok = false;
  }
  const std::uint64_t resolved =
      s.served_ok + s.timed_out + s.not_found + s.failed + s.invalid;
  if (s.accepted != resolved) {
    std::printf("FAIL: accepted (%llu) != resolved outcomes (%llu)\n",
                static_cast<unsigned long long>(s.accepted),
                static_cast<unsigned long long>(resolved));
    ok = false;
  }
  if (done.load() != queries && done.load() + escaped.load() != 0) {
    // per_round rounding can overshoot by < rounds; undershoot means lost
    // queries.
    if (done.load() < queries) {
      std::printf("FAIL: only %llu of %zu queries resolved\n",
                  static_cast<unsigned long long>(done.load()), queries);
      ok = false;
    }
  }
  std::printf("\nchaos: %s\n", ok ? "PASS — zero crashes, all outcomes typed,"
                                    " stats consistent"
                                  : "FAIL");
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "ext_chaos: %s\n", e.what());
  return 1;
}
