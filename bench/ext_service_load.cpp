// Closed-loop load driver for the query service (serving-path extension).
//
// For each client count c in --clients, spins up a QueryExecutor with c
// worker slots over one shared registry graph, then drives c closed-loop
// clients (each submits a validated query, waits for the result, repeats).
// Reports throughput and the service-side p50/p95/p99 latency distribution
// per client count. Afterwards runs two correctness demonstrations that the
// acceptance criteria pin down:
//   1. a batch of concurrent queries over the shared graph must all complete
//      and validate (core/validate is the oracle);
//   2. a 0 ms deadline must deterministically yield a timed-out result.
// Exit status is nonzero if either demonstration fails.
//
//   ext_service_load --family=random-nlogn --n=32768 --algo=bader-cong
//       --clients=1,2,4 --requests=32 --threads-per-query=2
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/cli.hpp"
#include "service/executor.hpp"
#include "support/timer.hpp"

namespace {

using namespace smpst;
using namespace smpst::service;

struct LoadResult {
  std::uint64_t ok = 0;
  std::uint64_t bad = 0;
  double wall_s = 0.0;
  obs::LatencyHistogram::Snapshot latency;
};

LoadResult drive(GraphRegistry& registry, const std::string& graph,
                 const std::string& algo, std::size_t clients,
                 std::size_t threads_per_query, std::size_t requests) {
  ExecutorOptions opts;
  opts.num_workers = clients;
  opts.threads_per_query = threads_per_query;
  opts.queue_capacity = 2 * clients * requests;  // closed loop: never full
  QueryExecutor executor(registry, opts);

  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> bad{0};
  WallTimer wall;
  std::vector<std::thread> drivers;
  drivers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    drivers.emplace_back([&, c] {
      for (std::size_t i = 0; i < requests; ++i) {
        SpanningTreeRequest req;
        req.graph = graph;
        req.algorithm = algo;
        req.seed = 0x5eed + c * 1000 + i;
        req.validate = true;
        const QueryResult r = executor.submit(std::move(req)).get();
        if (r.ok() && r.validation.ok) {
          ok.fetch_add(1);
        } else {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& d : drivers) d.join();

  LoadResult result;
  result.wall_s = wall.elapsed_seconds();
  result.ok = ok.load();
  result.bad = bad.load();
  result.latency = executor.stats().latency;
  return result;
}

bool demo_concurrent_batch(GraphRegistry& registry, const std::string& graph,
                           const std::string& algo,
                           std::size_t threads_per_query) {
  ExecutorOptions opts;
  opts.num_workers = 2;  // two slots -> genuinely concurrent execution
  opts.threads_per_query = threads_per_query;
  QueryExecutor executor(registry, opts);

  std::vector<SpanningTreeRequest> batch(4);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].graph = graph;
    batch[i].algorithm = algo;
    batch[i].seed = 7 + i;
    batch[i].validate = true;
  }
  auto futures = executor.submit_batch(std::move(batch));
  bool all_ok = futures.size() == 4;
  for (auto& fut : futures) {
    const QueryResult r = fut.get();
    if (!r.ok() || !r.validation.ok) {
      std::printf("  FAIL: batch query status=%s error=%s\n",
                  to_string(r.status), r.error.c_str());
      all_ok = false;
    }
  }
  std::printf("concurrent batch over shared graph: %s\n",
              all_ok ? "all 4 queries completed and validated" : "FAILED");
  return all_ok;
}

bool demo_zero_deadline(GraphRegistry& registry, const std::string& graph,
                        const std::string& algo) {
  ExecutorOptions opts;
  opts.num_workers = 1;
  opts.threads_per_query = 1;
  QueryExecutor executor(registry, opts);
  bool all_timed_out = true;
  for (int i = 0; i < 5; ++i) {
    SpanningTreeRequest req;
    req.graph = graph;
    req.algorithm = algo;
    req.timeout_ms = 0;
    const QueryResult r = executor.submit(std::move(req)).get();
    if (r.status != QueryStatus::kTimedOut) {
      std::printf("  FAIL: 0 ms deadline returned %s\n", to_string(r.status));
      all_timed_out = false;
    }
  }
  std::printf("0 ms deadline: %s\n",
              all_timed_out ? "deterministically timed out (5/5)" : "FAILED");
  return all_timed_out;
}

}  // namespace

int main(int argc, char** argv) try {
  const bench::Cli cli(argc, argv);
  const auto family = cli.get_string("family", "random-nlogn");
  const auto n = static_cast<VertexId>(cli.get_int("n", 1 << 15));
  const auto algo = cli.get_string("algo", "bader-cong");
  const auto requests = static_cast<std::size_t>(cli.get_int("requests", 32));
  const auto threads_per_query =
      static_cast<std::size_t>(cli.get_int("threads-per-query", 2));
  const auto clients = cli.get_int_list("clients", {1, 2, 4});
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 0x5eed));
  cli.reject_unknown();

  GraphRegistry registry;
  const auto graph = registry.generate("main", family, n, seed);
  std::printf("graph 'main': %s n=%u m=%llu (%.1f MiB), algo=%s, %zu req/client\n\n",
              family.c_str(), graph->num_vertices(),
              static_cast<unsigned long long>(graph->num_edges()),
              static_cast<double>(graph->memory_bytes()) / (1 << 20),
              algo.c_str(), requests);

  std::printf("%8s %8s %6s %10s %10s %10s %10s %10s\n", "clients", "served",
              "bad", "qps", "mean_ms", "p50_ms", "p95_ms", "p99_ms");
  for (const auto c : clients) {
    const LoadResult r =
        drive(registry, "main", algo, static_cast<std::size_t>(c),
              threads_per_query, requests);
    std::printf("%8lld %8llu %6llu %10.1f %10.3f %10.3f %10.3f %10.3f\n",
                static_cast<long long>(c),
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.bad),
                static_cast<double>(r.ok + r.bad) / r.wall_s,
                r.latency.mean_ms, r.latency.percentile(50),
                r.latency.percentile(95), r.latency.percentile(99));
    if (r.bad != 0) {
      std::printf("FAIL: %llu queries did not complete correctly\n",
                  static_cast<unsigned long long>(r.bad));
      return 1;
    }
  }
  std::printf("\n");

  const bool batch_ok =
      demo_concurrent_batch(registry, "main", algo, threads_per_query);
  const bool deadline_ok = demo_zero_deadline(registry, "main", algo);

  const auto reg = registry.stats();
  std::printf("registry: %llu hits / %llu misses (hit rate %.3f)\n",
              static_cast<unsigned long long>(reg.hits),
              static_cast<unsigned long long>(reg.misses), reg.hit_rate());
  return batch_ok && deadline_ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "ext_service_load: %s\n", e.what());
  return 1;
}
