// Tests of the query-service subsystem: registry LRU semantics, the latency
// histogram, admission control (reject-on-full, deadlines), cooperative
// cancellation, re-rooting, the wire protocol, and concurrent end-to-end
// queries validated by core/validate.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "core/algorithms.hpp"
#include "core/cancellation.hpp"
#include "gen/registry.hpp"
#include "sched/thread_pool.hpp"
#include "service/bounded_queue.hpp"
#include "service/executor.hpp"
#include "service/graph_registry.hpp"
#include "obs/histogram.hpp"
#include "service/wire.hpp"
#include "parked_workers.hpp"

namespace smpst::service {
namespace {

Graph small_graph(std::uint64_t seed = 1) {
  return gen::make_family("torus-rowmajor", 256, seed);
}

// ---------------------------------------------------------------- registry

TEST(GraphRegistry, PutGetHitAndMiss) {
  GraphRegistry registry;
  EXPECT_EQ(registry.get("g"), nullptr);
  const auto stored = registry.put("g", small_graph());
  const auto got = registry.get("g");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got.get(), stored.get());
  const auto stats = registry.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(GraphRegistry, ReplaceUpdatesResidentBytes) {
  GraphRegistry registry;
  registry.put("g", small_graph());
  const auto small_bytes = registry.stats().resident_bytes;
  registry.put("g", gen::make_family("torus-rowmajor", 1024, 1));
  EXPECT_EQ(registry.stats().entries, 1u);
  EXPECT_GT(registry.stats().resident_bytes, small_bytes);
}

TEST(GraphRegistry, EvictsLeastRecentlyUsedWhenOverBudget) {
  const std::size_t one = small_graph().memory_bytes();
  GraphRegistry::Options opts;
  opts.memory_budget_bytes = 2 * one + one / 2;  // room for two graphs
  GraphRegistry registry(opts);
  registry.put("a", small_graph(1));
  registry.put("b", small_graph(2));
  ASSERT_NE(registry.get("a"), nullptr);  // refresh a; b becomes LRU
  registry.put("c", small_graph(3));      // must evict b
  EXPECT_NE(registry.get("a"), nullptr);
  EXPECT_EQ(registry.get("b"), nullptr);
  EXPECT_NE(registry.get("c"), nullptr);
  EXPECT_EQ(registry.stats().evictions, 1u);
}

TEST(GraphRegistry, NewestEntrySurvivesEvenIfAloneOverBudget) {
  GraphRegistry::Options opts;
  opts.memory_budget_bytes = 1;  // nothing fits
  GraphRegistry registry(opts);
  registry.put("a", small_graph(1));
  registry.put("b", small_graph(2));
  EXPECT_EQ(registry.get("a"), nullptr);
  ASSERT_NE(registry.get("b"), nullptr);  // most recent insert is kept
}

TEST(GraphRegistry, PinnedSharedPtrSurvivesEviction) {
  GraphRegistry registry;
  const auto pinned = registry.put("g", small_graph());
  ASSERT_TRUE(registry.evict("g"));
  EXPECT_EQ(registry.get("g"), nullptr);
  EXPECT_EQ(pinned->num_vertices(), 256u);  // still alive and traversable
  EXPECT_FALSE(registry.evict("g"));
}

TEST(GraphRegistry, ListIsMostRecentlyUsedFirst) {
  GraphRegistry registry;
  registry.put("a", small_graph(1));
  registry.put("b", small_graph(2));
  registry.get("a");
  const auto entries = registry.list();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "a");
  EXPECT_EQ(entries[1].name, "b");
}

TEST(GraphRegistry, GenerateAndUnknownFamilyThrows) {
  GraphRegistry registry;
  const auto g = registry.generate("t", "torus-rowmajor", 64, 7);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->num_vertices(), 64u);
  EXPECT_THROW(registry.generate("x", "no-such-family", 64, 7),
               std::invalid_argument);
}

// --------------------------------------------------------------- histogram

TEST(LatencyHistogram, EmptySnapshot) {
  obs::LatencyHistogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 0.0);
  EXPECT_DOUBLE_EQ(s.mean_ms, 0.0);
}

TEST(LatencyHistogram, SingleSampleEveryPercentileIsTheSample) {
  obs::LatencyHistogram h;
  h.record_ms(3.5);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min_ms, 3.5);
  EXPECT_DOUBLE_EQ(s.max_ms, 3.5);
  // min/max clamping makes the single sample exact at every percentile.
  EXPECT_DOUBLE_EQ(s.percentile(0), 3.5);
  EXPECT_DOUBLE_EQ(s.percentile(50), 3.5);
  EXPECT_DOUBLE_EQ(s.percentile(100), 3.5);
}

TEST(LatencyHistogram, PercentilesAreMonotoneAndBracketed) {
  obs::LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record_ms(static_cast<double>(i) / 10);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  const double p50 = s.percentile(50);
  const double p95 = s.percentile(95);
  const double p99 = s.percentile(99);
  EXPECT_LE(s.min_ms, p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, s.max_ms);
  // Power-of-two buckets: p50 of uniform [0.1, 100] must land within its
  // bucket, i.e. within a factor of two of the true median 50.
  EXPECT_GE(p50, 25.0);
  EXPECT_LE(p50, 100.0);
}

TEST(LatencyHistogram, ZeroAndNegativeSamplesLandInBucketZero) {
  obs::LatencyHistogram h;
  h.record_ms(0.0);
  h.record_ms(-1.0);  // clamped
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.percentile(100), 0.0);
}

TEST(LatencyHistogram, ConcurrentRecordersLoseNothing) {
  obs::LatencyHistogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) h.record_ms(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.snapshot().count, 4000u);
}

// ------------------------------------------------------------ bounded queue

TEST(BoundedQueue, RejectsWhenFullAndDrainsAfterClose) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  q.close();
  EXPECT_FALSE(q.try_push(4));
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.pop(out));
}

TEST(BoundedQueue, BulkPushIsAllOrNothing) {
  BoundedQueue<int> q(3);
  std::vector<int> batch{1, 2};
  EXPECT_TRUE(q.try_push_all(batch));
  std::vector<int> too_big{3, 4};
  EXPECT_FALSE(q.try_push_all(too_big));
  EXPECT_EQ(too_big.size(), 2u);  // untouched
  EXPECT_EQ(q.size(), 2u);
}

// ------------------------------------------------------------- cancellation

TEST(CancelToken, FlagAndDeadline) {
  CancelToken token;
  EXPECT_FALSE(token.expired());
  token.request_cancel();
  EXPECT_TRUE(token.expired());

  CancelToken deadline_token;
  deadline_token.set_deadline(std::chrono::steady_clock::now());
  EXPECT_TRUE(deadline_token.expired());
  EXPECT_THROW(deadline_token.poll(), CancelledError);
}

TEST(CancelToken, PreCancelledTokenAbortsAlgorithms) {
  const Graph g = small_graph();
  ThreadPool pool(2);
  CancelToken token;
  token.request_cancel();
  RunOptions run;
  run.cancel = &token;
  for (const char* algo : {"bfs", "dfs", "bader-cong", "parallel-bfs"}) {
    EXPECT_THROW(run_algorithm(algo, g, pool, run), CancelledError) << algo;
  }
}

TEST(CancelToken, NullAndUnexpiredTokensDoNotDisturbResults) {
  const Graph g = small_graph();
  ThreadPool pool(2);
  CancelToken token;  // never expires
  RunOptions run;
  run.cancel = &token;
  for (const char* algo : {"bfs", "dfs", "bader-cong", "parallel-bfs"}) {
    const SpanningForest forest = run_algorithm(algo, g, pool, run);
    EXPECT_TRUE(validate_spanning_forest(g, forest).ok) << algo;
  }
}

// ------------------------------------------------------------------ reroot

TEST(Reroot, MovesRootAlongAChain) {
  // Path 0-1-2-3 rooted at 0; re-root at 3.
  SpanningForest forest;
  forest.parent = {0, 0, 1, 2};
  reroot(forest, 3);
  EXPECT_EQ(forest.parent[3], 3u);
  EXPECT_EQ(forest.parent[2], 3u);
  EXPECT_EQ(forest.parent[1], 2u);
  EXPECT_EQ(forest.parent[0], 1u);
  EXPECT_EQ(forest.num_trees(), 1u);
}

TEST(Reroot, RootingAtTheRootIsANoop) {
  SpanningForest forest;
  forest.parent = {0, 0, 0};
  reroot(forest, 0);
  EXPECT_EQ(forest.parent, (std::vector<VertexId>{0, 0, 0}));
}

TEST(Reroot, OtherTreesUntouchedAndResultStaysValid) {
  const Graph g = small_graph();
  ThreadPool pool(2);
  SpanningForest forest = run_algorithm("bfs", g, pool);
  reroot(forest, 123);
  EXPECT_TRUE(forest.is_root(123));
  EXPECT_TRUE(validate_spanning_forest(g, forest).ok);
}

// ---------------------------------------------------------------- executor

ExecutorOptions two_workers() {
  ExecutorOptions opts;
  opts.num_workers = 2;
  opts.threads_per_query = 2;
  return opts;
}

TEST(QueryExecutor, ServesAValidatedQuery) {
  GraphRegistry registry;
  registry.put("g", small_graph());
  QueryExecutor executor(registry, two_workers());
  SpanningTreeRequest req;
  req.graph = "g";
  req.validate = true;
  req.want_stats = true;
  const QueryResult r = executor.submit(std::move(req)).get();
  ASSERT_EQ(r.status, QueryStatus::kOk);
  EXPECT_TRUE(r.validation.ok);
  EXPECT_EQ(r.num_trees, 1u);
  EXPECT_EQ(r.stats.per_thread.size(), 2u);  // want_stats flowed through
  EXPECT_GE(r.total_ms, r.exec_ms);
  const auto stats = executor.stats();
  EXPECT_EQ(stats.served_ok, 1u);
  EXPECT_EQ(stats.latency.count, 1u);
}

TEST(QueryExecutor, RootedQueryReturnsRequestedRoot) {
  GraphRegistry registry;
  registry.put("g", small_graph());
  QueryExecutor executor(registry, two_workers());
  SpanningTreeRequest req;
  req.graph = "g";
  req.root = 200;
  req.validate = true;
  const QueryResult r = executor.submit(std::move(req)).get();
  ASSERT_EQ(r.status, QueryStatus::kOk);
  EXPECT_TRUE(r.forest.is_root(200));
  EXPECT_TRUE(r.validation.ok);
}

TEST(QueryExecutor, UnknownGraphAndAlgorithmAndRoot) {
  GraphRegistry registry;
  registry.put("g", small_graph());
  QueryExecutor executor(registry, two_workers());

  SpanningTreeRequest missing;
  missing.graph = "nope";
  EXPECT_EQ(executor.submit(std::move(missing)).get().status,
            QueryStatus::kNotFound);

  SpanningTreeRequest bad_algo;
  bad_algo.graph = "g";
  bad_algo.algorithm = "quantum";
  EXPECT_EQ(executor.submit(std::move(bad_algo)).get().status,
            QueryStatus::kInvalidArgument);

  SpanningTreeRequest bad_root;
  bad_root.graph = "g";
  bad_root.root = 1 << 20;
  EXPECT_EQ(executor.submit(std::move(bad_root)).get().status,
            QueryStatus::kInvalidArgument);

  // About 317 years: out of range, not a deadline wrapped into the past.
  SpanningTreeRequest huge_timeout;
  huge_timeout.graph = "g";
  huge_timeout.timeout_ms = 10'000'000'000'000;
  EXPECT_EQ(executor.submit(std::move(huge_timeout)).get().status,
            QueryStatus::kInvalidArgument);

  const auto stats = executor.stats();
  EXPECT_EQ(stats.not_found, 1u);
  EXPECT_EQ(stats.failed, 3u);
}

TEST(QueryExecutor, ZeroDeadlineDeterministicallyTimesOut) {
  GraphRegistry registry;
  registry.put("g", small_graph());
  QueryExecutor executor(registry, two_workers());
  for (int i = 0; i < 8; ++i) {
    SpanningTreeRequest req;
    req.graph = "g";
    req.timeout_ms = 0;
    const QueryResult r = executor.submit(std::move(req)).get();
    EXPECT_EQ(r.status, QueryStatus::kTimedOut);
    EXPECT_EQ(r.exec_ms, 0.0);  // never dispatched
  }
  EXPECT_EQ(executor.stats().timed_out, 8u);
}

TEST(QueryExecutor, RejectsWhenQueueIsFull) {
  GraphRegistry registry;
  registry.put("g", small_graph());
  ExecutorOptions opts = two_workers();
  opts.num_workers = 1;
  opts.queue_capacity = 2;
  QueryExecutor executor(registry, opts);
  ParkedWorkers parked(executor, opts.num_workers);  // so the queue fills

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 5; ++i) {
    SpanningTreeRequest req;
    req.graph = "g";
    futures.push_back(executor.submit(std::move(req)));
  }
  // Capacity 2: requests 3..5 must already be resolved as rejected.
  for (int i = 2; i < 5; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().status,
              QueryStatus::kRejected);
  }
  parked.release();
  EXPECT_EQ(futures[0].get().status, QueryStatus::kOk);
  EXPECT_EQ(futures[1].get().status, QueryStatus::kOk);
  const auto stats = executor.stats();
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.submitted, 5u);
}

TEST(QueryExecutor, BatchAdmissionIsAtomic) {
  GraphRegistry registry;
  registry.put("g", small_graph());
  ExecutorOptions opts = two_workers();
  opts.queue_capacity = 3;
  QueryExecutor executor(registry, opts);
  ParkedWorkers parked(executor, opts.num_workers);

  std::vector<SpanningTreeRequest> batch(4);
  for (auto& req : batch) req.graph = "g";
  auto futures = executor.submit_batch(std::move(batch));
  ASSERT_EQ(futures.size(), 4u);
  for (auto& fut : futures) {
    EXPECT_EQ(fut.get().status, QueryStatus::kRejected);  // 4 > capacity 3
  }

  std::vector<SpanningTreeRequest> fits(3);
  for (auto& req : fits) req.graph = "g";
  auto ok_futures = executor.submit_batch(std::move(fits));
  parked.release();
  for (auto& fut : ok_futures) {
    EXPECT_EQ(fut.get().status, QueryStatus::kOk);
  }
}

TEST(QueryExecutor, ConcurrentClientsOverSharedGraphAllValidate) {
  GraphRegistry registry;
  registry.put("g", gen::make_family("random-nlogn", 2048, 42));
  ExecutorOptions opts;
  opts.num_workers = 4;
  opts.threads_per_query = 1;
  opts.queue_capacity = 256;
  QueryExecutor executor(registry, opts);

  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  const char* algos[] = {"bader-cong", "bfs", "parallel-bfs", "sv"};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        SpanningTreeRequest req;
        req.graph = "g";
        req.algorithm = algos[c % 4];
        req.seed = static_cast<std::uint64_t>(c * 100 + i);
        req.validate = true;
        const QueryResult r = executor.submit(std::move(req)).get();
        if (r.ok() && r.validation.ok) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  const auto stats = executor.stats();
  EXPECT_EQ(stats.served_ok, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.latency.count,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_GT(stats.registry.hit_rate(), 0.9);
}

TEST(QueryExecutor, ShutdownDrainsAcceptedRequests) {
  GraphRegistry registry;
  registry.put("g", small_graph());
  std::future<QueryResult> fut;
  {
    QueryExecutor executor(registry, two_workers());
    SpanningTreeRequest req;
    req.graph = "g";
    fut = executor.submit(std::move(req));
  }  // destructor drains and joins
  EXPECT_EQ(fut.get().status, QueryStatus::kOk);
}

// -------------------------------------------------------------------- wire

TEST(Wire, ParsesWordForm) {
  const Fields f = parse_line("query graph=g1 algo=bfs timeout=50");
  EXPECT_EQ(f.at("cmd"), "query");
  EXPECT_EQ(f.at("graph"), "g1");
  EXPECT_EQ(f.at("algo"), "bfs");
  EXPECT_EQ(f.at("timeout"), "50");
}

TEST(Wire, ParsesJsonForm) {
  const Fields f = parse_line(
      R"({"cmd":"query","graph":"a b","n":65536,"deep":1.5,"v":true,"x":null})");
  EXPECT_EQ(f.at("cmd"), "query");
  EXPECT_EQ(f.at("graph"), "a b");
  EXPECT_EQ(f.at("n"), "65536");
  EXPECT_EQ(f.at("deep"), "1.5");
  EXPECT_EQ(f.at("v"), "1");
  EXPECT_EQ(f.at("x"), "");
}

TEST(Wire, JsonStringEscapes) {
  const Fields f = parse_line(R"({"cmd":"load","path":"a\\b \"c\"\n"})");
  EXPECT_EQ(f.at("path"), "a\\b \"c\"\n");
}

TEST(Wire, MalformedInputThrows) {
  EXPECT_THROW(parse_line(""), std::invalid_argument);
  EXPECT_THROW(parse_line("   "), std::invalid_argument);
  EXPECT_THROW(parse_line("{\"cmd\":"), std::invalid_argument);
  EXPECT_THROW(parse_line("{\"cmd\":bogus}"), std::invalid_argument);
  EXPECT_THROW(parse_line("{\"cmd\":\"x\"} trailing"), std::invalid_argument);
  EXPECT_THROW(parse_line("query missing-equals-value x"),
               std::invalid_argument);
  EXPECT_THROW(parse_line("key=value first"), std::invalid_argument);
}

// Regression: stats emission is gated on what the REQUEST asked for, not on
// whether the result object happens to carry populated per-thread data (the
// old renderer keyed on r.stats.per_thread.size() > 0, so internal stats
// collection leaked into stats=false responses).
TEST(Wire, StatsFieldsFollowTheRequestFlagNotTheData) {
  QueryResult r;
  r.status = QueryStatus::kOk;
  r.graph = "g";
  r.algorithm = "bader-cong";
  r.stats.per_thread.resize(2);  // populated, but the client never asked
  r.stats.per_thread[0].vertices_processed = 128;
  r.stats.duplicate_expansions = 3;
  r.stats_requested = false;
  const Fields quiet = parse_line(render_result(r));
  EXPECT_EQ(quiet.count("load_imbalance"), 0u);
  EXPECT_EQ(quiet.count("steals"), 0u);
  EXPECT_EQ(quiet.count("duplicate_expansions"), 0u);

  r.stats_requested = true;
  const Fields verbose = parse_line(render_result(r));
  EXPECT_EQ(verbose.count("load_imbalance"), 1u);
  EXPECT_EQ(verbose.count("steals"), 1u);
  EXPECT_EQ(verbose.at("duplicate_expansions"), "3");
}

TEST(QueryExecutor, PropagatesStatsRequestedToTheResult) {
  GraphRegistry registry;
  registry.put("g", small_graph());
  QueryExecutor executor(registry, two_workers());
  for (const bool want : {false, true}) {
    SpanningTreeRequest req;
    req.graph = "g";
    req.want_stats = want;
    const QueryResult r = executor.submit(std::move(req)).get();
    ASSERT_EQ(r.status, QueryStatus::kOk);
    EXPECT_EQ(r.stats_requested, want);
    const Fields f = parse_line(render_result(r));
    EXPECT_EQ(f.count("duplicate_expansions"), want ? 1u : 0u);
  }
}

TEST(Wire, RenderMetricsIsFlatJsonCoveringEveryInstrumentKind) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("wire.test.counter").add(7);
  reg.gauge("wire.test.gauge").set(-2);
  reg.histogram("wire.test.hist").record_ms(5.0);
  const Fields f = parse_line(render_metrics(reg.snapshot()));
  EXPECT_EQ(f.at("wire.test.counter"), "7");
  EXPECT_EQ(f.at("wire.test.gauge"), "-2");
  EXPECT_EQ(f.at("wire.test.hist.count"), "1");
  EXPECT_EQ(f.count("wire.test.hist.mean_ms"), 1u);
  EXPECT_EQ(f.count("wire.test.hist.p50_ms"), 1u);
  EXPECT_EQ(f.count("wire.test.hist.p95_ms"), 1u);
  EXPECT_EQ(f.count("wire.test.hist.p99_ms"), 1u);
}

TEST(Wire, WriterRoundTripsThroughParser) {
  JsonWriter w;
  w.field("cmd", "query");
  w.field("graph", std::string("g\"1\n"));
  w.field("n", static_cast<std::int64_t>(-5));
  w.field("rate", 0.25);
  w.field("ok", true);
  const Fields f = parse_line(w.str());
  EXPECT_EQ(f.at("cmd"), "query");
  EXPECT_EQ(f.at("graph"), "g\"1\n");
  EXPECT_EQ(f.at("n"), "-5");
  EXPECT_EQ(f.at("rate"), "0.25");
  EXPECT_EQ(f.at("ok"), "1");
}

}  // namespace
}  // namespace smpst::service
