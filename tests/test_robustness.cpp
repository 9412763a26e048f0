// Robustness tests: the failpoint subsystem itself, malformed-input fuzzing
// of the graph IO parser and the wire codec, exception containment and
// graceful degradation in the query executor, and cooperative cancellation
// of the SV/HCS family.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "core/cancellation.hpp"
#include "core/hcs.hpp"
#include "core/shiloach_vishkin.hpp"
#include "gen/registry.hpp"
#include "graph/io.hpp"
#include "service/executor.hpp"
#include "service/wire.hpp"
#include "support/failpoint.hpp"
#include "support/prng.hpp"
#include "support/timer.hpp"

namespace {

using namespace smpst;
using namespace smpst::service;

/// Every test leaves the global failpoint registry clean, whatever happened.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::disable_all(); }
};

// NOTE: SMPST_FAILPOINT caches its Site& in a per-call-site static, so each
// test needs its own textual expansion of the macro — a shared helper
// function would bind every name to whichever site was hit first.

// --------------------------------------------------------------------------
// Failpoint subsystem.

TEST_F(FailpointTest, DisabledSiteIsInert) {
  EXPECT_FALSE(fail::any_active());
  for (int i = 0; i < 100; ++i) {
    EXPECT_NO_THROW(SMPST_FAILPOINT("test.inert"));
  }
}

TEST_F(FailpointTest, ThrowActionThrows) {
  fail::enable("test.throw", "throw");
  EXPECT_TRUE(fail::any_active());
  EXPECT_THROW(SMPST_FAILPOINT("test.throw"), fail::FailpointError);
}

TEST_F(FailpointTest, EnabledSiteDoesNotAffectOthers) {
  fail::enable("test.throw2", "throw");
  EXPECT_NO_THROW(SMPST_FAILPOINT("test.other"));
}

TEST_F(FailpointTest, OneShotFiresExactlyOnce) {
  fail::enable("test.oneshot", "1*throw");
  EXPECT_THROW(SMPST_FAILPOINT("test.oneshot"), fail::FailpointError);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NO_THROW(SMPST_FAILPOINT("test.oneshot"));
  }
}

TEST_F(FailpointTest, AfterNSkipsFirstHits) {
  fail::enable("test.aftern", "3+throw");
  for (int i = 0; i < 3; ++i) {
    EXPECT_NO_THROW(SMPST_FAILPOINT("test.aftern"));
  }
  EXPECT_THROW(SMPST_FAILPOINT("test.aftern"), fail::FailpointError);
}

TEST_F(FailpointTest, ProbabilityIsRoughlyRespected) {
  fail::enable("test.prob", "50%throw");
  int fires = 0;
  for (int i = 0; i < 2000; ++i) {
    try {
      SMPST_FAILPOINT("test.prob");
    } catch (const fail::FailpointError&) {
      ++fires;
    }
  }
  EXPECT_GT(fires, 700);  // ~1000 expected; very loose 6-sigma bounds
  EXPECT_LT(fires, 1300);
}

TEST_F(FailpointTest, ZeroProbabilityNeverFires) {
  fail::enable("test.zero", "0%throw");
  for (int i = 0; i < 500; ++i) {
    EXPECT_NO_THROW(SMPST_FAILPOINT("test.zero"));
  }
}

TEST_F(FailpointTest, DelayActionSleeps) {
  fail::enable("test.delay", "delay(20)");
  WallTimer timer;
  SMPST_FAILPOINT("test.delay");
  EXPECT_GE(timer.elapsed_millis(), 10.0);
}

TEST_F(FailpointTest, WakeActionTriggersButDoesNotThrow) {
  fail::enable("test.wake", "wake");
  EXPECT_TRUE(SMPST_FAILPOINT_TRIGGERED("test.wake"));
  fail::disable("test.wake");
  EXPECT_FALSE(SMPST_FAILPOINT_TRIGGERED("test.wake"));
}

TEST_F(FailpointTest, OffSpecAndDisableDisarm) {
  fail::enable("test.off", "throw");
  fail::enable("test.off", "off");
  EXPECT_NO_THROW(SMPST_FAILPOINT("test.off"));
  fail::enable("test.off", "throw");
  fail::disable("test.off");
  EXPECT_NO_THROW(SMPST_FAILPOINT("test.off"));
}

TEST_F(FailpointTest, SpecListEnablesMultipleSites) {
  EXPECT_EQ(fail::enable_from_spec_list("test.a=throw;test.b=25%delay(2)"),
            2u);
  EXPECT_THROW(SMPST_FAILPOINT("test.a"), fail::FailpointError);
  bool found_a = false;
  for (const auto& info : fail::list()) {
    if (info.name == "test.a") {
      found_a = true;
      EXPECT_TRUE(info.active);
      EXPECT_GE(info.hits, 1u);
      EXPECT_GE(info.fires, 1u);
    }
  }
  EXPECT_TRUE(found_a);
}

TEST_F(FailpointTest, MalformedSpecsAreRejected) {
  EXPECT_THROW(fail::enable("test.bad", ""), std::invalid_argument);
  EXPECT_THROW(fail::enable("test.bad", "explode"), std::invalid_argument);
  EXPECT_THROW(fail::enable("test.bad", "150%throw"), std::invalid_argument);
  EXPECT_THROW(fail::enable("test.bad", "throw(1x)"), std::invalid_argument);
  EXPECT_THROW(fail::enable_from_spec_list("noequals"),
               std::invalid_argument);
  EXPECT_FALSE(fail::any_active());
}

// --------------------------------------------------------------------------
// Graph IO hardening: malformed and hostile inputs must throw ParseError (or
// parse), never crash or over-allocate.

EdgeList parse_text(const std::string& s) {
  std::istringstream is(s);
  return io::read_edge_list_text(is);
}

EdgeList parse_binary(const std::string& s) {
  std::istringstream is(s);
  return io::read_edge_list_binary(is);
}

TEST(IoHardening, TextRejectsMalformedInputs) {
  EXPECT_THROW(parse_text(""), io::ParseError);
  EXPECT_THROW(parse_text("not numbers"), io::ParseError);
  EXPECT_THROW(parse_text("3"), io::ParseError);
  EXPECT_THROW(parse_text("3 2\n0 1"), io::ParseError);      // truncated
  EXPECT_THROW(parse_text("3 1\n0 7"), io::ParseError);      // out of range
  EXPECT_THROW(parse_text("3 1\n-1 2"), io::ParseError);     // negative wraps
  EXPECT_THROW(parse_text("99999999999 0"), io::ParseError);  // n > 32-bit
}

TEST(IoHardening, TextHostileEdgeCountFailsWithoutHugeAllocation) {
  // Header claims ~1.8e19 edges; the capped reservation means this must fail
  // on the missing data, not by asking the allocator for exabytes.
  EXPECT_THROW(parse_text("4 18446744073709551615\n0 1\n"), io::ParseError);
}

TEST(IoHardening, TextErrorsCarryEdgeIndex) {
  try {
    parse_text("3 2\n0 1\n0 9\n");
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("edge 1"), std::string::npos);
  }
}

std::string valid_binary_blob() {
  EdgeList list(4);
  list.add_edge(0, 1);
  list.add_edge(1, 2);
  list.add_edge(2, 3);
  std::ostringstream os;
  io::write_edge_list_binary(list, os);
  return os.str();
}

TEST(IoHardening, BinaryRoundTrips) {
  const EdgeList list = parse_binary(valid_binary_blob());
  EXPECT_EQ(list.num_vertices(), 4u);
  EXPECT_EQ(list.num_edges(), 3u);
}

TEST(IoHardening, BinaryRejectsBadMagicAndTruncation) {
  std::string blob = valid_binary_blob();
  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_THROW(parse_binary(bad_magic), io::ParseError);
  EXPECT_THROW(parse_binary(blob.substr(0, 10)), io::ParseError);
  EXPECT_THROW(parse_binary(blob.substr(0, blob.size() - 3)), io::ParseError);
}

TEST(IoHardening, BinaryHostileEdgeCountFailsOnStreamNotAllocator) {
  // Header: n=4, m=2^55. resize(m) would be a 288-petabyte allocation; the
  // chunked reader must fail on the truncated stream instead.
  std::string blob("SMPSTGR1");
  const std::uint64_t n = 4;
  const std::uint64_t m = std::uint64_t{1} << 55;
  blob.append(reinterpret_cast<const char*>(&n), sizeof(n));
  blob.append(reinterpret_cast<const char*>(&m), sizeof(m));
  blob.append(64, '\0');  // a token amount of edge data
  EXPECT_THROW(parse_binary(blob), io::ParseError);
}

TEST(IoHardening, FuzzedInputsThrowOrParseNeverCrash) {
  Xoshiro256 rng(0xF00D);
  const std::string text_seed = "4 3\n0 1\n1 2\n2 3\n";
  const std::string bin_seed = valid_binary_blob();
  for (int i = 0; i < 400; ++i) {
    // Random garbage of random length.
    std::string garbage(rng.next_bounded(64), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.next_bounded(256));
    // Seeded mutations: flip a few bytes of a valid input.
    std::string text = text_seed;
    std::string bin = bin_seed;
    for (int k = 0; k < 3; ++k) {
      text[rng.next_bounded(text.size())] =
          static_cast<char>(rng.next_bounded(256));
      bin[rng.next_bounded(bin.size())] =
          static_cast<char>(rng.next_bounded(256));
    }
    for (const std::string* input : {&garbage, &text, &bin}) {
      try {
        const EdgeList a = parse_text(*input);
        EXPECT_LE(a.num_vertices(), kInvalidVertex);
      } catch (const io::ParseError&) {
      }
      try {
        const EdgeList b = parse_binary(*input);
        EXPECT_LE(b.num_vertices(), kInvalidVertex);
      } catch (const io::ParseError&) {
      }
    }
  }
}

// --------------------------------------------------------------------------
// Wire codec hardening.

TEST(WireHardening, OversizedLineIsRejectedUpFront) {
  const std::string line(kMaxLineBytes + 1, 'a');
  EXPECT_THROW(parse_line(line), WireError);
}

TEST(WireHardening, ErrorsAreTyped) {
  EXPECT_THROW(parse_line("{\"unterminated"), WireError);
  EXPECT_THROW(parse_line("{bad json}"), WireError);
  EXPECT_THROW(parse_line(""), WireError);
  EXPECT_THROW(parse_line("   "), WireError);
}

TEST(WireHardening, FuzzedLinesThrowOrParseNeverCrash) {
  Xoshiro256 rng(0xBEEF);
  const std::string json_seed =
      "{\"cmd\":\"query\",\"graph\":\"g\",\"timeout\":50}";
  const std::string word_seed = "query graph=g algo=bader-cong timeout=50";
  for (int i = 0; i < 600; ++i) {
    std::string garbage(rng.next_bounded(48), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.next_bounded(256));
    std::string json = json_seed;
    std::string word = word_seed;
    json[rng.next_bounded(json.size())] =
        static_cast<char>(rng.next_bounded(128));
    word[rng.next_bounded(word.size())] =
        static_cast<char>(rng.next_bounded(128));
    for (const std::string* line : {&garbage, &json, &word}) {
      try {
        const Fields f = parse_line(*line);
        EXPECT_FALSE(f.empty());
      } catch (const WireError&) {
      }
    }
  }
}

// --------------------------------------------------------------------------
// Executor: exception containment, retry, degradation, deadlines.

class ExecutorChaosTest : public FailpointTest {
 protected:
  ExecutorChaosTest() { registry.generate("g", "random-nlogn", 2048, 7); }

  SpanningTreeRequest request(const std::string& algo = "bader-cong") {
    SpanningTreeRequest req;
    req.graph = "g";
    req.algorithm = algo;
    return req;
  }

  GraphRegistry registry;
};

TEST_F(ExecutorChaosTest, DequeueFaultIsContainedAsFailed) {
  ExecutorOptions opts;
  opts.num_workers = 1;
  opts.threads_per_query = 1;
  QueryExecutor executor(registry, opts);
  fail::enable("service.executor.dequeue", "throw");
  const QueryResult r = executor.submit(request()).get();
  EXPECT_EQ(r.status, QueryStatus::kFailed);
  EXPECT_NE(r.error.find("worker exception"), std::string::npos);
  fail::disable_all();
  // The worker thread survived the fault and still serves.
  EXPECT_TRUE(executor.submit(request()).get().ok());
  EXPECT_EQ(executor.stats().failed, 1u);
}

TEST_F(ExecutorChaosTest, OneShotExecuteFaultIsRetriedToSuccess) {
  ExecutorOptions opts;
  opts.num_workers = 1;
  opts.threads_per_query = 1;
  QueryExecutor executor(registry, opts);
  fail::enable("service.executor.execute", "1*throw");
  const QueryResult r = executor.submit(request()).get();
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_FALSE(r.degraded);
  EXPECT_GE(executor.stats().retries, 1u);
}

TEST_F(ExecutorChaosTest, PersistentAlgorithmFaultDegradesToSequential) {
  ExecutorOptions opts;
  opts.num_workers = 1;
  opts.threads_per_query = 2;
  QueryExecutor executor(registry, opts);
  fail::enable("core.bader_cong.expand", "throw");
  const QueryResult r = executor.submit(request("bader-cong")).get();
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.attempts, 3u);  // 1 + two retries, all thrown
  EXPECT_EQ(r.forest.num_trees(), 1u);
  const ServiceStats s = executor.stats();
  EXPECT_EQ(s.served_ok, 1u);
  EXPECT_GE(s.degraded, 1u);
}

TEST_F(ExecutorChaosTest, ExhaustedRetriesWithoutFallbackIsTypedFailure) {
  ExecutorOptions opts;
  opts.num_workers = 1;
  opts.threads_per_query = 1;
  QueryExecutor executor(registry, opts);
  fail::enable("service.executor.execute", "throw");
  const QueryResult r = executor.submit(request()).get();
  EXPECT_EQ(r.status, QueryStatus::kFailed);
  EXPECT_NE(r.error.find("injected fault"), std::string::npos);
  EXPECT_EQ(executor.stats().failed, 1u);
}

TEST_F(ExecutorChaosTest, AdmissionFaultResolvesFutureAsRejected) {
  ExecutorOptions opts;
  opts.num_workers = 1;
  opts.threads_per_query = 1;
  QueryExecutor executor(registry, opts);
  fail::enable("service.bounded_queue.push", "throw");
  auto future = executor.submit(request());
  const QueryResult r = future.get();  // must not hang or rethrow
  EXPECT_EQ(r.status, QueryStatus::kRejected);
  EXPECT_NE(r.error.find("admission failure"), std::string::npos);
  EXPECT_EQ(executor.stats().rejected, 1u);
}

TEST_F(ExecutorChaosTest, StalledAttemptPastDeadlineTimesOut) {
  ExecutorOptions opts;
  opts.num_workers = 1;
  opts.threads_per_query = 1;
  QueryExecutor executor(registry, opts);
  // The injected 200 ms stall ignores the token, exactly like a wedged
  // traversal. Deadlines are cooperative: the attempt's own deadline check
  // answers kTimedOut once the stall ends.
  fail::enable("service.executor.execute", "1*delay(200)");
  SpanningTreeRequest req = request();
  req.timeout_ms = 10;
  const QueryResult r = executor.submit(std::move(req)).get();
  EXPECT_EQ(r.status, QueryStatus::kTimedOut);
}

// The exit invariant compares every forest's tree count with the component
// count the registry took at load. A forest split by the failpoint fails it
// on every attempt and on the degradation run, so the query is kInvalid.
TEST_F(ExecutorChaosTest, ExitInvariantRejectsForestWithExtraTree) {
  ExecutorOptions opts;
  opts.num_workers = 1;
  opts.threads_per_query = 2;
  QueryExecutor executor(registry, opts);
  fail::enable("service.executor.exit_invariant", "wake");
  const QueryResult bad = executor.submit(request()).get();
  EXPECT_EQ(bad.status, QueryStatus::kInvalid);
  EXPECT_NE(bad.error.find("trees but graph has"), std::string::npos)
      << bad.error;
  fail::disable_all();
  const QueryResult good = executor.submit(request()).get();
  EXPECT_EQ(good.status, QueryStatus::kOk) << good.error;
  EXPECT_EQ(good.num_trees, 1u);
  EXPECT_EQ(executor.stats().invalid, 1u);
}

TEST_F(ExecutorChaosTest, ParanoidModeValidatesEveryResult) {
  ExecutorOptions opts;
  opts.num_workers = 1;
  opts.threads_per_query = 2;
  opts.paranoid_validate = true;
  QueryExecutor executor(registry, opts);
  const QueryResult r = executor.submit(request()).get();
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.validated);
  EXPECT_TRUE(r.validation.ok);
  EXPECT_EQ(executor.stats().invalid, 0u);
}

TEST_F(ExecutorChaosTest, FaultStormLeavesCountersConsistent) {
  ExecutorOptions opts;
  opts.num_workers = 2;
  opts.threads_per_query = 2;
  QueryExecutor executor(registry, opts);
  fail::enable_from_spec_list(
      "service.executor.execute=20%throw;"
      "core.bader_cong.expand=10%throw;"
      "service.registry.get=10%throw;"
      "sched.work_queue.pop=5%throw");
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 64; ++i) futures.push_back(executor.submit(request()));
  for (auto& f : futures) {
    const QueryResult r = f.get();
    EXPECT_TRUE(r.status == QueryStatus::kOk ||
                r.status == QueryStatus::kRejected ||
                r.status == QueryStatus::kFailed)
        << to_string(r.status);
  }
  fail::disable_all();
  const ServiceStats s = executor.stats();
  EXPECT_EQ(s.submitted, 64u);
  EXPECT_EQ(s.submitted, s.accepted + s.rejected);
  EXPECT_EQ(s.accepted, s.served_ok + s.timed_out + s.not_found + s.failed +
                            s.invalid);
}

// --------------------------------------------------------------------------
// SV / HCS cooperative cancellation.

TEST(Cancellation, SvFamilyHonoursPreCancelledToken) {
  const Graph g = gen::make_family("random-nlogn", 2048, 11);
  CancelToken token;
  token.request_cancel();
  {
    SvOptions opts;
    opts.num_threads = 2;
    opts.cancel = &token;
    EXPECT_THROW(sv_spanning_tree(g, opts), CancelledError);
  }
  {
    SvOptions opts;
    opts.num_threads = 2;
    opts.use_locks = true;
    opts.cancel = &token;
    EXPECT_THROW(sv_spanning_tree(g, opts), CancelledError);
  }
  {
    HcsOptions opts;
    opts.num_threads = 2;
    opts.cancel = &token;
    EXPECT_THROW(hcs_spanning_tree(g, opts), CancelledError);
  }
}

TEST(Cancellation, SvRunsToCompletionWithLiveToken) {
  const Graph g = gen::make_family("random-nlogn", 1024, 3);
  CancelToken token;  // never cancelled, no deadline
  SvOptions opts;
  opts.num_threads = 2;
  opts.cancel = &token;
  const SpanningForest f = sv_spanning_tree(g, opts);
  EXPECT_EQ(f.num_vertices(), g.num_vertices());
}

TEST(Cancellation, ExecutorTimesOutSvQueryDeterministically) {
  GraphRegistry registry;
  registry.generate("g", "random-nlogn", 2048, 5);
  ExecutorOptions opts;
  opts.num_workers = 1;
  opts.threads_per_query = 2;
  QueryExecutor executor(registry, opts);
  SpanningTreeRequest req;
  req.graph = "g";
  req.algorithm = "sv";
  req.timeout_ms = 0;
  const QueryResult r = executor.submit(std::move(req)).get();
  EXPECT_EQ(r.status, QueryStatus::kTimedOut);
}

}  // namespace
