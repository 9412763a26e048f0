// Tests of the TCP front end and its supporting pieces: LineCodec framing
// (chunked feeds, the oversized-line cap, CRLF, EOF partials), the zipfian
// load-generator sampler, and loopback integration against a live TcpServer —
// partial frames, pipelined ordering, typed too-large/overloaded/
// shutting-down errors, half-close, disconnect mid-query, slow-loris
// timeouts, the connection cap, and drain-under-load's one-response-per-
// accepted-request contract (docs/SERVICE.md).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/zipf.hpp"
#include "gen/registry.hpp"
#include "net/tcp_server.hpp"
#include "service/codec.hpp"
#include "service/executor.hpp"
#include "service/graph_registry.hpp"
#include "service/session.hpp"
#include "service/wire.hpp"
#include "support/failpoint.hpp"
#include "support/prng.hpp"

namespace smpst::net {
namespace {

using service::Fields;
using service::LineCodec;
using service::parse_line;

// ------------------------------------------------------------------- codec

TEST(LineCodec, ByteAtATimeFeedsFrameOneLine) {
  LineCodec codec;
  const std::string line = "query graph=g algo=bfs";
  std::string out;
  for (char ch : line) {
    codec.feed(&ch, 1);
    EXPECT_EQ(codec.next(out), LineCodec::Event::kNone);
  }
  const char nl = '\n';
  codec.feed(&nl, 1);
  ASSERT_EQ(codec.next(out), LineCodec::Event::kLine);
  EXPECT_EQ(out, line);
  EXPECT_EQ(codec.next(out), LineCodec::Event::kNone);
  EXPECT_EQ(codec.buffered(), 0u);
}

TEST(LineCodec, MultipleLinesInOneFeedComeOutInOrder) {
  LineCodec codec;
  const std::string bytes = "first\nsecond\nthird\n";
  codec.feed(bytes.data(), bytes.size());
  std::string out;
  ASSERT_EQ(codec.next(out), LineCodec::Event::kLine);
  EXPECT_EQ(out, "first");
  ASSERT_EQ(codec.next(out), LineCodec::Event::kLine);
  EXPECT_EQ(out, "second");
  ASSERT_EQ(codec.next(out), LineCodec::Event::kLine);
  EXPECT_EQ(out, "third");
  EXPECT_EQ(codec.next(out), LineCodec::Event::kNone);
}

TEST(LineCodec, CrlfIsStripped) {
  LineCodec codec;
  const std::string bytes = "stats\r\nlist\r\n";
  codec.feed(bytes.data(), bytes.size());
  std::string out;
  ASSERT_EQ(codec.next(out), LineCodec::Event::kLine);
  EXPECT_EQ(out, "stats");
  ASSERT_EQ(codec.next(out), LineCodec::Event::kLine);
  EXPECT_EQ(out, "list");
}

TEST(LineCodec, OversizedLineReportedOnceThenStreamResyncs) {
  LineCodec codec(8);
  const std::string bytes = std::string(100, 'a') + "\nok\n";
  // Feed in two chunks so the cap is crossed mid-feed and the tail of the
  // oversized line straddles a chunk boundary.
  codec.feed(bytes.data(), 20);
  std::string out;
  ASSERT_EQ(codec.next(out), LineCodec::Event::kOversized);
  EXPECT_TRUE(codec.discarding());
  EXPECT_EQ(codec.next(out), LineCodec::Event::kNone);  // reported only once
  codec.feed(bytes.data() + 20, bytes.size() - 20);
  ASSERT_EQ(codec.next(out), LineCodec::Event::kLine);
  EXPECT_EQ(out, "ok");
  EXPECT_FALSE(codec.discarding());
  EXPECT_GE(codec.last_oversized_bytes(), 8u);
}

TEST(LineCodec, TakePartialSurrendersTheUnterminatedTail) {
  LineCodec codec;
  const std::string bytes = "done\nhalf a line";
  codec.feed(bytes.data(), bytes.size());
  std::string out;
  ASSERT_EQ(codec.next(out), LineCodec::Event::kLine);
  EXPECT_EQ(out, "done");
  EXPECT_EQ(codec.next(out), LineCodec::Event::kNone);
  EXPECT_EQ(codec.take_partial(), "half a line");
  EXPECT_EQ(codec.take_partial(), "");  // stream now ends cleanly
}

// -------------------------------------------------------------------- zipf

TEST(Zipfian, DeterministicGivenTheSeedAndAlwaysInRange) {
  const bench::ZipfianGenerator zipf(1000);
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t rank = zipf.next(a);
    EXPECT_EQ(rank, zipf.next(b));
    EXPECT_LT(rank, zipf.n());
  }
}

TEST(Zipfian, SkewConcentratesMassOnLowRanks) {
  const bench::ZipfianGenerator zipf(1000, 0.99);
  Xoshiro256 rng(7);
  constexpr int kSamples = 20000;
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < kSamples; ++i) counts[zipf.next(rng)]++;
  // theta=0.99 over 1000 items: rank 0 carries ~12% of the mass and the top
  // ten ~36%; assert loose lower bounds that a uniform sampler (0.1% / 1%)
  // cannot reach.
  EXPECT_GT(counts[0], kSamples / 20);
  int top10 = 0;
  for (int i = 0; i < 10; ++i) top10 += counts[i];
  EXPECT_GT(top10, kSamples / 4);
}

TEST(Zipfian, SingleItemDegeneratesToConstant) {
  const bench::ZipfianGenerator zipf(1);
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.next(rng), 0u);
}

TEST(Zipfian, RejectsInvalidParameters) {
  EXPECT_THROW(bench::ZipfianGenerator(0), std::invalid_argument);
  EXPECT_THROW(bench::ZipfianGenerator(10, 0.0), std::invalid_argument);
  EXPECT_THROW(bench::ZipfianGenerator(10, 1.0), std::invalid_argument);
  EXPECT_THROW(bench::ZipfianGenerator(10, 1.5), std::invalid_argument);
}

// ------------------------------------------------------ loopback harness

/// A live TcpServer on an ephemeral loopback port, its run() loop on a
/// background thread, with graph "g" preloaded. stop() drains and returns
/// what run() reported.
class ServerHarness {
 public:
  explicit ServerHarness(
      service::ExecutorOptions eopts = default_executor_options(),
      TcpServerOptions sopts = TcpServerOptions())
      : executor_(registry_, eopts) {
    registry_.put("g", gen::make_family("torus-rowmajor", 256, 1));
    server_.emplace(registry_, executor_, sopts);
    loop_ = std::thread([this] { report_ = server_->run(); });
  }

  ~ServerHarness() {
    if (!joined_) stop();
  }

  static service::ExecutorOptions default_executor_options() {
    service::ExecutorOptions opts;
    opts.num_workers = 2;
    opts.threads_per_query = 2;
    return opts;
  }

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] service::QueryExecutor& executor() { return executor_; }
  [[nodiscard]] service::GraphRegistry& registry() { return registry_; }
  void request_shutdown() { server_->request_shutdown(); }

  DrainReport stop() {
    server_->request_shutdown();
    if (loop_.joinable()) loop_.join();
    joined_ = true;
    return report_;
  }

 private:
  service::GraphRegistry registry_;
  service::QueryExecutor executor_;
  std::optional<TcpServer> server_;
  std::thread loop_;
  DrainReport report_;
  bool joined_ = false;
};

/// Blocking loopback client with a receive deadline, so a server bug shows
/// up as a failed read instead of a hung test.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port, long deadline_sec = 10) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    timeval tv{};
    tv.tv_sec = deadline_sec;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }

  ~TestClient() { close_now(); }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  bool send_all(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  void half_close() { ::shutdown(fd_, SHUT_WR); }

  void close_now() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Reads through the next newline. False on EOF or deadline.
  bool read_line(std::string& out) {
    while (true) {
      const auto nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        out = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char tmp[4096];
      const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
      if (n <= 0) {
        timed_out_ = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
        return false;
      }
      buffer_.append(tmp, static_cast<std::size_t>(n));
    }
  }

  /// Reads one response line and parses it; registers a failure (and returns
  /// an empty field map) when the connection closes or the deadline expires
  /// first.
  Fields read_response() {
    std::string line;
    if (!read_line(line)) {
      ADD_FAILURE() << (timed_out_
                            ? "receive deadline expired before a response"
                            : "connection closed before a response arrived");
      return Fields{};
    }
    return parse_line(line);
  }

  /// True when the server closes without sending further data.
  bool wait_eof() {
    char tmp[256];
    while (true) {
      const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
      if (n == 0) return true;   // orderly close
      if (n < 0) return false;   // deadline — still open
    }
  }

 private:
  int fd_ = -1;
  bool timed_out_ = false;
  std::string buffer_;
};

const std::string kQuery = "query graph=g algo=bfs\n";

// ---------------------------------------------------------- loopback tests

TEST(TcpLoopback, PartialFramesAssembleIntoOneResponse) {
  ServerHarness server;
  TestClient c(server.port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.send_all("query gra"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(c.send_all("ph=g algo"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(c.send_all("=bfs\n"));
  const Fields f = c.read_response();
  EXPECT_EQ(f.at("status"), "ok");
  EXPECT_EQ(f.at("graph"), "g");
  EXPECT_TRUE(server.stop().clean);
}

TEST(TcpLoopback, PipelinedRequestsAnswerInOrder) {
  ServerHarness server;
  TestClient c(server.port());
  ASSERT_TRUE(c.connected());
  // One write carrying five requests whose responses are distinguishable:
  // sync gen, ok query, parse error, not-found query, ok query.
  ASSERT_TRUE(
      c.send_all("gen name=h family=torus-rowmajor n=64 seed=3\n" + kQuery +
                 "no-such-command\nquery graph=missing\n" + kQuery));
  EXPECT_EQ(c.read_response().at("name"), "h");
  EXPECT_EQ(c.read_response().at("status"), "ok");
  EXPECT_EQ(c.read_response().at("code"), "bad-request");
  EXPECT_EQ(c.read_response().at("status"), "not-found");
  EXPECT_EQ(c.read_response().at("status"), "ok");
  EXPECT_TRUE(server.stop().clean);
}

TEST(TcpLoopback, OversizedLineGetsTypedErrorAndConnectionSurvives) {
  ServerHarness server;
  TestClient c(server.port());
  ASSERT_TRUE(c.connected());
  const std::string oversized(service::kMaxLineBytes + 100, 'a');
  ASSERT_TRUE(c.send_all(oversized + "\n" + kQuery));
  const Fields err = c.read_response();
  EXPECT_EQ(err.at("ok"), "0");
  EXPECT_EQ(err.at("code"), "too-large");
  // The stream resynchronized at the newline; the next request is served.
  EXPECT_EQ(c.read_response().at("status"), "ok");
  EXPECT_TRUE(server.stop().clean);
}

TEST(TcpLoopback, HalfCloseFlushesEveryOwedResponseIncludingThePartialLine) {
  ServerHarness server;
  TestClient c(server.port());
  ASSERT_TRUE(c.connected());
  // Two requests, the second without its newline: EOF terminates the last
  // line (getline semantics), so both must be answered before the close.
  ASSERT_TRUE(c.send_all(kQuery + "query graph=g algo=sv"));
  c.half_close();
  EXPECT_EQ(c.read_response().at("algo"), "bfs");
  EXPECT_EQ(c.read_response().at("algo"), "sv");
  EXPECT_TRUE(c.wait_eof());
  EXPECT_TRUE(server.stop().clean);
}

TEST(TcpLoopback, DisconnectMidQueryLeavesTheServerHealthy) {
  ServerHarness server;
  {
    TestClient dropper(server.port());
    ASSERT_TRUE(dropper.connected());
    ASSERT_TRUE(dropper.send_all(kQuery));
    dropper.close_now();  // vanish before the response can be written
  }
  // The dropped connection's completion drains into a detached session; the
  // server keeps serving and still drains clean.
  TestClient c(server.port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.send_all(kQuery));
  EXPECT_EQ(c.read_response().at("status"), "ok");
  EXPECT_TRUE(server.stop().clean);
}

TEST(TcpLoopback, ExecutorOverloadShedsWithTypedErrorAndRetryHint) {
  service::ExecutorOptions eopts = ServerHarness::default_executor_options();
  eopts.num_workers = 1;
  eopts.queue_capacity = 1;
  eopts.start_paused = true;  // hold the queue full so sheds are deterministic
  ServerHarness server(eopts);
  TestClient c(server.port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.send_all(kQuery + kQuery + kQuery + kQuery));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.executor().resume();
  // Slot ordering: the accepted query answers first, then the three sheds.
  EXPECT_EQ(c.read_response().at("status"), "ok");
  for (int i = 0; i < 3; ++i) {
    const Fields shed = c.read_response();
    EXPECT_EQ(shed.at("ok"), "0");
    EXPECT_EQ(shed.at("code"), "overloaded");
    EXPECT_GE(std::stoll(shed.at("retry_after_ms")), 1);
  }
  EXPECT_TRUE(server.stop().clean);
}

TEST(TcpLoopback, ConnectionCapRejectsWithTypedErrorAndKeepsServing) {
  TcpServerOptions sopts;
  sopts.max_connections = 1;
  ServerHarness server(ServerHarness::default_executor_options(), sopts);
  TestClient first(server.port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(first.send_all(kQuery));
  EXPECT_EQ(first.read_response().at("status"), "ok");  // definitely accepted
  TestClient second(server.port());
  ASSERT_TRUE(second.connected());
  const Fields rejected = second.read_response();
  EXPECT_EQ(rejected.at("code"), "overloaded");
  EXPECT_GE(std::stoll(rejected.at("retry_after_ms")), 0);
  EXPECT_TRUE(second.wait_eof());
  // The admitted connection is untouched by the rejection.
  ASSERT_TRUE(first.send_all(kQuery));
  EXPECT_EQ(first.read_response().at("status"), "ok");
  EXPECT_TRUE(server.stop().clean);
}

TEST(TcpLoopback, IdleConnectionIsClosed) {
  TcpServerOptions sopts;
  sopts.idle_timeout_ms = 200;
  ServerHarness server(ServerHarness::default_executor_options(), sopts);
  TestClient c(server.port());
  ASSERT_TRUE(c.connected());
  EXPECT_TRUE(c.wait_eof());  // no request ever sent
  EXPECT_TRUE(server.stop().clean);
}

TEST(TcpLoopback, SlowLorisDribbleDoesNotCountAsProgress) {
  TcpServerOptions sopts;
  sopts.idle_timeout_ms = 200;
  ServerHarness server(ServerHarness::default_executor_options(), sopts);
  TestClient c(server.port());
  ASSERT_TRUE(c.connected());
  // Keep the socket byte-active without ever completing a line; the idle
  // timer keys on protocol progress, so the dribbler is still evicted.
  bool closed = false;
  for (int i = 0; i < 50 && !closed; ++i) {
    (void)c.send_all("x");  // may fail once the server closes — that's fine
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    char tmp[16];
    closed = ::recv(c.fd(), tmp, sizeof tmp, MSG_DONTWAIT) == 0;
  }
  EXPECT_TRUE(closed);
  EXPECT_TRUE(server.stop().clean);
}

TEST(TcpLoopback, DrainUnderLoadAnswersEveryAcceptedRequest) {
  ServerHarness server;
  server.registry().put("big", gen::make_family("random-nlogn", 4096, 9));
  TestClient c(server.port());
  ASSERT_TRUE(c.connected());
  constexpr int kRequests = 16;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += "query graph=big algo=bader-cong\n";
  }
  ASSERT_TRUE(c.send_all(burst));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.request_shutdown();  // SIGTERM equivalent, mid-burst
  // The drain contract: one response per accepted request — completed (ok)
  // or shed (shutting-down) — then an orderly close, nothing dropped.
  int answered = 0;
  for (int i = 0; i < kRequests; ++i) {
    std::string line;
    ASSERT_TRUE(c.read_line(line)) << "dropped after " << answered;
    const Fields f = parse_line(line);
    const bool ok = f.count("status") != 0 && f.at("status") == "ok";
    const bool drained = f.count("code") != 0 && f.at("code") == "shutting-down";
    EXPECT_TRUE(ok || drained) << line;
    ++answered;
  }
  EXPECT_EQ(answered, kRequests);
  EXPECT_TRUE(c.wait_eof());
  const DrainReport report = server.stop();
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.responses_dropped, 0u);
}

TEST(TcpLoopback, ShutdownCommandDrainsTheWholeServer) {
  ServerHarness server;
  TestClient c(server.port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.send_all(kQuery + "shutdown\n"));
  EXPECT_EQ(c.read_response().at("status"), "ok");
  EXPECT_EQ(c.read_response().at("draining"), "1");
  EXPECT_TRUE(c.wait_eof());
  EXPECT_TRUE(server.stop().clean);  // run() already returning; join + report
}

// ------------------------------------------------- heavy-command offload
//
// The TCP server enables SessionOptions::offload_heavy so load/gen/trace
// never run on the epoll loop thread. These tests pin down the deferral
// semantics: dependent commands pipelined behind a heavy one still execute
// in order, other connections stay live while a heavy command runs, and the
// session-level machinery (defer/pump, pending() accounting) holds.

TEST(TcpLoopback, HeavyGenThenDependentQueryPipelinedInOneWrite) {
  ServerHarness server;
  TestClient c(server.port());
  ASSERT_TRUE(c.connected());
  // The query on the freshly generated graph is in the same TCP segment as
  // the gen: it must defer until the offloaded gen completes, then see the
  // graph. A second gen chained behind a dependent query exercises repeated
  // defer/pump cycles on one connection.
  ASSERT_TRUE(
      c.send_all("gen name=big family=torus-rowmajor n=4096 seed=7\n"
                 "query graph=big algo=bader-cong validate=true\n"
                 "gen name=big2 family=random-nlogn n=1024 seed=9\n"
                 "query graph=big2 algo=bfs\n"));
  EXPECT_EQ(c.read_response().at("name"), "big");
  Fields q1 = c.read_response();
  EXPECT_EQ(q1.at("status"), "ok");
  EXPECT_EQ(q1.at("graph"), "big");
  EXPECT_EQ(c.read_response().at("name"), "big2");
  Fields q2 = c.read_response();
  EXPECT_EQ(q2.at("status"), "ok");
  EXPECT_EQ(q2.at("graph"), "big2");
  EXPECT_TRUE(server.stop().clean);
}

TEST(TcpLoopback, OtherConnectionsAnswerWhileAHeavyCommandRuns) {
  ServerHarness server;
  // Generous deadlines: the property under test is that the light client is
  // answered while the heavy gen runs, not how fast either completes — on a
  // loaded single-core CI box the gen alone can hold the core for seconds.
  TestClient heavy(server.port(), 60);
  TestClient light(server.port(), 60);
  ASSERT_TRUE(heavy.connected());
  ASSERT_TRUE(light.connected());
  // Large enough that the gen takes real time on a worker; the light client
  // must still get served meanwhile (on the second worker) — before the
  // offload this gen would have wedged the shared loop thread.
  ASSERT_TRUE(
      heavy.send_all("gen name=huge family=random-nlogn n=150000 seed=1\n"));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(light.send_all(kQuery));
    EXPECT_EQ(light.read_response().at("status"), "ok");
  }
  EXPECT_EQ(heavy.read_response().at("name"), "huge");
  EXPECT_TRUE(server.stop().clean);
}

TEST(TcpLoopback, EofBehindHeavyCommandStillAnswersEverything) {
  ServerHarness server;
  TestClient c(server.port());
  ASSERT_TRUE(c.connected());
  // gen + dependent query + quit, then immediately half-close: the EOF is
  // deferred behind the offloaded gen and the close barrier must wait for
  // every deferred line's response.
  ASSERT_TRUE(
      c.send_all("gen name=e family=torus-rowmajor n=2048 seed=2\n"
                 "query graph=e algo=bfs\nquit\n"));
  c.half_close();
  EXPECT_EQ(c.read_response().at("name"), "e");
  EXPECT_EQ(c.read_response().at("status"), "ok");
  EXPECT_EQ(c.read_response().at("bye"), "1");
  EXPECT_TRUE(c.wait_eof());
  EXPECT_TRUE(server.stop().clean);
}

TEST(SessionOffload, DefersInputWhileHeavyCommandRunsAndReplaysInOrder) {
  service::GraphRegistry registry;
  service::QueryExecutor executor(registry,
                                  ServerHarness::default_executor_options());
  std::mutex out_mutex;
  std::vector<std::string> out;
  service::SessionOptions opts;
  opts.offload_heavy = true;
  auto session = service::Session::create(
      registry, executor,
      [&](std::string&& line) {
        std::lock_guard<std::mutex> lk(out_mutex);
        out.push_back(std::move(line));
      },
      opts);
  // Hold the gen at the registry for 200 ms, so both lines behind it arrive
  // while it is in flight; a small gen can otherwise finish first and leave
  // only the two deferred lines pending.
  fail::enable("service.registry.put", "delay(200)");
  struct Disarm {
    ~Disarm() { fail::disable_all(); }
  } disarm;
  session->on_line("gen name=x family=torus-rowmajor n=1024 seed=1");
  // The reader thread returns immediately; the lines behind the gen defer.
  session->on_line("query graph=x algo=bfs");
  session->on_line("list");
  EXPECT_GE(session->pending(), 3u);
  // Emulate the front-end loop: pump deferred input whenever the offloaded
  // command has finished, until the pipeline drains.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (session->pending() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    if (session->resume_ready()) {
      session->pump_deferred();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(session->wait_idle(std::chrono::seconds(10)));
  std::lock_guard<std::mutex> lk(out_mutex);
  // gen ack, query result, list entry for x + list summary — in order.
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(parse_line(out[0]).at("name"), "x");
  EXPECT_EQ(parse_line(out[1]).at("status"), "ok");
  EXPECT_EQ(parse_line(out[2]).at("name"), "x");
  EXPECT_EQ(parse_line(out[3]).at("entries"), "1");
}

TEST(SessionOffload, ShedsHeavyCommandWithTypedErrorWhenQueueIsFull) {
  service::GraphRegistry registry;
  registry.put("g", gen::make_family("torus-rowmajor", 64, 1));
  service::ExecutorOptions eopts;
  eopts.num_workers = 1;
  eopts.threads_per_query = 1;
  eopts.queue_capacity = 1;
  eopts.start_paused = true;  // nothing dequeues: the queue fills for real
  service::QueryExecutor executor(registry, eopts);
  std::mutex out_mutex;
  std::vector<std::string> out;
  service::SessionOptions opts;
  opts.offload_heavy = true;
  auto session = service::Session::create(
      registry, executor,
      [&](std::string&& line) {
        std::lock_guard<std::mutex> lk(out_mutex);
        out.push_back(std::move(line));
      },
      opts);
  // Fill the single queue slot, then the heavy command cannot be offloaded
  // and must come back as a typed overloaded error with a retry hint.
  auto future = executor.submit(service::SpanningTreeRequest{"g", "bfs"});
  session->on_line("gen name=y family=torus-rowmajor n=256 seed=1");
  {
    std::lock_guard<std::mutex> lk(out_mutex);
    ASSERT_EQ(out.size(), 1u);
    const Fields f = parse_line(out[0]);
    EXPECT_EQ(f.at("code"), "overloaded");
    EXPECT_TRUE(f.count("retry_after_ms") != 0);
  }
  executor.resume();
  (void)future.get();
}

}  // namespace
}  // namespace smpst::net
