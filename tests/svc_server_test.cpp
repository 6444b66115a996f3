// svc::Server contract tests (tests/svc_server_test.cpp): the in-process
// face of the event-driven tta_verifyd. Covers the ServerConfig argv
// round trip the smokes and the chaos harness build on (and its strict
// number parsing), a wire-level request/response round trip against a
// live in-process server, the deterministic state-budget quota rejection,
// accept-path backoff surviving injected descriptor exhaustion (the
// sock.accept fail point), and the tickless loop's work counts: loop
// wakes while a job runs, pumps per cache hit beside idle connections,
// and one shared drain deadline for clients that stopped reading.
// The end-to-end phases — fairness spreads, drain-on-disconnect, SIGTERM
// metrics — live in tools/verifyd_smoke.cpp against the real binary.
#include "svc/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "svc/wire.h"
#include "util/fail_point.h"
#include "util/socket.h"

namespace tta::svc {
namespace {

using tta::util::LineConn;
using tta::util::Socket;

/// Runs an in-process server on its own thread; stops and joins on scope
/// exit so a failing assertion never leaves the run() thread dangling.
class ServerRunner {
 public:
  explicit ServerRunner(ServerConfig config) : server_(std::move(config)) {
    std::string error;
    started_ = server_.start(&error);
    EXPECT_TRUE(started_) << error;
    if (started_) thread_ = std::thread([this] { server_.run(); });
  }
  ~ServerRunner() { stop(); }
  /// request_stop() + join; returns how long run() took to return.
  std::chrono::steady_clock::duration stop() {
    const auto start = std::chrono::steady_clock::now();
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
    return std::chrono::steady_clock::now() - start;
  }
  bool started() const { return started_; }
  Server& server() { return server_; }

 private:
  Server server_;
  bool started_ = false;
  std::thread thread_;
};

/// One request -> one response row on a fresh connection.
bool exchange(std::uint16_t port, const std::string& request,
              std::string* response, int timeout_ms = 60'000) {
  std::string error;
  Socket sock = Socket::connect_to("127.0.0.1", port, 5'000, &error);
  if (!sock.valid()) {
    ADD_FAILURE() << "connect failed: " << error;
    return false;
  }
  LineConn conn(std::move(sock));
  if (conn.write_line(request, 5'000) != LineConn::Io::kOk) return false;
  return conn.read_line(response, timeout_ms) == LineConn::Io::kOk;
}

Socket connect_or_fail(std::uint16_t port) {
  std::string error;
  Socket sock = Socket::connect_to("127.0.0.1", port, 5'000, &error);
  EXPECT_TRUE(sock.valid()) << "connect failed: " << error;
  return sock;
}

/// Polls `done` every millisecond for up to 60 s.
bool wait_until(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

ServerConfig quiet_config() {
  ServerConfig config;
  config.port = 0;
  config.service.workers = 1;
  config.service.cache_capacity = 0;
  return config;
}

TEST(ServerConfig, FromArgsToArgsRoundTrips) {
  const char* argv[] = {
      "tta_verifyd",  // argv[0] is skipped, as in main()
      "--port=0",          "--workers=3",
      "--cache=7",         "--retries=2",
      "--drain-timeout-ms=1234",
      "--tenant=alpha:3:4:500000",
      "--tenant=beta:1:2",
      "--tenant-default=2:8",
  };
  ServerConfig config;
  std::string error;
  ASSERT_TRUE(config.from_args(static_cast<int>(std::size(argv)), argv,
                               &error))
      << error;
  EXPECT_EQ(config.service.workers, 3u);
  EXPECT_EQ(config.service.cache_capacity, 7u);
  EXPECT_EQ(config.service.retry.max_attempts, 3u);  // 1 + 2 retries
  EXPECT_EQ(config.drain_timeout_ms, 1234u);
  ASSERT_EQ(config.tenants.size(), 2u);
  EXPECT_EQ(config.tenants[0].name, "alpha");
  EXPECT_EQ(config.tenants[0].weight, 3u);
  EXPECT_EQ(config.tenants[0].max_in_flight, 4u);
  EXPECT_EQ(config.tenants[0].max_state_budget, 500'000u);
  EXPECT_EQ(config.tenants[1].name, "beta");
  EXPECT_EQ(config.tenants[1].max_state_budget, 0u);
  EXPECT_EQ(config.default_quota.weight, 2u);
  EXPECT_EQ(config.default_quota.max_in_flight, 8u);

  // to_args() must re-parse to the identical configuration.
  const std::vector<std::string> args = config.to_args();
  std::vector<const char*> reparse_argv = {"tta_verifyd"};
  for (const std::string& arg : args) reparse_argv.push_back(arg.c_str());
  ServerConfig reparsed;
  ASSERT_TRUE(reparsed.from_args(static_cast<int>(reparse_argv.size()),
                                 reparse_argv.data(), &error))
      << error;
  EXPECT_EQ(reparsed.to_args(), args);
  EXPECT_EQ(reparsed.service.workers, config.service.workers);
  EXPECT_EQ(reparsed.service.retry.max_attempts,
            config.service.retry.max_attempts);
  ASSERT_EQ(reparsed.tenants.size(), config.tenants.size());
  EXPECT_EQ(reparsed.tenants[0].max_state_budget,
            config.tenants[0].max_state_budget);
  EXPECT_EQ(reparsed.default_quota.max_in_flight,
            config.default_quota.max_in_flight);
}

TEST(ServerConfig, RejectsUnknownFlagsAndMalformedQuotas) {
  ServerConfig config;
  std::string error;
  const char* unknown[] = {"tta_verifyd", "--verbose"};
  EXPECT_FALSE(config.from_args(2, unknown, &error));
  EXPECT_FALSE(error.empty());

  const char* bad_weight[] = {"tta_verifyd", "--tenant=alpha:0"};
  EXPECT_FALSE(config.from_args(2, bad_weight, &error));

  const char* bad_tail[] = {"tta_verifyd", "--tenant=alpha:1:x"};
  EXPECT_FALSE(config.from_args(2, bad_tail, &error));

  const char* no_name[] = {"tta_verifyd", "--tenant=:1"};
  EXPECT_FALSE(config.from_args(2, no_name, &error));

  const char* negative_quota[] = {"tta_verifyd", "--tenant=alpha:1:-1"};
  EXPECT_FALSE(config.from_args(2, negative_quota, &error));

  // Numeric flags are strict: digits only, no trailing bytes, in range —
  // and the error names the flag. Each of these once parsed silently
  // (1O0 -> 1, abc -> 0 = all cores, -1 -> 4294967295).
  const struct {
    const char* arg;
    const char* flag;
  } bad_numbers[] = {
      {"--cache=1O0", "--cache"},
      {"--cache=", "--cache"},
      {"--cache=99999999999999999999", "--cache"},
      {"--workers=abc", "--workers"},
      {"--workers=+3", "--workers"},
      {"--workers= 3", "--workers"},
      {"--workers=4294967296", "--workers"},
      {"--retries=2x", "--retries"},
      {"--retries=4294967295", "--retries"},
      {"--drain-timeout-ms=-1", "--drain-timeout-ms"},
      {"--drain-timeout-ms=4294967296", "--drain-timeout-ms"},
      {"--port=65536", "--port"},
      {"--port=80a", "--port"},
  };
  for (const auto& bad : bad_numbers) {
    ServerConfig fresh;
    const char* argv[] = {"tta_verifyd", bad.arg};
    error.clear();
    EXPECT_FALSE(fresh.from_args(2, argv, &error)) << bad.arg;
    EXPECT_NE(error.find(bad.flag), std::string::npos)
        << bad.arg << " -> " << error;
  }

  // The largest in-range values still parse.
  const char* edges[] = {"tta_verifyd", "--port=65535",
                         "--drain-timeout-ms=4294967295",
                         "--retries=4294967294", "--workers=0"};
  ServerConfig edge;
  ASSERT_TRUE(edge.from_args(static_cast<int>(std::size(edges)), edges,
                             &error))
      << error;
  EXPECT_EQ(edge.port, 65535u);
  EXPECT_EQ(edge.drain_timeout_ms, 4294967295u);
  EXPECT_EQ(edge.service.retry.max_attempts, 4294967295u);
  EXPECT_EQ(edge.service.workers, 0u);
}

TEST(Server, ServesAWireRoundTripInProcess) {
  ServerRunner runner(quiet_config());
  ASSERT_TRUE(runner.started());

  const std::string request = decorate_request_line(
      R"({"authority": "passive", "property": "safety"})", 0, "rt-1");
  std::string response;
  ASSERT_TRUE(exchange(runner.server().port(), request, &response));
  EXPECT_NE(response.find("\"id\":\"rt-1\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"verdict\":\"HOLDS\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"rejected\":0"), std::string::npos) << response;
  EXPECT_EQ(runner.server().metrics().net_connections.load(), 1u);
  EXPECT_EQ(runner.server().metrics().net_malformed.load(), 0u);
}

// The state-budget quota is checked against the request's declared bound
// (max_states), so rejection is deterministic — no race against how fast
// the worker drains the queue, unlike the in-flight count.
TEST(Server, StateBudgetCeilingRejectsDeterministically) {
  ServerConfig config = quiet_config();
  config.tenants.push_back(TenantQuota{"capped", 1, 0, /*budget=*/1'000'000});
  ServerRunner runner(config);
  ASSERT_TRUE(runner.started());
  const std::uint16_t port = runner.server().port();

  // Default max_states (50M) blows the 1M-state budget: explicit
  // rejection row, not a dropped line and not a served job.
  const std::string over = decorate_request_line(
      R"({"authority": "passive", "property": "safety"})", 0, "big",
      "capped");
  std::string response;
  ASSERT_TRUE(exchange(port, over, &response));
  EXPECT_NE(response.find("\"id\":\"big\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"rejected\":1"), std::string::npos) << response;
  EXPECT_EQ(runner.server().metrics().net_quota_rejected.load(), 1u);

  // A job that declares a bound inside the budget (and generous enough
  // for passive/n4 to close) is served normally — the rejection above
  // must not have leaked any reserved budget.
  const std::string within = decorate_request_line(
      R"({"authority": "passive", "property": "safety", "max_states": 500000})",
      0, "small", "capped");
  ASSERT_TRUE(exchange(port, within, &response));
  EXPECT_NE(response.find("\"id\":\"small\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"verdict\":\"HOLDS\""), std::string::npos)
      << response;
  EXPECT_EQ(runner.server().metrics().net_quota_rejected.load(), 1u);
}

// Injected EMFILE on the first two accept attempts: the connection waits
// in the listen backlog while the listener backs off (muted in the event
// loop), and the third attempt serves it. The client only sees latency.
TEST(Server, AcceptBackoffRetriesAfterInjectedExhaustion) {
  auto& points = util::FailPoints::instance();
  std::string error;
  ASSERT_TRUE(points.arm("sock.accept=error:hits(1,2)", &error)) << error;
  struct Disarm {
    ~Disarm() { util::FailPoints::instance().disarm("sock.accept"); }
  } disarm;  // even a failing assertion must not leak into later tests

  {
    ServerConfig config = quiet_config();
    config.accept_backoff = util::BackoffPolicy{5, 2.0, 50};
    ServerRunner runner(config);
    ASSERT_TRUE(runner.started());

    const std::string request = decorate_request_line(
        R"({"authority": "passive", "property": "safety"})", 0, "patient");
    std::string response;
    ASSERT_TRUE(exchange(runner.server().port(), request, &response));
    EXPECT_NE(response.find("\"id\":\"patient\""), std::string::npos)
        << response;
    EXPECT_NE(response.find("\"verdict\":"), std::string::npos) << response;
    EXPECT_GE(runner.server().metrics().net_accept_errors.load(), 2u);
    EXPECT_EQ(runner.server().metrics().net_connections.load(), 1u);
  }
}

// No tick: a connection waiting on a running job costs the loop a round
// for its request and one for the completion doorbell — not one per 2 ms
// of engine time.
TEST(Server, WaitingOnARunningVerifyCostsAFewLoopWakes) {
  ServerRunner runner(quiet_config());  // cache off: the job really runs
  ASSERT_TRUE(runner.started());
  Metrics& metrics = runner.server().metrics();

  LineConn conn(connect_or_fail(runner.server().port()));
  ASSERT_TRUE(wait_until([&] { return metrics.net_connections.load() == 1; }));
  const std::uint64_t before = metrics.net_loop_wakes.load();

  const std::string request = decorate_request_line(
      R"({"authority": "passive", "property": "safety", "nodes": 4})", 0,
      "n4");
  ASSERT_EQ(conn.write_line(request, 5'000), LineConn::Io::kOk);
  std::string response;
  ASSERT_EQ(conn.read_line(&response, 120'000), LineConn::Io::kOk);
  const std::uint64_t wakes = metrics.net_loop_wakes.load() - before;

  EXPECT_NE(response.find("\"verdict\":\"HOLDS\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"states\":110956"), std::string::npos)
      << response;
  EXPECT_LE(wakes, 5u);
}

// Only connections with news are pumped: 64 idle peers add nothing to the
// cost of a cache hit on a 65th connection.
TEST(Server, CacheHitsPumpOnlyTheirOwnConnection) {
  ServerConfig config = quiet_config();
  config.service.cache_capacity = 16;
  ServerRunner runner(config);
  ASSERT_TRUE(runner.started());
  const std::uint16_t port = runner.server().port();
  Metrics& metrics = runner.server().metrics();

  const std::string request = decorate_request_line(
      R"({"authority": "small_shifting", "property": "safety", "nodes": 3})",
      0, "hit");
  std::string response;
  ASSERT_TRUE(exchange(port, request, &response));  // warm the cache
  ASSERT_NE(response.find("\"verdict\":\"HOLDS\""), std::string::npos)
      << response;

  std::vector<Socket> idle;
  for (int i = 0; i < 64; ++i) idle.push_back(connect_or_fail(port));
  LineConn conn(connect_or_fail(port));
  ASSERT_TRUE(
      wait_until([&] { return metrics.net_connections.load() == 66; }));

  constexpr int kHits = 200;
  const std::uint64_t before = metrics.net_pumps.load();
  for (int i = 0; i < kHits; ++i) {
    ASSERT_EQ(conn.write_line(request, 5'000), LineConn::Io::kOk);
    ASSERT_EQ(conn.read_line(&response, 60'000), LineConn::Io::kOk);
    ASSERT_NE(response.find("\"from_cache\":1"), std::string::npos)
        << response;
  }
  const std::uint64_t pumps = metrics.net_pumps.load() - before;
  EXPECT_LE(pumps, 3u * kHits);
}

// Clients that stop reading share one drain deadline at shutdown instead
// of each holding it for its own drain_timeout_ms.
TEST(Server, ShutdownFlushSharesOneDrainDeadline) {
  ServerConfig config = quiet_config();
  config.drain_timeout_ms = 300;
  ServerRunner runner(config);
  ASSERT_TRUE(runner.started());
  Metrics& metrics = runner.server().metrics();

  // Each malformed line is answered by an error row echoing its 64 KiB
  // key; 128 of them (8 MiB) overrun the server's send buffer plus the
  // client's pinned 4 KiB receive buffer, so the rows stay queued.
  const std::string line = "{\"" + std::string(64 * 1024, 'k') + "\"";
  constexpr int kLines = 128;
  std::vector<LineConn> stalled;
  for (int client = 0; client < 2; ++client) {
    Socket sock = connect_or_fail(runner.server().port());
    const int rcvbuf = 4096;
    ASSERT_EQ(setsockopt(sock.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof rcvbuf),
              0);
    stalled.emplace_back(std::move(sock));
    for (int i = 0; i < kLines; ++i) {
      ASSERT_EQ(stalled.back().write_line(line, 30'000), LineConn::Io::kOk);
    }
  }
  ASSERT_TRUE(wait_until(
      [&] { return metrics.net_malformed.load() == 2u * kLines; }));

  const auto took = runner.stop();
  EXPECT_GE(took, std::chrono::milliseconds(250));  // the rows were stuck
  EXPECT_LT(took, std::chrono::milliseconds(450));
}

}  // namespace
}  // namespace tta::svc
