// Socket-level integration smoke for tta_verifyd (registered as the
// ctest `tools.verifyd_smoke`, label `async` so the TSan job runs it).
//
//   verifyd_smoke VERIFYD CLIENT BATCH JOBS
//
// Phases, against one server started on an ephemeral port with one worker
// and the in-memory cache disabled (so every job really executes and the
// dispatch order is observable). The server argv is built through
// svc::ServerConfig::to_args — the same struct the binary parses — so the
// smoke cannot drift from the server's real flag grammar:
//
//   1. reference — run `BATCH JOBS --stream` and collect the E1 grid's
//      (digest, verdict) multiset from its JSON lines;
//   2. concurrency + priority — a bulk client replays the grid at priority
//      0; once its first answer lands, an urgent client replays the same
//      grid at priority 10 on a second connection. The urgent client must
//      (a) return the identical verdict multiset and (b) finish strictly
//      before the bulk client does — high-priority jobs overtake the
//      ~19 still-queued bulk jobs on the shared one-worker queue;
//   3. weighted-fair tenants — three equal-weight tenants replay the grid
//      concurrently at equal priority; deficit-round-robin dispatch must
//      interleave their lanes, so all three finish within a bounded
//      spread of each other (no tenant is starved behind another's whole
//      batch) and each returns the reference multiset;
//   4. tenant quota — the server pins tenant "greedy" to 2 in-flight
//      jobs. A greedy client bursts the whole grid and must get explicit
//      rejection rows for nearly all of it (exit 1), while a concurrent
//      default-tenant peer replays the grid unaffected (exit 0, reference
//      multiset);
//   5. malformed + disconnect — a raw connection sends garbage (expects an
//      {"error":...} line back), submits real jobs, reads one answer, and
//      disconnects abruptly mid-stream; the server must drain, not wedge;
//   6. clean shutdown — SIGTERM must exit 0 after flushing, and the final
//      metrics dump must report the connections, the malformed line, the
//      mid-stream drain, the quota rejections, and the per-tenant rows.
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "svc/server.h"
#include "util/socket.h"

namespace {

using Clock = std::chrono::steady_clock;
using tta::util::LineConn;
using tta::util::Socket;

int g_failures = 0;

#define CHECK(cond, ...)                                          \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "FAIL %s:%d: ", __FILE__, __LINE__);   \
      std::fprintf(stderr, __VA_ARGS__);                          \
      std::fprintf(stderr, "\n");                                 \
      ++g_failures;                                               \
    }                                                             \
  } while (0)

std::string shell_quote(const std::string& s) { return "'" + s + "'"; }

/// Runs a command line via popen, recording each stdout line with its
/// arrival time. Returns the exit status (-1 on popen failure).
struct RunResult {
  int status = -1;
  std::vector<std::pair<std::string, Clock::time_point>> lines;
};

RunResult run_streaming(const std::string& cmd,
                        std::atomic<bool>* first_line_seen = nullptr) {
  RunResult result;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return result;
  char buf[1 << 16];
  while (std::fgets(buf, sizeof buf, pipe)) {
    std::string line(buf);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    result.lines.emplace_back(std::move(line), Clock::now());
    if (first_line_seen) first_line_seen->store(true);
  }
  result.status = pclose(pipe);
  return result;
}

/// Extracts "key":"value" from a JSON line (the smoke only needs string
/// fields with known keys).
std::string json_str_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  const std::size_t end = line.find('"', start);
  if (end == std::string::npos) return "";
  return line.substr(start, end - start);
}

/// (digest, verdict) multiset from --stream / wire response lines.
std::map<std::pair<std::string, std::string>, int> verdict_multiset(
    const std::vector<std::pair<std::string, Clock::time_point>>& lines) {
  std::map<std::pair<std::string, std::string>, int> out;
  for (const auto& [line, when] : lines) {
    (void)when;
    const std::string digest = json_str_field(line, "digest");
    const std::string verdict = json_str_field(line, "verdict");
    if (!digest.empty() && !verdict.empty()) ++out[{digest, verdict}];
  }
  return out;
}

bool wait_for_file(const std::string& path, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    std::ifstream f(path);
    std::string content;
    if (f && std::getline(f, content) && !content.empty()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 5) {
    std::fprintf(stderr, "usage: %s VERIFYD CLIENT BATCH JOBS\n", argv[0]);
    return 2;
  }
  const std::string verifyd = argv[1];
  const std::string client = argv[2];
  const std::string batch = argv[3];
  const std::string jobs = argv[4];

  char dir_template[] = "/tmp/verifyd_smoke.XXXXXX";
  const char* dir = mkdtemp(dir_template);
  if (!dir) {
    std::perror("mkdtemp");
    return 2;
  }
  const std::string port_file = std::string(dir) + "/port.txt";
  const std::string server_log = std::string(dir) + "/server.log";

  // ---- phase 1: the reference multiset from the batch tool ------------
  const RunResult reference = run_streaming(
      shell_quote(batch) + " " + shell_quote(jobs) + " --stream 2>/dev/null");
  CHECK(reference.status == 0, "tta_verify_batch exited %d", reference.status);
  const auto expected = verdict_multiset(reference.lines);
  CHECK(expected.size() >= 10, "reference grid too small: %zu distinct rows",
        expected.size());
  std::size_t expected_total = 0;
  for (const auto& [key, n] : expected) expected_total += std::size_t(n);
  std::fprintf(stderr, "reference: %zu verdicts, %zu distinct\n",
               expected_total, expected.size());

  // ---- start the server ----------------------------------------------
  // The argv comes from ServerConfig::to_args: one worker, cache off, and
  // tenant "greedy" capped at 2 in-flight jobs for the quota phase.
  tta::svc::ServerConfig server_config;
  server_config.port = 0;
  server_config.port_file = port_file;
  server_config.service.workers = 1;
  server_config.service.cache_capacity = 0;
  {
    tta::svc::TenantQuota greedy;
    greedy.name = "greedy";
    greedy.weight = 1;
    greedy.max_in_flight = 2;
    server_config.tenants.push_back(greedy);
  }
  const std::vector<std::string> server_args = server_config.to_args();

  const pid_t server = fork();
  if (server == 0) {
    std::FILE* log = std::freopen(server_log.c_str(), "w", stdout);
    (void)log;
    std::vector<char*> exec_argv;
    exec_argv.push_back(const_cast<char*>(verifyd.c_str()));
    for (const std::string& arg : server_args) {
      exec_argv.push_back(const_cast<char*>(arg.c_str()));
    }
    exec_argv.push_back(nullptr);
    execv(verifyd.c_str(), exec_argv.data());
    std::perror("execv tta_verifyd");
    _exit(127);
  }
  CHECK(server > 0, "fork failed");
  if (!wait_for_file(port_file, 10'000)) {
    std::fprintf(stderr, "FAIL: server never wrote %s\n", port_file.c_str());
    if (server > 0) kill(server, SIGKILL);
    return 1;
  }
  std::string port;
  {
    std::ifstream f(port_file);
    std::getline(f, port);
  }
  const std::string endpoint = "127.0.0.1:" + port;
  std::fprintf(stderr, "server pid %d on %s\n", server, endpoint.c_str());

  // ---- phase 2: two concurrent connections, different priorities ------
  std::atomic<bool> bulk_started{false};
  RunResult bulk;
  std::thread bulk_thread([&] {
    bulk = run_streaming(shell_quote(client) + " " + endpoint + " " +
                             shell_quote(jobs) +
                             " --priority=0 --id-prefix=bulk 2>/dev/null",
                         &bulk_started);
  });
  while (!bulk_started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The bulk batch is now admitted and at most one job deep into a single
  // worker; everything the urgent client submits must overtake the rest.
  const RunResult urgent = run_streaming(
      shell_quote(client) + " " + endpoint + " " + shell_quote(jobs) +
      " --priority=10 --id-prefix=urgent 2>/dev/null");
  bulk_thread.join();

  CHECK(WIFEXITED(bulk.status) && WEXITSTATUS(bulk.status) == 0,
        "bulk client exited %d", bulk.status);
  CHECK(WIFEXITED(urgent.status) && WEXITSTATUS(urgent.status) == 0,
        "urgent client exited %d", urgent.status);
  CHECK(verdict_multiset(urgent.lines) == expected,
        "urgent client verdict multiset != tta_verify_batch reference");
  CHECK(verdict_multiset(bulk.lines) == expected,
        "bulk client verdict multiset != tta_verify_batch reference");
  for (const auto& [line, when] : urgent.lines) {
    (void)when;
    CHECK(json_str_field(line, "id").rfind("urgent-", 0) == 0,
          "response id not echoed: %s", line.c_str());
  }
  if (!bulk.lines.empty() && !urgent.lines.empty()) {
    const auto urgent_done = urgent.lines.back().second;
    const auto bulk_done = bulk.lines.back().second;
    CHECK(urgent_done < bulk_done,
          "priority inversion: urgent client finished %.0f ms AFTER bulk",
          std::chrono::duration<double, std::milli>(urgent_done - bulk_done)
              .count());
  }

  // ---- phase 3: weighted-fair dispatch across equal tenants -----------
  // Three tenants with the default (equal) weight replay the grid on one
  // worker. Deficit round robin rotates the lanes, so completions
  // interleave and the three clients' LAST answers land close together —
  // a scheduler that served any lane to exhaustion first would push one
  // client's finish toward t=span/3 and another's to t=span.
  {
    const auto fair_start = Clock::now();
    RunResult fair[3];
    std::vector<std::thread> fair_threads;
    for (int i = 0; i < 3; ++i) {
      fair_threads.emplace_back([&, i] {
        const std::string name = "fair" + std::to_string(i);
        fair[i] = run_streaming(shell_quote(client) + " " + endpoint + " " +
                                shell_quote(jobs) + " --tenant=" + name +
                                " --id-prefix=" + name + " 2>/dev/null");
      });
    }
    for (std::thread& t : fair_threads) t.join();

    Clock::time_point first_done = Clock::time_point::max();
    Clock::time_point last_done = Clock::time_point::min();
    for (int i = 0; i < 3; ++i) {
      CHECK(WIFEXITED(fair[i].status) && WEXITSTATUS(fair[i].status) == 0,
            "fair tenant %d exited %d", i, fair[i].status);
      CHECK(verdict_multiset(fair[i].lines) == expected,
            "fair tenant %d verdict multiset != reference", i);
      if (fair[i].lines.empty()) continue;
      const auto done = fair[i].lines.back().second;
      first_done = std::min(first_done, done);
      last_done = std::max(last_done, done);
    }
    const double span_ms =
        std::chrono::duration<double, std::milli>(last_done - fair_start)
            .count();
    const double spread_ms =
        std::chrono::duration<double, std::milli>(last_done - first_done)
            .count();
    std::fprintf(stderr, "fairness: span=%.0f ms, finish spread=%.0f ms\n",
                 span_ms, spread_ms);
    CHECK(span_ms > 0 && spread_ms < 0.5 * span_ms,
          "unfair dispatch: finish spread %.0f ms over a %.0f ms phase",
          spread_ms, span_ms);
  }

  // ---- phase 4: tenant quota gate -------------------------------------
  // "greedy" is capped at 2 in-flight jobs; bursting the whole grid down
  // one connection must come back almost entirely as explicit rejection
  // rows (so the client exits 1), while a concurrent default-tenant peer
  // sails through untouched.
  {
    RunResult peer;
    std::thread peer_thread([&] {
      peer = run_streaming(shell_quote(client) + " " + endpoint + " " +
                           shell_quote(jobs) + " --id-prefix=peer 2>/dev/null");
    });
    const RunResult greedy = run_streaming(
        shell_quote(client) + " " + endpoint + " " + shell_quote(jobs) +
        " --tenant=greedy --id-prefix=greedy 2>/dev/null");
    peer_thread.join();

    CHECK(WIFEXITED(greedy.status) && WEXITSTATUS(greedy.status) == 1,
          "greedy client should exit 1 (quota rejections), got %d",
          greedy.status);
    std::size_t answers = 0;
    std::size_t rejected = 0;
    for (const auto& [line, when] : greedy.lines) {
      (void)when;
      if (line.find("\"progress\":1") != std::string::npos) continue;
      ++answers;
      if (line.find("\"rejected\":1") != std::string::npos) ++rejected;
    }
    // The burst outruns the single worker, so nearly everything bounces
    // off the 2-job cap; completions racing the burst's tail may let a
    // few extra through, but every request line gets exactly one answer.
    CHECK(answers == expected_total,
          "greedy client: %zu answers for %zu requests", answers,
          expected_total);
    CHECK(rejected >= expected_total - 4,
          "greedy client: only %zu/%zu rejection rows — quota gate leaky?",
          rejected, answers);
    CHECK(rejected < answers, "greedy client: everything rejected — the "
                              "2-job allowance never admitted anything");
    std::fprintf(stderr, "quota: greedy %zu/%zu rejected\n", rejected,
                 answers);

    CHECK(WIFEXITED(peer.status) && WEXITSTATUS(peer.status) == 0,
          "peer client (default tenant) exited %d alongside greedy",
          peer.status);
    CHECK(verdict_multiset(peer.lines) == expected,
          "peer client verdict multiset != reference");
  }

  // ---- phase 5: malformed line, then abrupt disconnect mid-stream -----
  {
    std::string error;
    Socket sock = Socket::connect_to(
        "127.0.0.1", static_cast<std::uint16_t>(std::stoi(port)), 5'000,
        &error);
    CHECK(sock.valid(), "raw connect failed: %s", error.c_str());
    // SO_LINGER with zero timeout turns the eventual close() into an RST:
    // the server observes a hard connection error (not an orderly EOF),
    // which is the abrupt-disconnect path this phase is pinning.
    const struct linger abort_on_close = {1, 0};
    setsockopt(sock.fd(), SOL_SOCKET, SO_LINGER, &abort_on_close,
               sizeof abort_on_close);
    LineConn conn(std::move(sock));
    using Io = LineConn::Io;
    CHECK(conn.write_line("this is not json", 5'000) == Io::kOk,
          "garbage write failed");
    std::string line;
    CHECK(conn.read_line(&line, 30'000) == Io::kOk, "no error response");
    CHECK(line.find("\"error\"") != std::string::npos,
          "expected an error line, got: %s", line.c_str());

    // Real work on the same (still healthy) connection, then vanish.
    CHECK(conn.write_line("{\"authority\":\"passive\",\"property\":"
                          "\"safety\",\"id\":\"doomed-0\"}",
                          5'000) == Io::kOk,
          "request write failed");
    CHECK(conn.write_line("{\"authority\":\"time_windows\",\"property\":"
                          "\"safety\",\"id\":\"doomed-1\"}",
                          5'000) == Io::kOk,
          "request write failed");
    CHECK(conn.read_line(&line, 120'000) == Io::kOk,
          "no answer before disconnect");
    CHECK(json_str_field(line, "id").rfind("doomed-", 0) == 0,
          "unexpected first answer: %s", line.c_str());
  }  // destructor closes the socket abruptly: one answer still owed

  // The server must still serve a fresh connection after the drain.
  {
    const RunResult after = run_streaming(
        shell_quote(client) + " " + endpoint + " " + shell_quote(jobs) +
        " --id-prefix=after 2>/dev/null");
    CHECK(WIFEXITED(after.status) && WEXITSTATUS(after.status) == 0,
          "post-drain client exited %d", after.status);
    CHECK(verdict_multiset(after.lines) == expected,
          "post-drain client verdict multiset != reference");
  }

  // ---- phase 6: SIGTERM drains and exits 0 ----------------------------
  kill(server, SIGTERM);
  int status = -1;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  pid_t reaped = 0;
  while (Clock::now() < deadline) {
    reaped = waitpid(server, &status, WNOHANG);
    if (reaped == server) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (reaped != server) {
    std::fprintf(stderr, "FAIL: server ignored SIGTERM; killing\n");
    kill(server, SIGKILL);
    waitpid(server, &status, 0);
    ++g_failures;
  } else {
    CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0,
          "server exit status %d after SIGTERM", status);
  }

  // The final metrics dump accounts for everything this smoke did: bulk,
  // urgent, 3 fairness tenants, greedy + peer, the raw phase-5 socket,
  // and the post-drain client = 9 connections.
  {
    std::ifstream f(server_log);
    std::string log((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
    CHECK(log.find("tta_verifyd listening on 127.0.0.1:") !=
              std::string::npos,
          "startup banner missing from server log");
    CHECK(log.find("net: connections=9 ") != std::string::npos,
          "expected 9 connections in metrics; log tail:\n%.400s",
          log.size() > 400 ? log.c_str() + log.size() - 400 : log.c_str());
    CHECK(log.find("malformed=1 drains=1") != std::string::npos,
          "expected one malformed request and one mid-stream drain");
    CHECK(log.find("quota_rejected=0") == std::string::npos,
          "quota_rejected stayed zero despite the greedy burst");
    // Per-tenant accounting: the greedy burst recorded both admissions
    // (the 2-job allowance) and rejections, and the default tenant served
    // everything else without a single rejection.
    const std::size_t greedy_row = log.find("net:tenant:greedy: admitted=");
    CHECK(greedy_row != std::string::npos,
          "no net:tenant:greedy: row in the final metrics dump");
    if (greedy_row != std::string::npos) {
      const std::string row =
          log.substr(greedy_row, log.find('\n', greedy_row) - greedy_row);
      CHECK(row.find("admitted=0 ") == std::string::npos,
            "greedy tenant admitted nothing: %s", row.c_str());
      CHECK(row.find("rejected=0 ") == std::string::npos,
            "greedy tenant row shows no rejections: %s", row.c_str());
    }
    const std::size_t default_row =
        log.find("net:tenant:default: admitted=");
    CHECK(default_row != std::string::npos,
          "no net:tenant:default: row in the final metrics dump");
    if (default_row != std::string::npos) {
      const std::string row = log.substr(
          default_row, log.find('\n', default_row) - default_row);
      CHECK(row.find("rejected=0 ") != std::string::npos,
            "default tenant saw quota rejections: %s", row.c_str());
    }
  }

  if (g_failures == 0) std::fprintf(stderr, "verifyd_smoke: all phases OK\n");
  return g_failures == 0 ? 0 : 1;
}
