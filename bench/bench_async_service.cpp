// Async session plumbing overhead: what the streaming front end costs.
//
// The session API adds machinery between a caller and the checker — digest
// canonicalization at submit, the cross-session job queue, worker handoff,
// and the bounded result stream. These benches price that plumbing in
// isolation from checker work: the round-trip latency of one tiny job
// through submit -> worker -> stream -> consume, the throughput of a
// cache-served batch (zero engine time, pure streaming), the cost of a
// hard-rejected submission (the admission-bound fast path), and the sync
// shim against manual session use for the same batch.
//
// The serving panel (printed before the microbenchmarks; --json=FILE for
// machine-readable rows) prices the server architectures end to end over
// real sockets: the event-driven svc::Server — one poll(2) thread for all
// connections — against a minimal thread-per-connection server wrapping
// the same AsyncService, on connection churn (accept/close cost) and on
// concurrent wire round trips. Its second half prices the event loop on
// cache hits, where the engine does no work and the serving path is all
// there is: sequential round-trip p50/p99 on one connection, pipelined
// jobs/s, connect-request-close churn, and an idle second with 1,024 open
// connections (loop wakes and loop-thread CPU). The loop's own counters
// (Metrics::net_loop_wakes / net_pumps) ride along as per-hit ratios —
// machine-independent counts the CI serving-panel step gates on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include "bench_json.h"
#include "svc/async_service.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/wire.h"
#include "util/fail_point.h"
#include "util/socket.h"
#include "util/table.h"

namespace {

using namespace tta;

/// Concludes kInconclusive within a few thousand states: the cheapest job
/// that still exercises the full submit -> worker -> stream path. Never
/// cached (only conclusive results are), so every iteration really runs.
svc::JobSpec tiny_job(std::uint64_t salt) {
  svc::JobSpec spec;
  spec.model.authority = guardian::Authority::kPassive;
  spec.model.protocol.num_nodes = 3;
  spec.model.protocol.num_slots = 3;
  spec.property = svc::Property::kNoIntegratedNodeFreezes;
  spec.engine = svc::EngineChoice::kSerial;
  spec.max_states = 50 + salt;  // distinct digests when salted
  return spec;
}

/// Cheap but conclusive: a 3-node small-shifting safety check that HOLDS,
/// so after one warm run every resubmission is a cache hit.
svc::JobSpec cached_job() {
  svc::JobSpec spec;
  spec.model.authority = guardian::Authority::kSmallShifting;
  spec.model.protocol.num_nodes = 3;
  spec.model.protocol.num_slots = 3;
  spec.property = svc::Property::kNoIntegratedNodeFreezes;
  spec.engine = svc::EngineChoice::kSerial;
  return spec;
}

/// The fail-point cost model's acceptance gate (util/fail_point.h):
/// compiled in but unarmed — the production default — an evaluation is one
/// relaxed atomic load, so the serving stack can keep its injection sites
/// at zero measurable cost. Compare against BM_SubmitConsumeRoundTrip:
/// the per-site nanoseconds vanish inside one microsecond-scale job.
void BM_FailPointUnarmed(benchmark::State& state) {
  for (auto _ : state) {
    util::FailDecision d = util::fail_point("bench.noop");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_FailPointUnarmed);

/// Worst production-adjacent case: some OTHER site is armed, so every
/// evaluation takes the slow path (registry mutex + map lookup) and
/// misses. This is what a chaos run costs the sites it is not injecting.
void BM_FailPointArmedOtherSite(benchmark::State& state) {
  std::string error;
  util::FailPoints::instance().arm("bench.other=error:prob(0)", &error);
  for (auto _ : state) {
    util::FailDecision d = util::fail_point("bench.noop");
    benchmark::DoNotOptimize(d);
  }
  util::FailPoints::instance().disarm_all();
}
BENCHMARK(BM_FailPointArmedOtherSite);

void BM_SubmitConsumeRoundTrip(benchmark::State& state) {
  svc::ServiceConfig config;
  config.workers = 1;
  svc::AsyncService service(config);
  std::shared_ptr<svc::Session> session = service.open_session();
  for (auto _ : state) {
    const svc::JobHandle h = session->submit(tiny_job(0));
    benchmark::DoNotOptimize(h);
    auto item = session->results().next();
    benchmark::DoNotOptimize(item);
  }
  session->drain();
}
BENCHMARK(BM_SubmitConsumeRoundTrip)->Unit(benchmark::kMicrosecond);

void BM_CacheServedBatch(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  svc::ServiceConfig config;
  config.workers = 2;
  svc::AsyncService service(config);
  std::shared_ptr<svc::Session> session = service.open_session();
  {  // warm the cache with the one real run
    session->submit(cached_job());
    session->results().next();
  }
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) session->submit(cached_job());
    for (int i = 0; i < batch; ++i) {
      auto item = session->results().next();
      benchmark::DoNotOptimize(item);
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
  session->drain();
}
BENCHMARK(BM_CacheServedBatch)->Arg(16)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_SubmitHardReject(benchmark::State& state) {
  svc::ServiceConfig config;
  config.workers = 1;
  config.max_pending = 1;
  svc::AsyncService service(config);
  std::shared_ptr<svc::Session> session = service.open_session();
  // Saturate: one open job (never consumed) plus one buffered rejection
  // hit the 2x max_pending stream bound, so every further submission takes
  // the hard-reject fast path — digest + bound check, no streaming.
  session->submit(tiny_job(1));
  session->submit(tiny_job(2));
  for (auto _ : state) {
    const svc::JobHandle h = session->submit(tiny_job(3));
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_SubmitHardReject)->Unit(benchmark::kMicrosecond);

// ---- serving panel: event loop vs thread-per-connection ----------------

constexpr int kChurnConnections = 256;
constexpr int kClients = 32;
constexpr int kJobsPerClient = 8;

/// The wire form of tiny_job: inconclusive within 60 states, never
/// cached, so every round trip carries a real submit -> worker -> stream.
std::string tiny_request(int client, int index) {
  char id[32];
  std::snprintf(id, sizeof id, "c%d-%d", client, index);
  return svc::decorate_request_line(
      R"({"authority": "passive", "property": "safety", "max_states": 60})",
      0, id);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Open + immediately close `count` connections; returns seconds.
double churn_connections(std::uint16_t port, int count) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < count; ++i) {
    std::string error;
    util::Socket sock = util::Socket::connect_to("127.0.0.1", port, 5'000,
                                                 &error);
    if (!sock.valid()) {
      std::fprintf(stderr, "churn connect failed: %s\n", error.c_str());
      return -1.0;
    }
  }
  return seconds_since(t0);
}

/// One client: write all requests, half-close, read rows until EOF.
/// Returns the number of response rows (jobs answered).
int drive_client(std::uint16_t port, int client, int jobs) {
  std::string error;
  util::Socket sock = util::Socket::connect_to("127.0.0.1", port, 10'000,
                                               &error);
  if (!sock.valid()) return -1;
  util::LineConn conn(std::move(sock));
  for (int i = 0; i < jobs; ++i) {
    if (conn.write_line(tiny_request(client, i), 10'000) !=
        util::LineConn::Io::kOk) {
      return -1;
    }
  }
  conn.shutdown_write();
  int rows = 0;
  std::string line;
  while (conn.read_line(&line, 60'000) == util::LineConn::Io::kOk) ++rows;
  return rows;
}

/// `kClients` concurrent clients x `kJobsPerClient` jobs; returns seconds,
/// or -1 when any client saw a transport failure or a short answer count.
double drive_clients(std::uint16_t port) {
  std::vector<std::thread> clients;
  std::atomic<int> bad{0};
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([port, c, &bad] {
      if (drive_client(port, c, kJobsPerClient) != kJobsPerClient) ++bad;
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds = seconds_since(t0);
  return bad.load() == 0 ? seconds : -1.0;
}

/// The architecture svc::Server replaced, reduced to its essentials: one
/// blocking acceptor thread, one thread per connection, each wrapping its
/// own Session over a shared AsyncService. Kept here as the bench
/// baseline so the comparison stays honest about what a thread buys and
/// costs relative to the poll(2) loop.
class ThreadPerConnServer {
 public:
  bool start() {
    std::string error;
    listener_ = util::Socket::listen_on(0, &port_, &error);
    if (!listener_.valid()) {
      std::fprintf(stderr, "baseline listen failed: %s\n", error.c_str());
      return false;
    }
    svc::ServiceConfig config;
    config.workers = 2;
    config.cache_capacity = 0;
    service_ = std::make_unique<svc::AsyncService>(config);
    acceptor_ = std::thread([this] { accept_loop(); });
    return true;
  }

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (acceptor_.joinable()) acceptor_.join();
    for (std::thread& t : handlers_) t.join();
    handlers_.clear();
  }

  std::uint16_t port() const { return port_; }

 private:
  void accept_loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      util::Socket conn = listener_.accept_for(50);
      if (!conn.valid()) continue;
      handlers_.emplace_back(
          [this, sock = std::move(conn)]() mutable {
            serve(std::move(sock));
          });
    }
  }

  void serve(util::Socket sock) {
    util::LineConn conn(std::move(sock));
    std::shared_ptr<svc::Session> session = service_->open_session();
    struct Pending {
      svc::JobSpec spec;
      std::string id;
    };
    std::vector<Pending> pending;
    std::string line;
    bool reading = true;
    while (reading) {
      switch (conn.read_line(&line, 60'000)) {
        case util::LineConn::Io::kOk: {
          svc::WireRequest request;
          std::string error;
          if (!svc::parse_request_line(line, &request, &error)) continue;
          session->submit(request.spec,
                          svc::SubmitOptions{request.priority, 0, 1});
          pending.push_back({request.spec, request.id});
          break;
        }
        default:
          reading = false;
          break;
      }
    }
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      auto item = session->results().next();
      if (!item) break;
      conn.write_line(svc::result_json(pending[i].spec, item->result, 1,
                                       ++seq, 0.0, pending[i].id),
                      10'000);
    }
    session->drain();
  }

  util::Socket listener_;
  std::uint16_t port_ = 0;
  std::unique_ptr<svc::AsyncService> service_;
  std::thread acceptor_;
  std::vector<std::thread> handlers_;
  std::atomic<bool> stop_{false};
};

void print_serving_panel(bench::JsonWriter& json) {
  std::printf("serving panel: event-driven svc::Server (one poll thread) "
              "vs thread-per-connection,\nsame AsyncService behind both "
              "(2 workers, cache off); %d churned connections, %d clients "
              "x %d jobs\n\n",
              kChurnConnections, kClients, kJobsPerClient);

  struct Figures {
    double churn_seconds = -1.0;
    double roundtrip_seconds = -1.0;
  };
  Figures event_loop;
  Figures threaded;

  {
    svc::ServerConfig config;
    config.port = 0;
    config.service.workers = 2;
    config.service.cache_capacity = 0;
    svc::Server server(std::move(config));
    std::string error;
    if (!server.start(&error)) {
      std::fprintf(stderr, "event-loop server failed to start: %s\n",
                   error.c_str());
      return;
    }
    std::thread runner([&server] { server.run(); });
    event_loop.churn_seconds =
        churn_connections(server.port(), kChurnConnections);
    event_loop.roundtrip_seconds = drive_clients(server.port());
    server.request_stop();
    runner.join();
  }

  {
    ThreadPerConnServer server;
    if (!server.start()) return;
    threaded.churn_seconds =
        churn_connections(server.port(), kChurnConnections);
    threaded.roundtrip_seconds = drive_clients(server.port());
    server.stop();
  }

  const double jobs = static_cast<double>(kClients) * kJobsPerClient;
  util::Table table({"server", "churn (conns/s)", "round trips (jobs/s)",
                     "wall (s)"});
  const struct {
    const char* name;
    const Figures& figures;
  } rows[] = {{"event_loop", event_loop},
              {"thread_per_conn", threaded}};
  for (const auto& row : rows) {
    table.add_row(
        {row.name,
         util::Table::num(kChurnConnections / row.figures.churn_seconds, 0),
         util::Table::num(jobs / row.figures.roundtrip_seconds, 0),
         util::Table::num(row.figures.roundtrip_seconds, 3)});
    json.begin_entry(std::string("serving/") + row.name);
    json.field("churn_connections", std::uint64_t{kChurnConnections});
    json.field("churn_seconds", row.figures.churn_seconds);
    json.field("churn_conns_per_sec",
               kChurnConnections / row.figures.churn_seconds);
    json.field("clients", std::uint64_t{kClients});
    json.field("jobs_per_client", std::uint64_t{kJobsPerClient});
    json.field("roundtrip_seconds", row.figures.roundtrip_seconds);
    json.field("jobs_per_sec", jobs / row.figures.roundtrip_seconds);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("churn prices accept + teardown (the baseline pays a thread "
              "spawn per connection); round trips are checker-bound for "
              "both, so the jobs/s gap stays small — the event loop's win "
              "is holding thousands of idle connections without threads "
              "(the CI soak drives 10k).\n\n");
}

// ---- serving panel, part 2: the event loop on cache hits ---------------

constexpr int kRoundTripHits = 2'000;
constexpr int kPipelinedHits = 2'048;  // under the session's max_pending
constexpr int kChurnHits = 512;
constexpr int kIdleConnections = 1'024;

/// A cheap conclusive query (3-node small-shifting safety, HOLDS): one
/// real run, then every request is a cache hit.
std::string hit_request() {
  return svc::decorate_request_line(
      R"({"authority": "small_shifting", "property": "safety", "nodes": 3})",
      0, "hit");
}

/// CPU time consumed so far by `thread` (its per-thread clock).
double thread_cpu_seconds(std::thread& thread) {
  clockid_t clock{};
  timespec ts{};
  if (pthread_getcpuclockid(thread.native_handle(), &clock) != 0 ||
      clock_gettime(clock, &ts) != 0) {
    return -1.0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The 1,024 idle connections need ~2,100 fds in this one process (both
/// ends of every connection).
void raise_fd_limit() {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    setrlimit(RLIMIT_NOFILE, &lim);
  }
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return -1.0;
  std::sort(samples.begin(), samples.end());
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(index, samples.size() - 1)];
}

void print_cache_hit_panel(bench::JsonWriter& json) {
  raise_fd_limit();
  svc::ServerConfig config;
  config.port = 0;
  config.service.workers = 2;
  svc::Server server(std::move(config));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "event-loop server failed to start: %s\n",
                 error.c_str());
    return;
  }
  std::thread runner([&server] { server.run(); });
  const std::uint16_t port = server.port();
  svc::Metrics& metrics = server.metrics();
  auto connect = [port] {
    std::string err;
    return util::Socket::connect_to("127.0.0.1", port, 5'000, &err);
  };
  const std::string request = hit_request();
  std::string row;
  bool ok = true;

  {  // warm the cache with the one real run
    util::LineConn conn(connect());
    ok = conn.write_line(request, 5'000) == util::LineConn::Io::kOk &&
         conn.read_line(&row, 60'000) == util::LineConn::Io::kOk;
  }

  // Sequential round trips on one connection: the latency a client sees
  // for an answer the server already has.
  std::vector<double> rtt_us;
  rtt_us.reserve(kRoundTripHits);
  std::uint64_t pumps = 0;
  std::uint64_t wakes = 0;
  {
    util::LineConn conn(connect());
    const std::uint64_t pumps0 = metrics.net_pumps.load();
    const std::uint64_t wakes0 = metrics.net_loop_wakes.load();
    for (int i = 0; ok && i < kRoundTripHits; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      ok = conn.write_line(request, 5'000) == util::LineConn::Io::kOk &&
           conn.read_line(&row, 60'000) == util::LineConn::Io::kOk;
      rtt_us.push_back(seconds_since(t0) * 1e6);
    }
    pumps = metrics.net_pumps.load() - pumps0;
    wakes = metrics.net_loop_wakes.load() - wakes0;
  }

  // Pipelined: every request written before the first answer is read.
  double pipelined_seconds = -1.0;
  {
    util::LineConn conn(connect());
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; ok && i < kPipelinedHits; ++i) {
      ok = conn.write_line(request, 10'000) == util::LineConn::Io::kOk;
    }
    for (int i = 0; ok && i < kPipelinedHits; ++i) {
      ok = conn.read_line(&row, 60'000) == util::LineConn::Io::kOk &&
           row.find("\"from_cache\":1") != std::string::npos;
    }
    pipelined_seconds = seconds_since(t0);
  }

  // Churn: connect, one cache hit, close — a short-lived client's cost.
  double churn_seconds = -1.0;
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; ok && i < kChurnHits; ++i) {
      util::LineConn conn(connect());
      ok = conn.write_line(request, 5'000) == util::LineConn::Io::kOk &&
           conn.read_line(&row, 60'000) == util::LineConn::Io::kOk;
    }
    churn_seconds = seconds_since(t0);
  }

  // Idle: 1,024 open connections and nothing to do for one second.
  std::uint64_t idle_wakes = 0;
  std::uint64_t idle_pumps = 0;
  double idle_cpu_ms = -1.0;
  {
    std::vector<util::Socket> idle;
    const std::uint64_t accepted = metrics.net_connections.load();
    for (int i = 0; ok && i < kIdleConnections; ++i) {
      idle.push_back(connect());
      ok = idle.back().valid();
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (ok && metrics.net_connections.load() < accepted + kIdleConnections) {
      ok = std::chrono::steady_clock::now() < deadline;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));  // settle
    const std::uint64_t wakes0 = metrics.net_loop_wakes.load();
    const std::uint64_t pumps0 = metrics.net_pumps.load();
    const double cpu0 = thread_cpu_seconds(runner);
    std::this_thread::sleep_for(std::chrono::seconds(1));
    idle_cpu_ms = (thread_cpu_seconds(runner) - cpu0) * 1e3;
    idle_wakes = metrics.net_loop_wakes.load() - wakes0;
    idle_pumps = metrics.net_pumps.load() - pumps0;
  }

  server.request_stop();
  runner.join();
  if (!ok) {
    std::fprintf(stderr, "cache-hit panel: a client failed; no figures\n");
    return;
  }

  const double p50 = quantile(rtt_us, 0.50);
  const double p99 = quantile(rtt_us, 0.99);
  const double pumps_per_hit = static_cast<double>(pumps) / kRoundTripHits;
  const double wakes_per_hit = static_cast<double>(wakes) / kRoundTripHits;
  const double pipelined_rate = kPipelinedHits / pipelined_seconds;
  const double churn_rate = kChurnHits / churn_seconds;

  std::printf("serving panel, cache hits: svc::Server (2 workers), %d "
              "sequential round trips, %d pipelined, %d connect-hit-close "
              "churns, %d idle connections for 1 s\n\n",
              kRoundTripHits, kPipelinedHits, kChurnHits, kIdleConnections);
  util::Table table({"measure", "value"});
  table.add_row({"round trip p50 (us)", util::Table::num(p50, 1)});
  table.add_row({"round trip p99 (us)", util::Table::num(p99, 1)});
  table.add_row({"pumps per hit", util::Table::num(pumps_per_hit, 2)});
  table.add_row({"loop wakes per hit", util::Table::num(wakes_per_hit, 2)});
  table.add_row({"pipelined (jobs/s)", util::Table::num(pipelined_rate, 0)});
  table.add_row({"churn (conns/s)", util::Table::num(churn_rate, 0)});
  table.add_row({"idle loop wakes / 1 s",
                 util::Table::num(static_cast<double>(idle_wakes), 0)});
  table.add_row({"idle loop CPU (ms / 1 s)", util::Table::num(idle_cpu_ms, 2)});
  std::printf("%s\n", table.render().c_str());

  json.begin_entry("serving/host");
  json.field("cpus", std::uint64_t{std::thread::hardware_concurrency()});
  json.field("cpu_model", cpu_model());
  json.begin_entry("serving/hit_roundtrip");
  json.field("hits", std::uint64_t{kRoundTripHits});
  json.field("p50_us", p50);
  json.field("p99_us", p99);
  json.field("pumps", pumps);
  json.field("loop_wakes", wakes);
  json.field("pumps_per_hit", pumps_per_hit);
  json.field("loop_wakes_per_hit", wakes_per_hit);
  json.begin_entry("serving/pipelined");
  json.field("jobs", std::uint64_t{kPipelinedHits});
  json.field("seconds", pipelined_seconds);
  json.field("jobs_per_sec", pipelined_rate);
  json.begin_entry("serving/churn_hit");
  json.field("connections", std::uint64_t{kChurnHits});
  json.field("seconds", churn_seconds);
  json.field("conns_per_sec", churn_rate);
  json.begin_entry("serving/idle");
  json.field("connections", std::uint64_t{kIdleConnections});
  json.field("seconds", 1.0);
  json.field("loop_wakes", idle_wakes);
  json.field("pumps", idle_pumps);
  json.field("loop_cpu_ms", idle_cpu_ms);
}

void BM_SyncShimBatch(benchmark::State& state) {
  svc::VerificationService service;
  service.run(cached_job());  // warm
  const std::vector<svc::JobSpec> jobs(16, cached_job());
  for (auto _ : state) {
    auto results = service.run_batch(jobs);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SyncShimBatch)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = tta::bench::take_json_flag(&argc, argv);
  tta::bench::JsonWriter json;
  print_serving_panel(json);
  print_cache_hit_panel(json);
  if (!json_path.empty()) json.write(json_path, "bench_async_service");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
