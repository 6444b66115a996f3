// The verification server as a first-class library object: one poll(2)
// event loop (util::EventLoop) serving every connection from a single
// thread, multiplexing all clients onto one svc::AsyncService — its
// fixed-size worker pool, shared job queue, result caches, and metrics.
// tools/tta_verifyd.cpp is a thin main() over this class; the smokes and
// the chaos harness build their server argv through the same
// ServerConfig, so test configs cannot drift from the binary's flags.
//
// Concurrency model (the api_redesign away from thread-per-connection):
// accepting, request parsing, quota admission, and response writing all
// happen on the run() thread; only checker/campaign work happens on the
// AsyncService workers. A slow or idle client costs one fd and its
// buffers — not a thread — so the server comfortably holds 1024+
// concurrent connections (the CI soak step drives 10k through it).
//
// No polling tick. Each connection's Session gets a notifier that the
// workers call after every result and every campaign batch; it appends the
// connection to a mutex-guarded ready-set and rings the loop's doorbell
// (util::EventLoop::wake) when the set was empty. run() blocks until a
// socket or the doorbell is ready — indefinitely when idle — and each
// round pumps only the connections that had a socket event or are in the
// ready-set, so an idle server costs no CPU and a busy one no work per
// quiet connection (Metrics::net_loop_wakes / net_pumps count both).
//
// Multi-tenant QoS on top of the event loop:
//   - identity: the wire-level "tenant" request key (svc/wire.h),
//     digest-excluded like "priority" — the same query from any tenant
//     shares one cached result;
//   - quotas: per-tenant max in-flight jobs and an aggregate state-budget
//     ceiling (sum over the tenant's in-flight jobs of max_states for
//     verify jobs, max_trials for campaigns), enforced at admission with
//     explicit rejection rows (Metrics::net_quota_rejected);
//   - fairness: within a priority band, tenant lanes dispatch by deficit
//     round robin proportional to TenantQuota::weight (svc::JobQueue).
//
// Every pre-existing wire contract is preserved: SIGTERM drain-then-
// exit-0 with a final metrics dump, drain-on-disconnect (net_drains),
// malformed-line error rows, campaign progress streaming, and the
// sock.* fail-point sites (docs/SERVICE.md).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "svc/async_service.h"
#include "svc/service_config.h"
#include "util/backoff.h"
#include "util/event_loop.h"
#include "util/socket.h"

namespace tta::svc {

/// One tenant's admission limits and scheduling weight. A zero limit
/// means unlimited; the zero-value quota is the open-door default every
/// pre-tenant client implicitly runs under.
struct TenantQuota {
  std::string name;
  /// Relative share of a priority band under deficit-round-robin dispatch
  /// (>= 1; meaningful only against other tenants in the same band).
  std::uint32_t weight = 1;
  /// Max jobs in flight (submitted, not yet answered); 0 = unlimited.
  std::uint64_t max_in_flight = 0;
  /// Ceiling on the summed requested budget of in-flight jobs —
  /// max_states for verify jobs, max_trials for campaigns; 0 = unlimited.
  std::uint64_t max_state_budget = 0;
};

/// Everything tta_verifyd configures, parseable from its argv and
/// re-emittable as argv (to_args) so harnesses spawn byte-identical
/// configurations.
struct ServerConfig {
  /// TCP port on 127.0.0.1; 0 binds a kernel-assigned ephemeral port.
  std::uint16_t port = 0;
  /// When non-empty, the actually-bound port is written here atomically
  /// (tmp + rename) so scripts can wait for the file.
  std::string port_file;
  /// The wrapped AsyncService's configuration (workers, caches, retries).
  ServiceConfig service;
  /// Per-tenant quota table, keyed by TenantQuota::name.
  std::vector<TenantQuota> tenants;
  /// Template for tenants absent from the table (and for requests with no
  /// "tenant" key, under the name ""). Default: weight 1, no limits.
  TenantQuota default_quota;
  /// Bound on the whole shutdown flush: every connection's remaining rows
  /// go out through the event loop under this one deadline, however many
  /// clients have stopped reading.
  std::uint32_t drain_timeout_ms = 30'000;
  /// Backoff schedule for accept-path exhaustion (EMFILE/ENFILE...): the
  /// listener is muted for delay_ms(streak) plus deterministic jitter,
  /// then retried — the pending connection waits in the listen backlog.
  util::BackoffPolicy accept_backoff{5, 2.0, 500};

  /// Parses tta_verifyd argv (argv[0] skipped): --port=N --port-file=F
  /// --workers=N --cache=N --cache-dir=D --checkpoint-dir=D --retries=N
  /// --drain-timeout-ms=N --tenant=NAME:WEIGHT[:MAX_JOBS[:MAX_BUDGET]]
  /// (repeatable) --tenant-default=WEIGHT[:MAX_JOBS[:MAX_BUDGET]].
  /// Returns false and fills *error on an unknown flag or bad value.
  bool from_args(int argc, const char* const* argv, std::string* error);

  /// The inverse: flags for every field that differs from the defaults,
  /// in a stable order, such that from_args(to_args()) round-trips.
  std::vector<std::string> to_args() const;

  /// The usage text tta_verifyd prints (one definition, next to the
  /// grammar it documents).
  static const char* usage();
};

/// The event-driven server. Lifecycle: construct, start() (bind + listen
/// + port file + banner), run() on the serving thread until
/// request_stop() — typically from a SIGTERM handler — then run()
/// returns after draining every connection.
class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens; writes the port file and prints the listening
  /// banner on success. False + *error on failure.
  bool start(std::string* error);

  /// The actually-bound port (valid after start()).
  std::uint16_t port() const { return bound_port_; }

  /// Serves until request_stop(), then drains: the listener closes, every
  /// connection's session drains (queued jobs become explicit rejection
  /// rows), buffered answers flush to their clients through the same loop
  /// (bounded by one drain_timeout_ms deadline for all of them), and run()
  /// returns. Also returns when start() was never called successfully.
  void run();

  /// Requests the drain-then-return path. Async-signal-safe (one relaxed
  /// atomic store and one eventfd write) — call it from a SIGTERM/SIGINT
  /// handler, on any thread: the doorbell ends an idle loop's wait.
  void request_stop() {
    stop_.store(true, std::memory_order_relaxed);
    loop_.wake();
  }

  AsyncService& service() { return *service_; }
  Metrics& metrics() { return service_->metrics(); }

  /// One "net:tenant:<name>: admitted=N rejected=N in_flight_peak=N" line
  /// per tenant that saw any traffic (the default tenant "" renders as
  /// "default"), appended after Metrics::dump() in the SIGTERM dump.
  /// Tenant gauges are loop-thread state — call only after run() returned
  /// (or before it starts).
  std::string tenant_metrics_dump() const;

  /// Connections served over the server's lifetime — every one was
  /// settled by a drain, on close or at shutdown (the exit banner's
  /// count, matching the historical thread-per-connection tally).
  std::size_t drained_connections() const { return drained_connections_; }

 private:
  /// One job awaiting its result row on some connection.
  struct PendingJob {
    JobSpec spec;
    std::string id;
    JobHandle handle;
    /// Batches already reported in a progress row (campaign jobs only);
    /// a row goes out only when the worker crossed a new boundary.
    std::uint64_t last_batches = 0;
    std::uint32_t tenant = 0;
    std::uint64_t budget = 0;  ///< this job's state-budget contribution
  };

  /// Per-connection state, owned by the loop thread.
  struct Connection {
    explicit Connection(util::LineConn c) : conn(std::move(c)) {}
    util::LineConn conn;
    int fd = -1;  ///< cached: an injected reset closes conn's socket
    std::shared_ptr<Session> session;
    std::chrono::steady_clock::time_point start{};
    std::unordered_map<std::uint64_t, PendingJob> pending;  ///< by sequence
    bool reading = true;   ///< false after half-close / shutdown
    bool broken = false;   ///< read or write side failed
    bool want_write = false;  ///< POLLOUT currently registered
    int lineno = 0;
    std::uint64_t round = 0;  ///< last loop round that pumped it
  };

  /// Live per-tenant admission gauges against one quota, plus lifetime
  /// counters for the per-tenant metrics rows (tenant_metrics_dump).
  struct TenantState {
    TenantQuota quota;
    std::uint64_t in_flight = 0;
    std::uint64_t budget_in_flight = 0;
    std::uint64_t admitted = 0;        ///< requests past the quota gate
    std::uint64_t rejected = 0;        ///< quota rejections (this tenant)
    std::uint64_t in_flight_peak = 0;  ///< high-water mark of in_flight
  };

  double ts_ms(const Connection& c) const;
  std::uint32_t intern_tenant(const std::string& name);
  /// The notifier every connection's Session rings (any thread): adds fd
  /// to the ready-set and wakes the loop on the set's empty edge.
  void mark_ready(int fd);
  /// The EventLoop handler: accept, read, flush; queues the fd for this
  /// round's serve_round().
  void on_event(const util::EventLoop::Event& ev);
  /// Pumps and finish-checks every connection with news this round — a
  /// socket event or a ready-set entry — and nobody else.
  void serve_round();
  /// Unmutes the listener once its accept-backoff window has passed, then
  /// returns the poll timeout: -1 (block until an fd or the doorbell is
  /// ready) unless the listener is still muted, else the window's rest.
  int poll_timeout_ms();
  void accept_ready();
  void enter_accept_backoff(int accept_errno);
  void read_ready(Connection* c);
  void handle_line(Connection* c, const std::string& line);
  void emit(Connection* c, const std::string& row);
  /// Streams progress + concluded-result rows into c's outbound buffer
  /// and flushes what the socket will take; updates POLLOUT interest.
  void pump(Connection* c);
  /// Emits one concluded result (with its final campaign progress row when
  /// owed) and releases the job's quota charge.
  void consume_result(Connection* c, const StreamedResult& item);
  void update_write_interest(Connection* c);
  /// True once c owes nothing more: broken, or done reading with every
  /// answer written (or its drained stream over).
  static bool settled(const Connection& c);
  /// Closes and forgets a finished/broken connection; broken connections
  /// with unanswered jobs hand their session to the drain reaper.
  void finish(Connection* c);
  void release_quota(const PendingJob& job);
  void shutdown_drain(const util::EventLoop::Handler& handler);
  void reaper_loop();

  ServerConfig config_;
  std::unique_ptr<AsyncService> service_;
  util::Socket listener_;
  std::uint16_t bound_port_ = 0;
  util::EventLoop loop_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::vector<int> finished_;  ///< fds to close after dispatch
  std::vector<int> active_;    ///< fds with news this round (loop thread)
  std::uint64_t round_ = 0;

  // The ready-set: fds whose session rang its notifier since the loop last
  // looked. A stale fd (closed, or reused by a newer connection) costs at
  // most one spurious pump.
  std::mutex ready_mu_;
  std::vector<int> ready_;

  // Tenant interning + gauges; loop-thread only.
  std::unordered_map<std::string, std::uint32_t> tenant_ids_;
  std::vector<TenantState> tenants_;

  // Accept backoff (the 50ms-fixed-sleep bugfix): consecutive accept
  // errors mute the listener until a jittered, exponentially growing
  // deadline. ECONNABORTED never backs off — the next client is healthy.
  unsigned accept_error_streak_ = 0;
  bool accept_muted_ = false;
  std::chrono::steady_clock::time_point accept_resume_{};

  // Zombie-session drain reaper: a broken connection with jobs still
  // running cannot drain() on the loop thread (drain blocks until the
  // running job concludes), so its session is drained here instead.
  std::thread reaper_;
  std::mutex reap_mu_;
  std::condition_variable reap_cv_;
  std::deque<std::shared_ptr<Session>> reap_queue_;
  bool reap_stop_ = false;

  std::size_t drained_connections_ = 0;
};

}  // namespace tta::svc
