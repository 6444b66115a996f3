#include "svc/server.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "svc/wire.h"

namespace tta::svc {

namespace {

bool write_port_file(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "%u\n", port);
  std::fclose(f);
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// Parses the WEIGHT[:MAX_JOBS[:MAX_BUDGET]] tail of a --tenant spec into
/// an already-named quota. Empty segments and trailing garbage are errors.
bool parse_quota_tail(const std::string& tail, TenantQuota* quota,
                      std::string* error) {
  std::uint64_t fields[3] = {1, 0, 0};
  std::size_t begin = 0;
  for (int i = 0; i < 3; ++i) {
    const std::size_t end = tail.find(':', begin);
    const std::string part = tail.substr(
        begin, end == std::string::npos ? std::string::npos : end - begin);
    if (!parse_decimal(part.c_str(), UINT64_MAX, &fields[i])) {
      *error = "bad tenant quota field '" + part + "' in '" + tail + "'";
      return false;
    }
    if (end == std::string::npos) break;
    begin = end + 1;
    if (i == 2) {
      *error = "too many ':' fields in tenant quota '" + tail + "'";
      return false;
    }
  }
  if (fields[0] == 0 || fields[0] > 1'000'000) {
    *error = "tenant weight must be in [1, 1000000], got '" + tail + "'";
    return false;
  }
  quota->weight = static_cast<std::uint32_t>(fields[0]);
  quota->max_in_flight = fields[1];
  quota->max_state_budget = fields[2];
  return true;
}

std::string quota_tail(const TenantQuota& q) {
  return std::to_string(q.weight) + ":" + std::to_string(q.max_in_flight) +
         ":" + std::to_string(q.max_state_budget);
}

/// The budget a request charges against its tenant's state-budget ceiling:
/// the work the job *may* do, known at admission time.
std::uint64_t request_budget(const JobSpec& spec) {
  return spec.kind == JobKind::kCampaign ? spec.campaign.max_trials
                                         : spec.max_states;
}

/// Deterministic jitter over a backoff delay: splitmix64-style mix of the
/// error streak, spreading retries across [delay/2, delay] without an RNG
/// (two identical chaos runs back off identically).
std::uint32_t jittered_delay(std::uint32_t delay_ms, unsigned streak) {
  if (delay_ms == 0) return 0;
  std::uint64_t z = static_cast<std::uint64_t>(streak) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const std::uint32_t half = delay_ms / 2;
  return half + static_cast<std::uint32_t>(
                    z % (static_cast<std::uint64_t>(delay_ms - half) + 1));
}

}  // namespace

// ---- ServerConfig ----------------------------------------------------------

bool ServerConfig::from_args(int argc, const char* const* argv,
                             std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    std::uint64_t n = 0;
    const FlagParse shared = parse_service_flag(argv[i], &service, error);
    if (shared == FlagParse::kBad) return false;
    if (shared == FlagParse::kOk) continue;
    if (flag_value(argv[i], "--port", &v)) {
      if (!parse_flag_number("--port", v, UINT16_MAX, &n, error)) {
        return false;
      }
      port = static_cast<std::uint16_t>(n);
    } else if (flag_value(argv[i], "--port-file", &v)) {
      port_file = v;
    } else if (flag_value(argv[i], "--drain-timeout-ms", &v)) {
      if (!parse_flag_number("--drain-timeout-ms", v, UINT32_MAX, &n,
                             error)) {
        return false;
      }
      drain_timeout_ms = static_cast<std::uint32_t>(n);
    } else if (flag_value(argv[i], "--tenant", &v)) {
      const std::string spec = v;
      const std::size_t colon = spec.find(':');
      TenantQuota quota;
      quota.name = spec.substr(0, colon);
      if (quota.name.empty() ||
          quota.name.size() > WireGrammar::kMaxTenantBytes) {
        *error = "bad tenant name in --tenant=" + spec;
        return false;
      }
      if (colon != std::string::npos &&
          !parse_quota_tail(spec.substr(colon + 1), &quota, error)) {
        return false;
      }
      tenants.push_back(std::move(quota));
    } else if (flag_value(argv[i], "--tenant-default", &v)) {
      if (!parse_quota_tail(v, &default_quota, error)) return false;
    } else {
      *error = "unknown flag: " + std::string(argv[i]);
      return false;
    }
  }
  return true;
}

std::vector<std::string> ServerConfig::to_args() const {
  const ServerConfig d;
  std::vector<std::string> out;
  if (port != d.port) out.push_back("--port=" + std::to_string(port));
  if (!port_file.empty()) out.push_back("--port-file=" + port_file);
  if (service.workers != d.service.workers) {
    out.push_back("--workers=" + std::to_string(service.workers));
  }
  if (service.cache_capacity != d.service.cache_capacity) {
    out.push_back("--cache=" + std::to_string(service.cache_capacity));
  }
  if (!service.cache_dir.empty()) {
    out.push_back("--cache-dir=" + service.cache_dir);
  }
  if (!service.checkpoint_dir.empty()) {
    out.push_back("--checkpoint-dir=" + service.checkpoint_dir);
  }
  if (service.retry.max_attempts != d.service.retry.max_attempts) {
    out.push_back("--retries=" +
                  std::to_string(service.retry.max_attempts - 1));
  }
  if (drain_timeout_ms != d.drain_timeout_ms) {
    out.push_back("--drain-timeout-ms=" + std::to_string(drain_timeout_ms));
  }
  if (default_quota.weight != d.default_quota.weight ||
      default_quota.max_in_flight != d.default_quota.max_in_flight ||
      default_quota.max_state_budget != d.default_quota.max_state_budget) {
    out.push_back("--tenant-default=" + quota_tail(default_quota));
  }
  for (const TenantQuota& t : tenants) {
    out.push_back("--tenant=" + t.name + ":" + quota_tail(t));
  }
  return out;
}

const char* ServerConfig::usage() {
  return
      "usage: tta_verifyd [--port=N] [--port-file=FILE] [--workers=N] "
      "[--cache=N]\n"
      "          [--cache-dir=DIR] [--checkpoint-dir=DIR] [--retries=N]\n"
      "          [--drain-timeout-ms=N] "
      "[--tenant=NAME:WEIGHT[:MAX_JOBS[:MAX_BUDGET]]]...\n"
      "          [--tenant-default=WEIGHT[:MAX_JOBS[:MAX_BUDGET]]]\n"
      "Serves the tta_verify_batch --stream protocol on 127.0.0.1 "
      "(docs/SERVICE.md).\n"
      "Tenants: requests carry an optional \"tenant\" tag; --tenant pins a\n"
      "tag's fair-share weight, max in-flight jobs, and aggregate\n"
      "state-budget ceiling (0 = unlimited). Untabled tenants get the\n"
      "--tenant-default quota.\n";
}

// ---- Server ----------------------------------------------------------------

Server::Server(ServerConfig config) : config_(std::move(config)) {
  service_ = std::make_unique<AsyncService>(config_.service);
  // Tenant id 0 is the default tenant (requests with no "tenant" tag).
  TenantState def;
  def.quota = config_.default_quota;
  def.quota.name.clear();
  if (def.quota.weight == 0) def.quota.weight = 1;
  tenant_ids_.emplace(std::string(), 0);
  tenants_.push_back(std::move(def));
  for (const TenantQuota& q : config_.tenants) {
    const std::uint32_t id = intern_tenant(q.name);
    tenants_[id].quota = q;
    if (tenants_[id].quota.weight == 0) tenants_[id].quota.weight = 1;
  }
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lock(reap_mu_);
    reap_stop_ = true;
  }
  reap_cv_.notify_all();
  if (reaper_.joinable()) reaper_.join();
  // Session notifiers lock ready_mu_ and ring loop_ from worker threads
  // (a running campaign's batch callback, say) until the workers join —
  // and members are destroyed in reverse order, loop_ before service_. So
  // retire the sessions and join the workers while both are still alive.
  connections_.clear();
  service_.reset();
}

bool Server::start(std::string* error) {
  if (!loop_.wakeable()) {
    *error = "cannot create the event loop's wake eventfd";
    return false;
  }
  listener_ = util::Socket::listen_on(config_.port, &bound_port_, error);
  if (!listener_.valid()) return false;
  listener_.set_nonblocking(true);
  if (!config_.port_file.empty() &&
      !write_port_file(config_.port_file, bound_port_)) {
    *error = "cannot write " + config_.port_file;
    return false;
  }
  std::printf("tta_verifyd listening on 127.0.0.1:%u\n", bound_port_);
  std::fflush(stdout);
  loop_.watch(listener_.fd(), /*read=*/true, /*write=*/false);
  reaper_ = std::thread([this] { reaper_loop(); });
  started_ = true;
  return true;
}

double Server::ts_ms(const Connection& c) const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - c.start)
      .count();
}

std::uint32_t Server::intern_tenant(const std::string& name) {
  const auto it = tenant_ids_.find(name);
  if (it != tenant_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(tenants_.size());
  tenant_ids_.emplace(name, id);
  TenantState state;
  state.quota = config_.default_quota;
  state.quota.name = name;
  if (state.quota.weight == 0) state.quota.weight = 1;
  tenants_.push_back(std::move(state));
  return id;
}

std::string Server::tenant_metrics_dump() const {
  std::string out;
  char buf[256];
  for (const TenantState& state : tenants_) {
    // Interning alone (a request naming the tenant) counts as traffic;
    // quiet configured tenants stay out of the dump so the line set only
    // grows when behavior did.
    if (state.admitted == 0 && state.rejected == 0) continue;
    const char* name =
        state.quota.name.empty() ? "default" : state.quota.name.c_str();
    std::snprintf(buf, sizeof buf,
                  "net:tenant:%s: admitted=%llu rejected=%llu "
                  "in_flight_peak=%llu\n",
                  name, static_cast<unsigned long long>(state.admitted),
                  static_cast<unsigned long long>(state.rejected),
                  static_cast<unsigned long long>(state.in_flight_peak));
    out += buf;
  }
  return out;
}

void Server::accept_ready() {
  // Bounded accept burst: level-triggered poll re-reports a still-nonempty
  // backlog, so the loop never starves connected clients to accept more.
  for (int i = 0; i < 64; ++i) {
    int accept_errno = 0;
    util::Socket accepted = listener_.try_accept(&accept_errno);
    if (accepted.valid()) {
      accept_error_streak_ = 0;
      metrics().net_connections.fetch_add(1, std::memory_order_relaxed);
      ++drained_connections_;
      accepted.set_nonblocking(true);
      auto c = std::make_unique<Connection>(util::LineConn(std::move(accepted)));
      const int fd = c->conn.fd();
      if (fd < 0) continue;
      c->fd = fd;
      c->session = service_->open_session([this, fd] { mark_ready(fd); });
      c->start = std::chrono::steady_clock::now();
      connections_.emplace(fd, std::move(c));
      loop_.watch(fd, /*read=*/true, /*write=*/false);
      continue;
    }
    if (accept_errno == 0) return;  // backlog empty (EAGAIN)
    // Descriptor exhaustion (EMFILE/ENFILE), a client that gave up before
    // we got to it (ECONNABORTED), or an injected fault: none of these are
    // reasons to stop serving everyone else. Log, count, and for
    // exhaustion mute the listener under a jittered exponential backoff —
    // the pending connection waits in the listen backlog.
    metrics().net_accept_errors.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "tta_verifyd: accept: %s — backing off\n",
                 std::strerror(accept_errno));
    if (accept_errno == ECONNABORTED) continue;
    enter_accept_backoff(accept_errno);
    return;
  }
}

void Server::enter_accept_backoff(int accept_errno) {
  (void)accept_errno;
  ++accept_error_streak_;
  const std::uint32_t delay = jittered_delay(
      config_.accept_backoff.delay_ms(accept_error_streak_),
      accept_error_streak_);
  accept_muted_ = true;
  accept_resume_ = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(delay);
  // Registered-but-dormant: the fd stays known to the loop, but readiness
  // is ignored until the backoff window expires.
  loop_.watch(listener_.fd(), /*read=*/false, /*write=*/false);
}

void Server::emit(Connection* c, const std::string& row) {
  if (c->broken) return;
  c->conn.queue_line(row);
  metrics().net_lines_out.fetch_add(1, std::memory_order_relaxed);
}

void Server::read_ready(Connection* c) {
  using Io = util::LineConn::Io;
  // Bounded fill burst (level-triggered poll re-reports leftover kernel
  // bytes); buffered complete lines are always fully drained, since they
  // live in userspace where poll cannot see them.
  for (int i = 0; i < 64 && !c->broken; ++i) {
    switch (c->conn.fill()) {
      case Io::kOk: {
        std::string line;
        while (c->conn.take_line(&line)) handle_line(c, line);
        continue;
      }
      case Io::kTimeout:
        return;  // EAGAIN or an injected EINTR cycle; poll again
      case Io::kEof: {
        // Half-close: no more requests. Finish answering, then close.
        c->reading = false;
        std::string line;
        while (c->conn.take_line(&line)) handle_line(c, line);
        if (loop_.watching(c->fd)) {
          loop_.watch(c->fd, /*read=*/false, c->want_write);
        }
        return;
      }
      case Io::kError:
        c->broken = true;
        return;
    }
  }
}

void Server::handle_line(Connection* c, const std::string& line) {
  metrics().net_lines_in.fetch_add(1, std::memory_order_relaxed);
  ++c->lineno;
  WireRequest request;
  std::string error;
  if (!parse_request_line(line, &request, &error)) {
    metrics().net_malformed.fetch_add(1, std::memory_order_relaxed);
    emit(c, error_row(error, c->lineno));
    return;
  }

  const std::uint32_t tenant = intern_tenant(request.tenant);
  TenantState& state = tenants_[tenant];
  const std::uint64_t budget = request_budget(request.spec);
  const bool over_jobs = state.quota.max_in_flight != 0 &&
                         state.in_flight >= state.quota.max_in_flight;
  const bool over_budget =
      state.quota.max_state_budget != 0 &&
      state.budget_in_flight + budget > state.quota.max_state_budget;
  if (over_jobs || over_budget) {
    // Quota gate: answered with an explicit rejection row (same shape as
    // an admission rejection, seq 0 — the job never reached the session).
    metrics().net_quota_rejected.fetch_add(1, std::memory_order_relaxed);
    state.rejected += 1;
    JobResult rejected;
    rejected.digest = request.spec.digest();
    rejected.property = request.spec.property;
    rejected.outcome.rejected = true;
    emit(c, result_json(request.spec, rejected, /*pass=*/1, /*seq=*/0,
                        ts_ms(*c), request.id));
    return;
  }

  const JobHandle handle = c->session->submit(
      request.spec,
      SubmitOptions{request.priority, tenant, state.quota.weight});
  if (handle.valid()) {
    state.in_flight += 1;
    state.budget_in_flight += budget;
    state.admitted += 1;
    state.in_flight_peak = std::max(state.in_flight_peak, state.in_flight);
    PendingJob job;
    job.spec = request.spec;
    job.id = std::move(request.id);
    job.handle = handle;
    job.tenant = tenant;
    job.budget = budget;
    c->pending.emplace(handle.sequence, std::move(job));
  } else {
    // Hard rejection (stream saturated): the session could not even buffer
    // a rejection row, so synthesize it here.
    JobResult rejected;
    rejected.digest = handle.digest;
    rejected.property = request.spec.property;
    rejected.outcome.rejected = true;
    emit(c, result_json(request.spec, rejected, /*pass=*/1, /*seq=*/0,
                        ts_ms(*c), request.id));
  }
}

void Server::release_quota(const PendingJob& job) {
  TenantState& state = tenants_[job.tenant];
  if (state.in_flight > 0) state.in_flight -= 1;
  state.budget_in_flight -=
      state.budget_in_flight < job.budget ? state.budget_in_flight
                                          : job.budget;
}

void Server::pump(Connection* c) {
  metrics().net_pumps.fetch_add(1, std::memory_order_relaxed);
  if (c->broken) return;
  // Campaign jobs stream advisory progress rows between responses: one
  // {"progress":1,...} row per newly completed batch, carrying the running
  // Wilson interval (docs/SERVICE.md). Clients that only want final rows
  // filter on the "progress" key — result rows never carry it.
  for (auto& [seq, job] : c->pending) {
    if (job.spec.kind != JobKind::kCampaign) continue;
    const std::optional<JobProgress> p = c->session->progress(job.handle);
    if (!p || !p->has_campaign || p->campaign_batches <= job.last_batches) {
      continue;
    }
    job.last_batches = p->campaign_batches;
    ProgressRow row;
    row.id = job.id;
    row.seq = seq;
    row.ts_ms = ts_ms(*c);
    row.digest = job.handle.digest;
    row.state = to_string(p->state);
    row.trials = p->campaign_trials;
    row.failures = p->campaign_failures;
    row.batches = p->campaign_batches;
    row.p_hat = p->campaign_p_hat;
    row.ci_low = p->campaign_ci_low;
    row.ci_high = p->campaign_ci_high;
    emit(c, progress_row(row));
  }

  while (std::optional<StreamedResult> item = c->session->results().try_next()) {
    consume_result(c, *item);
  }

  if (c->conn.outbound() > 0) {
    switch (c->conn.flush_some()) {
      case util::LineConn::Io::kOk:
      case util::LineConn::Io::kTimeout:
        break;
      case util::LineConn::Io::kEof:  // not produced by flush_some
      case util::LineConn::Io::kError:
        c->broken = true;
        return;
    }
  }
  update_write_interest(c);
}

void Server::consume_result(Connection* c, const StreamedResult& item) {
  const auto it = c->pending.find(item.handle.sequence);
  if (it == c->pending.end()) return;
  PendingJob& job = it->second;
  // A campaign that outran the progress poll still reports its last batch:
  // every campaign answer is preceded by at least one progress row,
  // however fast the job was.
  if (item.result.has_campaign &&
      item.result.campaign.batches > job.last_batches) {
    const CampaignEstimate& est = item.result.campaign;
    ProgressRow row;
    row.id = job.id;
    row.seq = item.handle.sequence;
    row.ts_ms = ts_ms(*c);
    row.digest = job.handle.digest;
    row.state = "done";
    row.trials = est.trials;
    row.failures = est.failures;
    row.batches = est.batches;
    row.p_hat = est.p_hat;
    row.ci_low = est.ci_low;
    row.ci_high = est.ci_high;
    emit(c, progress_row(row));
  }
  emit(c, result_json(job.spec, item.result, /*pass=*/1, item.handle.sequence,
                      ts_ms(*c), job.id));
  release_quota(job);
  c->pending.erase(it);
}

void Server::update_write_interest(Connection* c) {
  const bool want = c->conn.outbound() > 0;
  if (want == c->want_write) return;
  c->want_write = want;
  if (loop_.watching(c->fd)) loop_.watch(c->fd, c->reading, want);
}

bool Server::settled(const Connection& c) {
  if (c.broken) return true;
  if (c.reading || c.conn.outbound() > 0 ||
      c.session->results().buffered() > 0) {
    return false;
  }
  return c.pending.empty() || c.session->results().exhausted();
}

void Server::finish(Connection* c) {
  if (loop_.watching(c->fd)) loop_.unwatch(c->fd);
  if (c->broken && !c->pending.empty()) {
    // Abrupt disconnect with answers still owed: drain and discard.
    // Conclusive verdicts were already cached, so a reconnecting client
    // gets them instantly.
    metrics().net_drains.fetch_add(1, std::memory_order_relaxed);
  }
  const bool instant = c->pending.empty();
  for (auto& [seq, job] : c->pending) release_quota(job);
  c->pending.clear();
  if (c->session) {
    if (instant) {
      // Nothing queued or running: drain() cannot block the loop.
      c->session->drain();
    } else {
      // drain() waits for running jobs to conclude — hand the session to
      // the reaper thread so the loop keeps serving everyone else.
      std::lock_guard<std::mutex> lock(reap_mu_);
      reap_queue_.push_back(std::move(c->session));
      reap_cv_.notify_one();
    }
  }
}

void Server::reaper_loop() {
  for (;;) {
    std::shared_ptr<Session> session;
    {
      std::unique_lock<std::mutex> lock(reap_mu_);
      reap_cv_.wait(lock,
                    [this] { return reap_stop_ || !reap_queue_.empty(); });
      if (reap_queue_.empty()) {
        if (reap_stop_) return;
        continue;
      }
      session = std::move(reap_queue_.front());
      reap_queue_.pop_front();
    }
    session->drain();
  }
}

void Server::mark_ready(int fd) {
  bool ring = false;
  {
    std::lock_guard<std::mutex> lock(ready_mu_);
    ring = ready_.empty();
    // Back-to-back rings from one session (a campaign's batches between
    // two rounds) collapse here; serve_round's round stamp dedups the rest.
    if (ring || ready_.back() != fd) ready_.push_back(fd);
  }
  // Only the empty edge rings: a non-empty set already has a ring on its
  // way (its first entry's), and the loop takes the whole set after it.
  if (ring) loop_.wake();
}

void Server::on_event(const util::EventLoop::Event& ev) {
  if (ev.fd == listener_.fd()) {
    if (ev.readable && !accept_muted_) accept_ready();
    return;
  }
  const auto it = connections_.find(ev.fd);
  if (it == connections_.end()) return;
  Connection* c = it->second.get();
  // ev.broken arrives with readable set, so a hung-up peer surfaces
  // through fill() as kEof/kError even when reads were paused.
  if ((ev.readable && c->reading) || ev.broken) read_ready(c);
  if (ev.writable && !c->broken && c->conn.outbound() > 0) {
    if (c->conn.flush_some() == util::LineConn::Io::kError) {
      c->broken = true;
    }
  }
  active_.push_back(ev.fd);
}

void Server::serve_round() {
  ++round_;
  {
    std::lock_guard<std::mutex> lock(ready_mu_);
    active_.insert(active_.end(), ready_.begin(), ready_.end());
    ready_.clear();
  }
  finished_.clear();
  for (const int fd : active_) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) continue;  // closed since it rang
    Connection* c = it->second.get();
    if (c->round == round_) continue;  // already served this round
    c->round = round_;
    pump(c);
    if (settled(*c)) finished_.push_back(fd);
  }
  active_.clear();
  for (const int fd : finished_) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    finish(it->second.get());
    connections_.erase(it);
  }
}

int Server::poll_timeout_ms() {
  if (!accept_muted_) return -1;
  const auto now = std::chrono::steady_clock::now();
  if (now >= accept_resume_) {
    accept_muted_ = false;
    loop_.watch(listener_.fd(), /*read=*/true, /*write=*/false);
    return -1;
  }
  return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              accept_resume_ - now)
                              .count()) +
         1;
}

void Server::run() {
  if (!started_) return;
  const util::EventLoop::Handler handler =
      [this](const util::EventLoop::Event& ev) { on_event(ev); };
  while (!stop_.load(std::memory_order_relaxed)) {
    loop_.poll_once(poll_timeout_ms(), handler);
    metrics().net_loop_wakes.fetch_add(1, std::memory_order_relaxed);
    serve_round();
  }
  shutdown_drain(handler);
}

void Server::shutdown_drain(const util::EventLoop::Handler& handler) {
  // Refuse new clients while existing ones drain.
  if (listener_.valid()) {
    if (loop_.watching(listener_.fd())) loop_.unwatch(listener_.fd());
    listener_.close();
  }
  for (auto& [fd, c] : connections_) {
    c->reading = false;
    if (loop_.watching(fd)) loop_.watch(fd, /*read=*/false, c->want_write);
    // Queued jobs conclude as explicit rejection rows, running jobs finish
    // honestly; the buffered answers still go out to the client below.
    c->session->drain();
    active_.push_back(fd);
  }
  // Flush through the same loop under one deadline for every connection:
  // clients that stopped reading share it instead of each adding their own.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.drain_timeout_ms);
  for (;;) {
    serve_round();
    if (connections_.empty()) break;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) break;
    loop_.poll_once(static_cast<int>(std::min<long long>(left, INT32_MAX)),
                    handler);
    metrics().net_loop_wakes.fetch_add(1, std::memory_order_relaxed);
  }
  // Past the deadline: whatever is still unsent is abandoned.
  for (auto& [fd, c] : connections_) {
    for (auto& [seq, job] : c->pending) release_quota(job);
    c->pending.clear();
    if (loop_.watching(fd)) loop_.unwatch(fd);
  }
  connections_.clear();
}

}  // namespace tta::svc
