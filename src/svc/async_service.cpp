#include "svc/async_service.h"

#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "mc/checkpoint.h"
#include "svc/engine_factory.h"
#include "util/fail_point.h"

namespace tta::svc {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool conclusive(mc::Verdict verdict) {
  return verdict == mc::Verdict::kHolds || verdict == mc::Verdict::kViolated;
}

/// A cancelled-before-execution conclusion (cancel() on a queued job, or a
/// cancellation that landed between retry attempts).
JobResult cancelled_result(std::uint64_t digest, Property property) {
  JobResult result;
  result.digest = digest;
  result.property = property;
  result.verdict = mc::Verdict::kInconclusive;
  result.stats.exhausted = false;
  result.stats.cancelled = true;
  return result;
}

JobResult rejected_result(std::uint64_t digest, Property property) {
  JobResult result;
  result.digest = digest;
  result.property = property;
  result.outcome.rejected = true;  // verdict stays kInconclusive
  return result;
}

/// Publishes one batch's running estimate on a campaign progress board.
void publish_batch(CampaignProgressBoard& board,
                   const campaign::BatchUpdate& update) {
  const campaign::Estimate& est = update.estimate;
  board.trials.store(est.trials, std::memory_order_relaxed);
  board.failures.store(est.failures, std::memory_order_relaxed);
  board.p_ppm.store(static_cast<std::uint64_t>(est.p_hat * 1e6),
                    std::memory_order_relaxed);
  board.low_ppm.store(static_cast<std::uint64_t>(est.ci_low * 1e6),
                      std::memory_order_relaxed);
  board.high_ppm.store(static_cast<std::uint64_t>(est.ci_high * 1e6),
                       std::memory_order_relaxed);
  // Advisory snapshot: a racing reader may mix two adjacent batches'
  // values, which is fine for a progress row. The final estimate travels
  // in the JobResult, not here.
  board.batches.store(update.batches, std::memory_order_relaxed);
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kRejected:
      return "rejected";
  }
  return "?";
}

// ---------------------------------------------------------------- Session

Session::Session(AsyncService* service, std::uint64_t id,
                 std::size_t max_open, std::function<void()> notify)
    : service_(service),
      id_(id),
      max_open_(max_open),
      notify_(std::move(notify)),
      // Twice the admission bound: up to max_open_ admitted jobs plus up
      // to max_open_ buffered rejection notices can be in flight at once,
      // so a worker's push can never block or fail.
      stream_(2 * max_open_, &open_) {}

Session::~Session() { stream_.close(); }

bool Session::stream_locked(JobHandle handle, JobResult&& result) {
  Metrics& metrics = service_->metrics_;
  switch (stream_.push({handle, std::move(result)})) {
    case util::PushStatus::kOk:
      break;
    case util::PushStatus::kOverflow:
      // Delivered anyway — the stream never drops a concluded verdict for
      // buffer space — but the capacity excursion is worth counting: it
      // means the open-job accounting and the 2x sizing disagreed.
      metrics.stream_overflows.fetch_add(1, std::memory_order_relaxed);
      break;
    case util::PushStatus::kClosed:
      // The only true loss path (a conclusion racing the stream's close);
      // never silent: counted here and reported by drain().
      lost_.fetch_add(1, std::memory_order_relaxed);
      metrics.stream_lost.fetch_add(1, std::memory_order_relaxed);
      return false;
  }
  metrics.results_streamed.fetch_add(1, std::memory_order_relaxed);
  return true;
}

JobHandle Session::submit(const JobSpec& spec, const SubmitOptions& options) {
  const std::uint64_t digest = spec.digest();
  Metrics& metrics = service_->metrics_;

  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t seq = next_sequence_++;
  JobHandle handle{digest, seq};

  const std::uint64_t open = open_.load(std::memory_order_relaxed);
  bool admitted = false;
  if (!draining_ && open < max_open_) {
    const JobQueue::Ticket ticket = service_->queue_.admit(
        spec, id_, seq, options.priority, options.tenant, options.weight);
    admitted = ticket.admitted;
  }

  if (admitted) {
    JobRecord record;
    record.spec = spec;
    record.digest = digest;
    record.state = JobState::kQueued;
    if (spec.kind == JobKind::kCampaign) {
      record.board = std::make_shared<CampaignProgressBoard>();
    }
    jobs_.emplace(seq, std::move(record));
    open_.fetch_add(1, std::memory_order_relaxed);
    metrics.jobs_admitted.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    // Empty critical section before notify: the queue push above is under
    // the queue's own mutex, so pairing the notify with the workers' wait
    // mutex closes the lost-wakeup window.
    { std::lock_guard<std::mutex> wake(service_->mu_); }
    service_->work_cv_.notify_one();
    return handle;
  }

  // Explicit rejection: stream it (so the caller sees it in order, digest
  // included) while there is room; past 2x max_pending open items even the
  // rejection notice cannot be buffered, so the handle alone reports it.
  // A draining session's stream is (or is about to be) closed, so it can
  // only hard-reject.
  metrics.jobs_rejected.fetch_add(1, std::memory_order_relaxed);
  if (!draining_ && open < 2 * max_open_) {
    JobRecord record;
    record.spec = spec;
    record.digest = digest;
    record.state = JobState::kRejected;
    jobs_.emplace(seq, std::move(record));
    open_.fetch_add(1, std::memory_order_relaxed);
    const bool delivered =
        stream_locked(handle, rejected_result(digest, spec.property));
    lock.unlock();
    if (delivered) notify();
  } else {
    handle.sequence = 0;
  }
  return handle;
}

bool Session::cancel(const JobHandle& handle) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(handle.sequence);
  if (it == jobs_.end()) return false;
  Session::JobRecord& record = it->second;
  switch (record.state) {
    case JobState::kQueued: {
      // Conclude immediately; the worker that eventually pops the queue
      // entry sees the state change and skips it.
      record.state = JobState::kCancelled;
      record.cancel_requested = true;
      const bool delivered = stream_locked(
          JobHandle{record.digest, it->first},
          cancelled_result(record.digest, record.spec.property));
      service_->metrics_.jobs_cancelled.fetch_add(1,
                                                  std::memory_order_relaxed);
      lock.unlock();
      if (delivered) notify();
      return true;
    }
    case JobState::kRunning:
      record.cancel_requested = true;
      if (record.active_token) record.active_token->request_cancel();
      return true;
    case JobState::kDone:
    case JobState::kCancelled:
    case JobState::kRejected:
      return false;
  }
  return false;
}

std::optional<JobProgress> Session::progress(const JobHandle& handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(handle.sequence);
  if (it == jobs_.end()) return std::nullopt;
  const JobRecord& record = it->second;
  JobProgress progress;
  progress.state = record.state;
  progress.attempt = record.attempt;
  if (record.board) {
    const CampaignProgressBoard& board = *record.board;
    progress.has_campaign = true;
    progress.campaign_trials =
        board.trials.load(std::memory_order_relaxed);
    progress.campaign_failures =
        board.failures.load(std::memory_order_relaxed);
    progress.campaign_batches =
        board.batches.load(std::memory_order_relaxed);
    progress.campaign_p_hat =
        static_cast<double>(board.p_ppm.load(std::memory_order_relaxed)) /
        1e6;
    progress.campaign_ci_low =
        static_cast<double>(board.low_ppm.load(std::memory_order_relaxed)) /
        1e6;
    progress.campaign_ci_high =
        static_cast<double>(
            board.high_ppm.load(std::memory_order_relaxed)) /
        1e6;
  }
  if (record.state == JobState::kRunning) {
    if (const std::string path = service_->checkpoint_path(record.spec);
        !path.empty()) {
      mc::CheckpointConfig config;
      config.path = path;
      config.binding = record.digest;
      mc::CheckpointPeek peek;
      if (mc::peek_checkpoint(config, &peek)) {
        progress.has_bfs_level = true;
        progress.bfs_level = peek.next_depth;
        progress.checkpoint_states = peek.visited;
      }
    }
  }
  return progress;
}

std::uint64_t Session::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  Metrics& metrics = service_->metrics_;
  bool delivered = false;
  for (auto& [seq, record] : jobs_) {
    if (record.state != JobState::kQueued) continue;
    record.state = JobState::kRejected;
    if (stream_locked(JobHandle{record.digest, seq},
                      rejected_result(record.digest, record.spec.property))) {
      delivered = true;
    }
    metrics.drain_rejected.fetch_add(1, std::memory_order_relaxed);
  }
  if (delivered) {
    lock.unlock();
    notify();
    lock.lock();
  }
  idle_cv_.wait(lock, [&] { return running_ == 0; });
  stream_.close();
  return lost_.load(std::memory_order_relaxed);
}

// ----------------------------------------------------------- AsyncService

AsyncService::AsyncService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_capacity),
      queue_(config_.max_pending) {
  if (!config_.cache_dir.empty()) {
    persistent_ = std::make_unique<PersistentCache>(
        PersistentCacheConfig{config_.cache_dir,
                              config_.persistent_compact_after},
        &metrics_);
  }
  if (!config_.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.checkpoint_dir, ec);
  }
  unsigned workers = config_.workers;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AsyncService::~AsyncService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // End every live session's stream so blocked consumers wake up.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, weak] : sessions_) {
    if (std::shared_ptr<Session> session = weak.lock()) {
      session->stream_.close();
    }
  }
}

std::shared_ptr<Session> AsyncService::open_session(
    std::function<void()> notify) {
  std::lock_guard<std::mutex> lock(mu_);
  // Prune sessions dropped by their callers.
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    it = it->second.expired() ? sessions_.erase(it) : std::next(it);
  }
  const std::uint64_t id = next_session_++;
  std::shared_ptr<Session> session(
      new Session(this, id, config_.max_pending, std::move(notify)));
  sessions_.emplace(id, session);
  metrics_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
  return session;
}

std::shared_ptr<Session> AsyncService::find_session(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.lock();
}

void AsyncService::worker_loop() {
  for (;;) {
    std::optional<JobQueue::Entry> entry;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return stopping_ || queue_.pending() > 0; });
      if (stopping_) return;
      entry = queue_.pop_next();
    }
    if (!entry) continue;  // another worker won the race
    if (std::shared_ptr<Session> session = find_session(entry->session)) {
      run_entry(*entry, session);
    }
    // else: the session was dropped without drain(); its jobs are
    // abandoned by contract.
  }
}

void AsyncService::run_entry(const JobQueue::Entry& entry,
                             const std::shared_ptr<Session>& session) {
  JobSpec attempt_spec;
  std::shared_ptr<CampaignProgressBoard> board;
  campaign::ProgressFn progress;
  {
    std::lock_guard<std::mutex> lock(session->mu_);
    auto it = session->jobs_.find(entry.sequence);
    if (it == session->jobs_.end()) return;
    Session::JobRecord& record = it->second;
    // Cancelled or drain-rejected while queued: its conclusion already
    // streamed.
    if (record.state != JobState::kQueued) return;
    record.state = JobState::kRunning;
    ++session->running_;
    attempt_spec = record.spec;
    board = record.board;
  }
  if (board) {
    progress = [&board, &session](const campaign::BatchUpdate& update) {
      publish_batch(*board, update);
      session->notify();
    };
  }

  const unsigned max_attempts = std::max(1u, config_.retry.max_attempts);
  std::vector<JobOutcome::Attempt> attempts;
  JobResult result;
  bool externally_cancelled = false;
  for (unsigned attempt = 1;; ++attempt) {
    util::CancelToken token =
        attempt_spec.deadline_ms > 0
            ? util::CancelToken::after(
                  std::chrono::milliseconds(attempt_spec.deadline_ms))
            : util::CancelToken();
    {
      std::lock_guard<std::mutex> lock(session->mu_);
      Session::JobRecord& record = session->jobs_.at(entry.sequence);
      record.attempt = attempt;
      if (record.cancel_requested) {
        // cancel() landed before this attempt started.
        result = cancelled_result(entry.digest, attempt_spec.property);
        externally_cancelled = true;
        metrics_.jobs_cancelled.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      record.active_token = &token;
    }

    result = process(attempt_spec, entry.admitted_at, &token, progress);

    bool cancel_requested = false;
    {
      std::lock_guard<std::mutex> lock(session->mu_);
      Session::JobRecord& record = session->jobs_.at(entry.sequence);
      record.active_token = nullptr;
      cancel_requested = record.cancel_requested;
    }
    if (result.from_cache) break;  // cache hits attempt nothing
    attempts.push_back(JobOutcome::Attempt{result.verdict,
                                           result.stats.cancelled,
                                           result.stats.seconds,
                                           attempt_spec.deadline_ms});
    if (result.verdict != mc::Verdict::kInconclusive) break;
    // An externally cancelled job must not retry — the caller asked for it
    // to stop, not for a longer leash. Checked before the attempt bound so
    // a cancelled final attempt still concludes kCancelled, not kDone.
    if (cancel_requested) {
      externally_cancelled = true;
      metrics_.jobs_cancelled.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (attempt >= max_attempts) break;

    metrics_.jobs_retried.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.retry.backoff.delay_ms(attempt)));
    if (attempt_spec.deadline_ms > 0) {
      const double escalated = static_cast<double>(attempt_spec.deadline_ms) *
                               config_.retry.deadline_escalation;
      attempt_spec.deadline_ms =
          escalated >= static_cast<double>(UINT32_MAX)
              ? UINT32_MAX
              : static_cast<std::uint32_t>(escalated);
    }
  }
  result.outcome.attempts = std::move(attempts);

  bool delivered = false;
  {
    std::lock_guard<std::mutex> lock(session->mu_);
    Session::JobRecord& record = session->jobs_.at(entry.sequence);
    record.state = externally_cancelled ? JobState::kCancelled
                                        : JobState::kDone;
    record.active_token = nullptr;
    --session->running_;
    delivered = session->stream_locked(
        JobHandle{entry.digest, entry.sequence}, std::move(result));
  }
  session->idle_cv_.notify_all();
  if (delivered) session->notify();
}

JobResult AsyncService::process(
    const JobSpec& spec, std::chrono::steady_clock::time_point admitted_at,
    const util::CancelToken* cancel, const campaign::ProgressFn& progress) {
  const auto dispatched_at = std::chrono::steady_clock::now();
  const double queue_seconds = seconds_between(admitted_at, dispatched_at);
  metrics_.queue_latency.record_seconds(queue_seconds);

  auto finish_hit = [&](JobResult& result) {
    result.queue_seconds = queue_seconds;
    metrics_.jobs_completed.fetch_add(1, std::memory_order_relaxed);
    metrics_.job_latency.record_seconds(
        seconds_between(dispatched_at, std::chrono::steady_clock::now()));
  };

  const std::uint64_t key = spec.digest();
  JobResult result;
  if (cache_.lookup(key, &result)) {
    metrics_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    result.from_cache = true;
    finish_hit(result);
    return result;
  }
  metrics_.cache_misses.fetch_add(1, std::memory_order_relaxed);

  // LRU missed; the on-disk store may still know the answer (an earlier
  // process computed it, or this one before a crash / restart). The
  // persistent record format carries verification results only, so
  // campaign jobs skip it (their conclusive estimates live in the LRU).
  if (spec.kind == JobKind::kVerify && persistent_ &&
      persistent_->lookup(spec, &result)) {
    metrics_.persistent_hits.fetch_add(1, std::memory_order_relaxed);
    cache_.insert(key, result);  // promote for the rest of the batch
    // A crash can leave the job's wavefront behind even though its verdict
    // reached the journal (insert and remove are not atomic together);
    // since the answer is durable, the checkpoint is garbage.
    if (const std::string path = checkpoint_path(spec); !path.empty()) {
      mc::remove_checkpoint(path);
    }
    finish_hit(result);
    return result;
  }

  result = execute(spec, cancel, progress);
  result.digest = key;
  result.queue_seconds = queue_seconds;

  // Fail point `svc.attempt`: `error` turns this attempt's conclusive
  // verdict into a spurious kInconclusive — never cached (only conclusive
  // verdicts are), so the retry loop in run_entry re-admits the job like
  // any deadline-bailed attempt; `delay(ms)` has already slept inside the
  // evaluation, modelling a straggler completion.
  if (spec.kind == JobKind::kVerify && conclusive(result.verdict) &&
      util::fail_point("svc.attempt").error()) {
    result.verdict = mc::Verdict::kInconclusive;
    result.trace.clear();
    result.dead_states = 0;
  }

  if (result.has_campaign) {
    metrics_.campaigns_run.fetch_add(1, std::memory_order_relaxed);
    metrics_.campaign_trials.fetch_add(result.campaign.trials,
                                       std::memory_order_relaxed);
    metrics_.campaign_batches.fetch_add(result.campaign.batches,
                                        std::memory_order_relaxed);
    if (result.campaign.conclusive) {
      metrics_.campaigns_conclusive.fetch_add(1, std::memory_order_relaxed);
    }
  }
  metrics_.states_explored.fetch_add(result.stats.states_explored,
                                     std::memory_order_relaxed);
  metrics_.transitions.fetch_add(result.stats.transitions,
                                 std::memory_order_relaxed);
  metrics_.engine_micros.fetch_add(
      static_cast<std::uint64_t>(result.stats.seconds * 1e6),
      std::memory_order_relaxed);
  if (result.stats.cancelled) {
    metrics_.jobs_cancelled.fetch_add(1, std::memory_order_relaxed);
  }
  if (result.stats.resumed) {
    metrics_.checkpoint_resumes.fetch_add(1, std::memory_order_relaxed);
  }
  if (result.outcome.redundant) {
    metrics_.redundant_runs.fetch_add(1, std::memory_order_relaxed);
  }
  if (result.verdict == mc::Verdict::kEngineDivergence) {
    metrics_.engine_divergence.fetch_add(1, std::memory_order_relaxed);
  }
  metrics_.jobs_completed.fetch_add(1, std::memory_order_relaxed);
  metrics_.job_latency.record_seconds(
      seconds_between(dispatched_at, std::chrono::steady_clock::now()));

  // Only conclusive verdicts are cacheable: an inconclusive result is a
  // property of this run's deadline/budget, not of the query, and a
  // divergence is a defect report, not an answer.
  if (conclusive(result.verdict)) {
    cache_.insert(key, result);
    if (spec.kind == JobKind::kVerify && persistent_) {
      persistent_->insert(spec, result);
    }
    if (const std::string path = checkpoint_path(spec); !path.empty()) {
      mc::remove_checkpoint(path);  // the wavefront served its purpose
    }
  }
  return result;
}

JobResult AsyncService::execute(const JobSpec& spec,
                                const util::CancelToken* cancel,
                                const campaign::ProgressFn& progress) const {
  if (spec.kind == JobKind::kCampaign) {
    return run_campaign_job(spec, config_, cancel, progress);
  }

  JobResult result;
  result.property = spec.property;

  EngineSelection selection = make_engine(spec, config_);
  result.engine_used = selection.resolved;

  mc::TtpcStarModel model(spec.model);
  const mc::EngineQuery query = make_engine_query(spec, model);

  mc::CheckpointConfig ckpt_config;
  const mc::CheckpointConfig* ckpt = nullptr;
  if (selection.engine->supports_checkpoint()) {
    if (const std::string path = checkpoint_path(spec); !path.empty()) {
      ckpt_config.path = path;
      ckpt_config.binding = spec.digest();
      ckpt = &ckpt_config;
    }
  }

  mc::EngineResult engine_result =
      selection.engine->run(model, query, cancel, ckpt);
  result.verdict = engine_result.verdict;
  result.stats = engine_result.stats;
  result.dead_states = engine_result.dead_states;
  result.trace = std::move(engine_result.trace);
  result.outcome.redundant = engine_result.redundant;
  result.outcome.secondary_stats = engine_result.secondary_stats;
  return result;
}

std::string AsyncService::checkpoint_path(const JobSpec& spec) const {
  if (config_.checkpoint_dir.empty()) return {};
  // Campaigns restart from their seed, not a BFS wavefront.
  if (spec.kind == JobKind::kCampaign) return {};
  // Recoverability carries the full edge list, which the checkpoint format
  // deliberately does not (see mc/checkpoint.h) — it re-executes instead.
  // Redundant compositions refuse checkpoints via supports_checkpoint().
  if (spec.property == Property::kRecoverability) return {};
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.ckpt",
                static_cast<unsigned long long>(spec.digest()));
  return config_.checkpoint_dir + "/" + name;
}

}  // namespace tta::svc
