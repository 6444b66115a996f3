// The session-based, non-blocking front end of the verification service.
//
// An AsyncService owns the shared machinery — dedicated worker threads, a
// (priority, cheapest-cost) JobQueue spanning all sessions, the LRU
// ResultCache, the crash-safe PersistentCache, Metrics — and hands out
// Sessions:
//
//   auto service = svc::AsyncService(config);
//   auto session = service.open_session();
//   JobHandle h = session->submit(spec);      // returns immediately
//   while (auto item = session->results().next()) { ... }  // completion order
//   session->drain();                         // conclude running, reject rest
//
// submit() never runs a job inline and never blocks on workers: it either
// admits (handle + exactly one StreamedResult later) or rejects explicitly
// (JobOutcome::rejected streamed with the job's digest). A job is *open*
// from submit() until its result is consumed from the stream; submissions
// beyond ServiceConfig::max_pending open jobs are rejected, which is the
// service's backpressure rule — a slow consumer throttles its own
// submitters. cancel() concludes a queued job immediately and interrupts a
// running one via its CancelToken; progress() reports queue state, attempt
// number, and — when checkpointing is on — the BFS level from the job's
// checkpoint header. The synchronous VerificationService (svc/service.h)
// is a thin shim over one Session per batch.
//
// A consumer that multiplexes many sessions on one thread (svc::Server)
// cannot block in next() on each of them. It passes a notifier to
// open_session() instead: the session calls it after every result lands
// on its stream and after every campaign batch, so the consumer learns of
// news without polling.
//
// Execution semantics (caches, retries, redundancy, checkpoints) are
// identical to the pre-session service: engines are scheduled through the
// uniform mc::Engine interface (svc/engine_factory.h), conclusive results
// fill both caches, kInconclusive attempts retry per RetryPolicy with
// deadline escalation, and attempt history lands in JobOutcome.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "campaign/runner.h"
#include "svc/job_queue.h"
#include "svc/job_result.h"
#include "svc/job_spec.h"
#include "svc/metrics.h"
#include "svc/persistent_cache.h"
#include "svc/result_cache.h"
#include "svc/result_stream.h"
#include "svc/service_config.h"
#include "util/cancel_token.h"

namespace tta::svc {

class AsyncService;

/// Where a submitted job currently is in its lifecycle.
enum class JobState : std::uint8_t {
  kQueued = 0,     ///< admitted, waiting for a worker
  kRunning = 1,    ///< a worker is executing it (or between retry attempts)
  kDone = 2,       ///< concluded; its result is (or was) on the stream
  kCancelled = 3,  ///< cancel() landed; a cancelled result is streamed
  kRejected = 4,   ///< admission refused or drained while queued
};

const char* to_string(JobState state);

struct JobProgress {
  JobState state = JobState::kQueued;
  /// Attempts started so far (0 while queued; 1 during the first run).
  unsigned attempt = 0;
  /// Advisory BFS progress from the job's checkpoint header, present only
  /// while running with checkpointing enabled and a barrier already
  /// written (mc::peek_checkpoint).
  bool has_bfs_level = false;
  std::uint32_t bfs_level = 0;        ///< next BFS depth to expand
  std::uint64_t checkpoint_states = 0;  ///< visited set size at the barrier
  /// Campaign jobs: the running estimate as of the last completed batch
  /// (all zero / [0,1] before the first batch lands). Reading progress
  /// never blocks the worker — the snapshot is lock-free.
  bool has_campaign = false;
  std::uint64_t campaign_trials = 0;
  std::uint64_t campaign_failures = 0;
  std::uint64_t campaign_batches = 0;
  double campaign_p_hat = 0.0;
  double campaign_ci_low = 0.0;
  double campaign_ci_high = 1.0;
};

/// Per-job campaign progress shared between the worker (writer, after each
/// batch) and Session::progress() (reader). Probabilities are stored as
/// integer ppm so every field is a relaxed 64-bit atomic; readers may see
/// a snapshot that straddles a batch boundary, which is harmless for an
/// advisory progress row.
struct CampaignProgressBoard {
  std::atomic<std::uint64_t> trials{0};
  std::atomic<std::uint64_t> failures{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> p_ppm{0};
  std::atomic<std::uint64_t> low_ppm{0};
  std::atomic<std::uint64_t> high_ppm{1'000'000};
};

/// Per-submission execution hints. None of these affect the job's
/// identity, digest, or cached result — they only steer dispatch order
/// within the shared JobQueue.
struct SubmitOptions {
  /// Higher dispatches sooner across all of the service's sessions
  /// (cheapest-first within a priority band).
  std::int32_t priority = 0;
  /// Tenant lane for deficit-round-robin weighted-fair dispatch within a
  /// priority band (0 = the default lane; see JobQueue).
  std::uint32_t tenant = 0;
  /// The tenant lane's DRR weight (>= 1); matters only when several
  /// tenants share a band.
  std::uint32_t weight = 1;
};

/// One caller's window onto the service: a private sequence space, result
/// stream, and job registry. Sessions are cheap; open one per logical
/// batch. A Session must not outlive its AsyncService, and dropping one
/// without drain() abandons its queued jobs (workers skip them).
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Non-blocking. The returned handle is valid unless the session is
  /// draining or the rejection itself could not be buffered (stream
  /// saturated at 2x max_pending open jobs); an invalid handle still
  /// carries the spec's digest. Every valid handle is answered by exactly
  /// one StreamedResult, rejections included. `priority` is a QoS hint:
  /// higher-priority jobs dispatch ahead of lower ones across all of the
  /// service's sessions (cheapest-first within a priority band). It never
  /// affects the job's identity or its cached result.
  JobHandle submit(const JobSpec& spec, std::int32_t priority = 0) {
    return submit(spec, SubmitOptions{priority, 0, 1});
  }

  /// Full-options overload: priority plus the tenant lane + DRR weight
  /// the server's multi-tenant scheduler dispatches under.
  JobHandle submit(const JobSpec& spec, const SubmitOptions& options);

  /// Completion-order result delivery for this session's jobs.
  ResultStream& results() { return stream_; }

  /// True if the cancellation landed: a queued job concludes immediately
  /// with a cancelled kInconclusive result; a running job has its
  /// CancelToken tripped and concludes with honest partial stats. False
  /// for unknown handles and jobs that already concluded.
  bool cancel(const JobHandle& handle);

  /// Point-in-time progress for a submitted job; nullopt for unknown
  /// handles. Never blocks on workers (the checkpoint peek reads one
  /// fixed-size file header).
  std::optional<JobProgress> progress(const JobHandle& handle) const;

  /// Jobs submitted but not yet consumed from the stream (the admission
  /// gauge: submissions are rejected while this reaches max_pending).
  std::uint64_t open_jobs() const {
    return open_.load(std::memory_order_relaxed);
  }

  /// Graceful shutdown: stops admissions, rejects still-queued jobs
  /// explicitly (each streams a rejected result), waits for running jobs
  /// to conclude, then ends the stream. Buffered results remain
  /// consumable. Idempotent. Returns the number of this session's
  /// concluded results that could NOT be delivered (stream closed under a
  /// racing drain — also counted in Metrics::stream_lost); 0 means every
  /// verdict reached, or still sits buffered on, the stream.
  std::uint64_t drain();

  /// Running total of this session's undeliverable results (see drain()).
  std::uint64_t lost_results() const {
    return lost_.load(std::memory_order_relaxed);
  }

 private:
  friend class AsyncService;

  struct JobRecord {
    JobSpec spec;
    std::uint64_t digest = 0;
    JobState state = JobState::kQueued;
    unsigned attempt = 0;
    bool cancel_requested = false;
    /// The running attempt's token; valid only while non-null, guarded by
    /// the session mutex.
    util::CancelToken* active_token = nullptr;
    /// Campaign jobs only: created at submit, written by the worker after
    /// every batch, read by progress(). Shared so a racing progress() can
    /// never outlive the record's board.
    std::shared_ptr<CampaignProgressBoard> board;
  };

  Session(AsyncService* service, std::uint64_t id, std::size_t max_open,
          std::function<void()> notify);

  /// Delivers one concluded result onto the stream, accounting for it in
  /// Metrics (streamed / overflowed / lost). Call with mu_ held; true if
  /// the result landed, and then the caller rings notify() once mu_ is
  /// released.
  bool stream_locked(JobHandle handle, JobResult&& result);

  void notify() const {
    if (notify_) notify_();
  }

  AsyncService* service_;
  const std::uint64_t id_;
  const std::size_t max_open_;
  const std::function<void()> notify_;  ///< see AsyncService::open_session
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  ///< drain waits for running_ == 0
  std::unordered_map<std::uint64_t, JobRecord> jobs_;  ///< by sequence
  std::uint64_t next_sequence_ = 1;
  std::uint64_t running_ = 0;
  bool draining_ = false;
  std::atomic<std::uint64_t> open_{0};
  std::atomic<std::uint64_t> lost_{0};  ///< results the stream couldn't take
  ResultStream stream_;
};

class AsyncService {
 public:
  explicit AsyncService(ServiceConfig config = {});
  /// Stops the workers (current jobs conclude; queued jobs are abandoned —
  /// drain sessions first) and ends every live session's stream.
  ~AsyncService();

  AsyncService(const AsyncService&) = delete;
  AsyncService& operator=(const AsyncService&) = delete;

  /// `notify`, when set, is called after every result lands on the new
  /// session's stream (completion, rejection, or cancellation) and after
  /// every campaign batch its worker publishes. It runs on whichever thread
  /// caused the news — a worker, a submitter, a canceller, a drainer —
  /// never under the session's lock, possibly on several threads at once,
  /// so it must be thread-safe, cheap, and non-blocking. It may run until
  /// this service's workers have joined, i.e. until ~AsyncService returns.
  std::shared_ptr<Session> open_session(std::function<void()> notify = {});

  const ServiceConfig& config() const { return config_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  ResultCache& cache() { return cache_; }
  const ResultCache& cache() const { return cache_; }
  /// Null unless ServiceConfig::cache_dir is set.
  PersistentCache* persistent() { return persistent_.get(); }

 private:
  friend class Session;

  void worker_loop();
  /// Runs one queue entry to conclusion (retry loop included) and streams
  /// the result into its session.
  void run_entry(const JobQueue::Entry& entry,
                 const std::shared_ptr<Session>& session);
  /// Cache probes + engine dispatch + cache fills + metrics, for one
  /// attempt (unchanged from the pre-session service). `progress` (may be
  /// empty) is called after every campaign batch.
  JobResult process(const JobSpec& spec,
                    std::chrono::steady_clock::time_point admitted_at,
                    const util::CancelToken* cancel,
                    const campaign::ProgressFn& progress);
  /// Engine dispatch through the factory (no cache, no metrics).
  JobResult execute(const JobSpec& spec, const util::CancelToken* cancel,
                    const campaign::ProgressFn& progress) const;
  /// Path of the engine checkpoint for `spec`, or "" when disabled (no
  /// checkpoint_dir, or a recoverability query).
  std::string checkpoint_path(const JobSpec& spec) const;

  std::shared_ptr<Session> find_session(std::uint64_t id);
  void notify_work() { work_cv_.notify_one(); }

  ServiceConfig config_;
  ResultCache cache_;
  Metrics metrics_;
  std::unique_ptr<PersistentCache> persistent_;
  JobQueue queue_;
  std::mutex mu_;  ///< sessions registry + worker wakeup
  std::condition_variable work_cv_;
  std::unordered_map<std::uint64_t, std::weak_ptr<Session>> sessions_;
  std::uint64_t next_session_ = 1;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tta::svc
