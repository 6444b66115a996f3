// Service-side observability: atomic counters and log-scale latency
// histograms, cheap enough to update from every worker on every job.
//
// Counter updates are relaxed atomics — metrics never synchronize
// anything; dump() is a point-in-time text snapshot in the style of a
// /varz or Prometheus text endpoint, and is what tta_verify_batch prints
// after a batch.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace tta::svc {

/// Power-of-two-bucketed histogram over microseconds: bucket i counts
/// samples in [2^i, 2^(i+1)) us, so 30 buckets span 1 us .. ~18 min.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 30;

  void record_seconds(double seconds) {
    const double us = seconds * 1e6;
    std::size_t bucket = 0;
    while (bucket + 1 < kBuckets && us >= static_cast<double>(2ull << bucket)) {
      ++bucket;
    }
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // Accumulate in integer microseconds so the mean needs no atomic<double>.
    total_us_.fetch_add(static_cast<std::uint64_t>(us),
                        std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double mean_seconds() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(
                        total_us_.load(std::memory_order_relaxed)) /
                        static_cast<double>(n) / 1e6;
  }

  /// Smallest bucket upper bound below which at least `quantile` of the
  /// samples fall, in seconds (0 when empty).
  double quantile_seconds(double quantile) const;

  /// One "histogram: 1us:3 2us:10 ..." line; empty buckets omitted.
  std::string render() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_us_{0};
};

class Metrics {
 public:
  // Admission.
  std::atomic<std::uint64_t> jobs_admitted{0};
  std::atomic<std::uint64_t> jobs_rejected{0};
  // Completion.
  std::atomic<std::uint64_t> jobs_completed{0};
  std::atomic<std::uint64_t> jobs_cancelled{0};  ///< deadline / cancel bails
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  // Work done by the engines (cache hits contribute nothing here).
  std::atomic<std::uint64_t> states_explored{0};
  std::atomic<std::uint64_t> transitions{0};
  std::atomic<std::uint64_t> engine_micros{0};
  // Persistent (on-disk) cache: hits served, entries recovered at startup,
  // and damage tolerated — corrupt frames, torn tails, quarantined bytes.
  std::atomic<std::uint64_t> persistent_hits{0};
  std::atomic<std::uint64_t> persistent_recovered{0};
  std::atomic<std::uint64_t> persistent_corrupt_records{0};
  std::atomic<std::uint64_t> persistent_truncated_records{0};
  std::atomic<std::uint64_t> persistent_quarantined_bytes{0};
  std::atomic<std::uint64_t> persistent_compactions{0};
  /// Journal appends, fsyncs, or snapshot publications that failed
  /// (ENOSPC, short write, injected faults). Every one was handled — the
  /// result stayed served from memory and durability was re-attempted —
  /// but a nonzero value means the disk is losing writes.
  std::atomic<std::uint64_t> persistent_io_errors{0};
  // Monte Carlo campaign jobs: campaigns executed (cache hits excluded),
  // trials simulated, batch boundaries crossed, and campaigns that reached
  // a conclusive stop (epsilon or a cleared fail bound).
  std::atomic<std::uint64_t> campaigns_run{0};
  std::atomic<std::uint64_t> campaign_trials{0};
  std::atomic<std::uint64_t> campaign_batches{0};
  std::atomic<std::uint64_t> campaigns_conclusive{0};
  // Fault-tolerance machinery: retry re-admissions, redundant dual-engine
  // runs, cross-check disagreements, checkpoint resumes.
  std::atomic<std::uint64_t> jobs_retried{0};
  std::atomic<std::uint64_t> redundant_runs{0};
  std::atomic<std::uint64_t> engine_divergence{0};
  std::atomic<std::uint64_t> checkpoint_resumes{0};
  // Async serving: sessions opened, results delivered onto session streams
  // (completions, cancellations, and buffered rejections alike), and jobs
  // rejected by drain() while still queued. stream_overflows counts pushes
  // that exceeded the stream's capacity bound (delivered anyway — a
  // verdict is never dropped for buffer space); stream_lost counts results
  // that could not be delivered because the stream was already closed —
  // the only way a concluded verdict can fail to reach its consumer, and
  // never a silent one (Session::drain() reports the session's share).
  std::atomic<std::uint64_t> sessions_opened{0};
  std::atomic<std::uint64_t> results_streamed{0};
  std::atomic<std::uint64_t> drain_rejected{0};
  std::atomic<std::uint64_t> stream_overflows{0};
  std::atomic<std::uint64_t> stream_lost{0};
  // Network serving (tools/tta_verifyd): connections accepted, protocol
  // lines read and written, malformed request lines answered with an
  // error line, and connections whose session was drained with jobs still
  // unanswered (client disconnect mid-stream or server shutdown).
  std::atomic<std::uint64_t> net_connections{0};
  std::atomic<std::uint64_t> net_lines_in{0};
  std::atomic<std::uint64_t> net_lines_out{0};
  std::atomic<std::uint64_t> net_malformed{0};
  std::atomic<std::uint64_t> net_drains{0};
  /// accept() failures survived (EMFILE/ENFILE/ECONNABORTED, injected
  /// faults): the server logged, backed off, and kept serving.
  std::atomic<std::uint64_t> net_accept_errors{0};
  /// Requests refused at the server's tenant-quota gate — max in-flight
  /// jobs or the aggregate state-budget ceiling (svc::TenantQuota). Every
  /// one was answered with an explicit rejection row; peers' admissions
  /// were unaffected.
  std::atomic<std::uint64_t> net_quota_rejected{0};
  /// Event-loop rounds (returns from poll): a socket event, a completion
  /// doorbell ring, or an accept-backoff deadline. An idle server adds
  /// none — the loop blocks until something happens.
  std::atomic<std::uint64_t> net_loop_wakes{0};
  /// Connection pumps: one per connection per round it had a socket event
  /// or rang the doorbell. Quiet connections are never pumped, so this
  /// tracks traffic, not the number of open connections.
  std::atomic<std::uint64_t> net_pumps{0};

  LatencyHistogram queue_latency;  ///< admission -> dispatch
  LatencyHistogram job_latency;    ///< dispatch -> result (incl. cache hits)

  double cache_hit_rate() const {
    const std::uint64_t h = cache_hits.load(std::memory_order_relaxed);
    const std::uint64_t m = cache_misses.load(std::memory_order_relaxed);
    return h + m == 0 ? 0.0
                      : static_cast<double>(h) / static_cast<double>(h + m);
  }

  /// Aggregate engine throughput in states/second across all jobs.
  double states_per_second() const {
    const std::uint64_t us = engine_micros.load(std::memory_order_relaxed);
    return us == 0 ? 0.0
                   : static_cast<double>(
                         states_explored.load(std::memory_order_relaxed)) *
                         1e6 / static_cast<double>(us);
  }

  /// Multi-line text snapshot of every counter and both histograms.
  std::string dump() const;
};

}  // namespace tta::svc
