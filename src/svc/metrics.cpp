#include "svc/metrics.h"

#include <cstdio>

namespace tta::svc {

namespace {

/// Human unit for a bucket's lower bound of 2^i microseconds.
std::string bucket_label(std::size_t i) {
  const std::uint64_t us = 1ull << i;
  char buf[32];
  if (us >= 1'000'000) {
    std::snprintf(buf, sizeof buf, "%llus",
                  static_cast<unsigned long long>(us / 1'000'000));
  } else if (us >= 1'000) {
    std::snprintf(buf, sizeof buf, "%llums",
                  static_cast<unsigned long long>(us / 1'000));
  } else {
    std::snprintf(buf, sizeof buf, "%lluus",
                  static_cast<unsigned long long>(us));
  }
  return buf;
}

}  // namespace

double LatencyHistogram::quantile_seconds(double quantile) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      quantile * static_cast<double>(n) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= target) {
      return static_cast<double>(2ull << i) / 1e6;  // bucket upper bound
    }
  }
  return static_cast<double>(2ull << (kBuckets - 1)) / 1e6;
}

std::string LatencyHistogram::render() const {
  std::string out;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (!out.empty()) out += " ";
    out += bucket_label(i) + ":" + std::to_string(c);
  }
  return out.empty() ? "(empty)" : out;
}

std::string Metrics::dump() const {
  auto v = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "jobs: admitted=%llu rejected=%llu completed=%llu "
                "cancelled=%llu\n",
                static_cast<unsigned long long>(v(jobs_admitted)),
                static_cast<unsigned long long>(v(jobs_rejected)),
                static_cast<unsigned long long>(v(jobs_completed)),
                static_cast<unsigned long long>(v(jobs_cancelled)));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "cache: hits=%llu misses=%llu hit_rate=%.3f\n",
                static_cast<unsigned long long>(v(cache_hits)),
                static_cast<unsigned long long>(v(cache_misses)),
                cache_hit_rate());
  out += buf;
  std::snprintf(buf, sizeof buf,
                "engine: states=%llu transitions=%llu seconds=%.3f "
                "states_per_sec=%.0f\n",
                static_cast<unsigned long long>(v(states_explored)),
                static_cast<unsigned long long>(v(transitions)),
                static_cast<double>(v(engine_micros)) / 1e6,
                states_per_second());
  out += buf;
  // New fields append at the end of each line: the CI recovery steps and
  // verifyd_smoke grep for prefixes of these lines verbatim.
  std::snprintf(buf, sizeof buf,
                "persistent: hits=%llu recovered=%llu corrupt=%llu "
                "truncated=%llu quarantined_bytes=%llu compactions=%llu "
                "io_errors=%llu\n",
                static_cast<unsigned long long>(v(persistent_hits)),
                static_cast<unsigned long long>(v(persistent_recovered)),
                static_cast<unsigned long long>(v(persistent_corrupt_records)),
                static_cast<unsigned long long>(
                    v(persistent_truncated_records)),
                static_cast<unsigned long long>(
                    v(persistent_quarantined_bytes)),
                static_cast<unsigned long long>(v(persistent_compactions)),
                static_cast<unsigned long long>(v(persistent_io_errors)));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "campaign: run=%llu trials=%llu batches=%llu "
                "conclusive=%llu\n",
                static_cast<unsigned long long>(v(campaigns_run)),
                static_cast<unsigned long long>(v(campaign_trials)),
                static_cast<unsigned long long>(v(campaign_batches)),
                static_cast<unsigned long long>(v(campaigns_conclusive)));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "resilience: retried=%llu redundant=%llu divergence=%llu "
                "resumes=%llu\n",
                static_cast<unsigned long long>(v(jobs_retried)),
                static_cast<unsigned long long>(v(redundant_runs)),
                static_cast<unsigned long long>(v(engine_divergence)),
                static_cast<unsigned long long>(v(checkpoint_resumes)));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "async: sessions=%llu streamed=%llu drain_rejected=%llu "
                "overflow=%llu lost=%llu\n",
                static_cast<unsigned long long>(v(sessions_opened)),
                static_cast<unsigned long long>(v(results_streamed)),
                static_cast<unsigned long long>(v(drain_rejected)),
                static_cast<unsigned long long>(v(stream_overflows)),
                static_cast<unsigned long long>(v(stream_lost)));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "net: connections=%llu lines_in=%llu lines_out=%llu "
                "malformed=%llu drains=%llu accept_errors=%llu "
                "quota_rejected=%llu loop_wakes=%llu pumps=%llu\n",
                static_cast<unsigned long long>(v(net_connections)),
                static_cast<unsigned long long>(v(net_lines_in)),
                static_cast<unsigned long long>(v(net_lines_out)),
                static_cast<unsigned long long>(v(net_malformed)),
                static_cast<unsigned long long>(v(net_drains)),
                static_cast<unsigned long long>(v(net_accept_errors)),
                static_cast<unsigned long long>(v(net_quota_rejected)),
                static_cast<unsigned long long>(v(net_loop_wakes)),
                static_cast<unsigned long long>(v(net_pumps)));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "queue latency: mean=%.6fs p50<=%.6fs p99<=%.6fs  %s\n",
                queue_latency.mean_seconds(),
                queue_latency.quantile_seconds(0.5),
                queue_latency.quantile_seconds(0.99),
                queue_latency.render().c_str());
  out += buf;
  std::snprintf(buf, sizeof buf,
                "job latency:   mean=%.6fs p50<=%.6fs p99<=%.6fs  %s\n",
                job_latency.mean_seconds(),
                job_latency.quantile_seconds(0.5),
                job_latency.quantile_seconds(0.99),
                job_latency.render().c_str());
  out += buf;
  return out;
}

}  // namespace tta::svc
