// Batched model-checking driver for the verification job service.
//
// Reads a JSON-lines job file (one JobSpec per line, '#' comments and
// blank lines ignored), submits the whole batch to one svc::AsyncService
// session — admission, cheapest-config-first dispatch, result cache,
// per-job soft deadlines — and prints one verdict row per job *as each
// concludes* (completion order; the job column keys rows back to the
// submission order). After the batch, the service metrics snapshot.
//
//   ./tta_verify_batch tools/e1_grid.jobs --passes=2 --json=results.json
//
// --stream additionally emits one self-contained JSON object per job on
// stdout the moment it concludes (svc::result_json — timestamped with
// milliseconds since the pass started), so a consumer piping this tool
// sees verdicts incrementally instead of waiting for the batch.
// --json=FILE collects the same per-job records into a single document
// via bench/bench_json.h after all passes.
//
// --passes=N re-submits the same batch N times; every pass after the
// first should be served almost entirely from the result cache, which the
// printed hit rate makes visible.
//
// Fault-tolerance flags (docs/SERVICE.md): --cache-dir=DIR persists
// conclusive results across process restarts (crash-safe journal +
// snapshot); --checkpoint-dir=DIR lets interrupted engine runs resume at
// their last BFS level; --retries=N re-admits inconclusive jobs up to N
// times with exponential backoff and deadline escalation; --redundant
// forces every job through both engines with cross-checked verdicts.
//
// Exit status: 0 when every job in the final pass ended conclusively
// (HOLDS or VIOLATED — a violated property is an answer, not a tool
// failure), 1 when any job ended rejected, inconclusive, or diverged,
// 2 on usage/input errors.
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_json.h"
#include "svc/async_service.h"
#include "svc/wire.h"
#include "util/digest.h"

using namespace tta;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s JOBFILE [--passes=N] [--workers=N] [--cache=N] "
               "[--json=FILE]\n"
               "          [--cache-dir=DIR] [--checkpoint-dir=DIR] "
               "[--retries=N] [--redundant] [--stream]\n"
               "JOBFILE holds one JSON job per line, e.g.\n"
               "  {\"authority\": \"full_shifting\", \"property\": "
               "\"safety\", \"max_oos\": 1, \"deadline_ms\": 5000}\n",
               argv0);
  return 2;
}

const char* verdict_cell(const svc::JobResult& r) {
  if (r.outcome.rejected) return "REJECTED";
  if (r.stats.cancelled) return "DEADLINE";
  return mc::to_string(r.verdict);
}

void print_row(std::size_t job, const svc::JobSpec& spec,
               const svc::JobResult& r) {
  std::printf("%-4zu %-16s %-22s %-14s %-12s %10llu %9.4f %7zu %6s\n", job,
              util::digest_hex(r.digest).c_str(),
              svc::config_label(spec).c_str(),
              svc::to_string(spec.property), verdict_cell(r),
              static_cast<unsigned long long>(r.stats.states_explored),
              r.stats.seconds, r.trace.size(),
              r.from_cache ? "yes" : "no");
}

}  // namespace

int main(int argc, char** argv) {
  std::string job_path;
  std::string json_path;
  unsigned passes = 1;
  bool redundant = false;
  bool stream = false;
  svc::ServiceConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    std::string error;
    const svc::FlagParse shared =
        svc::parse_service_flag(argv[i], &config, &error);
    if (shared == svc::FlagParse::kOk) continue;
    if (shared == svc::FlagParse::kBad) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return usage(argv[0]);
    }
    if (svc::flag_value(argv[i], "--passes", &v)) {
      std::uint64_t n = 0;
      if (!svc::parse_flag_number("--passes", v, UINT_MAX, &n, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return usage(argv[0]);
      }
      passes = static_cast<unsigned>(n);
    } else if (std::strcmp(argv[i], "--redundant") == 0) {
      redundant = true;
    } else if (std::strcmp(argv[i], "--stream") == 0) {
      stream = true;
    } else if (svc::flag_value(argv[i], "--json", &v)) {
      json_path = v;
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else if (job_path.empty()) {
      job_path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (job_path.empty() || passes == 0) return usage(argv[0]);

  std::ifstream in(job_path);
  if (!in) {
    std::fprintf(stderr, "cannot open job file %s\n", job_path.c_str());
    return 2;
  }
  std::vector<svc::JobSpec> jobs;
  std::string line;
  for (int lineno = 1; std::getline(in, line); ++lineno) {
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    svc::JobSpec spec;
    std::string error;
    if (!svc::parse_job_line(line, &spec, &error)) {
      std::fprintf(stderr, "%s:%d: %s\n", job_path.c_str(), lineno,
                   error.c_str());
      return 2;
    }
    jobs.push_back(spec);
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "%s: no jobs\n", job_path.c_str());
    return 2;
  }

  if (redundant) {
    for (svc::JobSpec& spec : jobs) spec.engine = svc::EngineChoice::kRedundant;
  }

  svc::AsyncService service(config);
  bench::JsonWriter json;
  std::size_t final_failures = 0;
  for (unsigned pass = 1; pass <= passes; ++pass) {
    std::printf("pass %u/%u: %zu jobs\n", pass, passes, jobs.size());
    std::printf("%-4s %-16s %-22s %-14s %-12s %10s %9s %7s %6s\n", "job",
                "digest", "config", "property", "verdict", "states",
                "seconds", "trace", "cached");

    const auto pass_start = std::chrono::steady_clock::now();
    std::shared_ptr<svc::Session> session = service.open_session();
    std::vector<svc::JobResult> results(jobs.size());
    std::unordered_map<std::uint64_t, std::size_t> by_sequence;
    by_sequence.reserve(jobs.size());
    std::size_t expected = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const svc::JobHandle handle = session->submit(jobs[i]);
      if (handle.valid()) {
        by_sequence.emplace(handle.sequence, i);
        ++expected;
      } else {
        // Not even the rejection notice fit the stream; report it here.
        results[i].digest = handle.digest;
        results[i].property = jobs[i].property;
        results[i].outcome.rejected = true;
        print_row(i, jobs[i], results[i]);
        if (stream) {
          std::printf("%s\n",
                      svc::result_json(jobs[i], results[i], pass, 0, 0.0)
                          .c_str());
          std::fflush(stdout);
        }
      }
    }

    // Rows print the moment each job concludes — completion order, which
    // with cheapest-first dispatch is the early-feedback order.
    while (expected > 0) {
      std::optional<svc::StreamedResult> item = session->results().next();
      if (!item) break;  // stream ended early (service shutdown)
      auto it = by_sequence.find(item->handle.sequence);
      if (it == by_sequence.end()) continue;
      const std::size_t i = it->second;
      results[i] = std::move(item->result);
      --expected;
      print_row(i, jobs[i], results[i]);
      if (stream) {
        const double ts_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - pass_start)
                .count();
        std::printf("%s\n", svc::result_json(jobs[i], results[i], pass,
                                             item->handle.sequence, ts_ms)
                                .c_str());
        std::fflush(stdout);
      }
    }
    session->drain();

    for (std::size_t i = 0; i < results.size(); ++i) {
      const svc::JobResult& r = results[i];
      char name[48];
      std::snprintf(name, sizeof name, "pass%u job%zu", pass, i);
      json.begin_entry(name);
      json.field("digest", util::digest_hex(r.digest));
      json.field("config", svc::config_label(jobs[i]));
      json.field("property", std::string(svc::to_string(jobs[i].property)));
      json.field("engine", std::string(svc::to_string(r.engine_used)));
      json.field("verdict", std::string(mc::to_string(r.verdict)));
      json.field("deadline_hit", std::uint64_t{r.stats.cancelled});
      json.field("from_cache", std::uint64_t{r.from_cache});
      json.field("states", r.stats.states_explored);
      json.field("transitions", r.stats.transitions);
      json.field("trace_len", std::uint64_t{r.trace.size()});
      json.field("dead_states", r.dead_states);
      json.field("engine_seconds", r.stats.seconds);
      json.field("queue_seconds", r.queue_seconds);
      json.field("from_persistent", std::uint64_t{r.from_persistent});
      json.field("resumed", std::uint64_t{r.stats.resumed});
      json.raw("outcome", r.outcome.to_json());
    }

    // Per-class summary, plus the final pass's failure count for the exit
    // status: rejected / inconclusive / diverged jobs mean the batch did
    // not fully answer its queries.
    std::size_t holds = 0, violated = 0, inconclusive = 0, divergence = 0,
                rejected = 0;
    std::uint64_t attempts = 0;
    for (const svc::JobResult& r : results) {
      attempts += r.outcome.attempts.size();
      if (r.outcome.rejected) {
        ++rejected;
      } else if (r.verdict == mc::Verdict::kHolds) {
        ++holds;
      } else if (r.verdict == mc::Verdict::kViolated) {
        ++violated;
      } else if (r.verdict == mc::Verdict::kEngineDivergence) {
        ++divergence;
      } else {
        ++inconclusive;
      }
    }
    std::printf("summary: holds=%zu violated=%zu inconclusive=%zu "
                "divergence=%zu rejected=%zu attempts=%llu\n\n",
                holds, violated, inconclusive, divergence, rejected,
                static_cast<unsigned long long>(attempts));
    final_failures = inconclusive + divergence + rejected;
  }

  std::printf("service metrics after %u pass(es):\n%s", passes,
              service.metrics().dump().c_str());
  if (!json_path.empty()) {
    json.begin_entry("metrics");
    json.field("cache_hit_rate", service.metrics().cache_hit_rate());
    json.field("states_per_second", service.metrics().states_per_second());
    json.field("jobs_cancelled",
               service.metrics().jobs_cancelled.load());
    json.field("persistent_hits",
               service.metrics().persistent_hits.load());
    json.field("checkpoint_resumes",
               service.metrics().checkpoint_resumes.load());
    json.field("engine_divergence",
               service.metrics().engine_divergence.load());
    json.write(json_path, "tta_verify_batch");
  }
  return final_failures == 0 ? 0 : 1;
}
