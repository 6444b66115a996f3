// Shared configuration for the verification service front ends — the
// session-based svc::AsyncService and the synchronous shim
// svc::VerificationService layered on top of it (svc/service.h) — plus
// the argv grammar for it that tta_verifyd and tta_verify_batch share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/backoff.h"

namespace tta::svc {

/// Re-admission of jobs whose attempt ended kInconclusive — the soft
/// deadline fired or the state budget bailed. Those are properties of the
/// *attempt*, not the query, so a later attempt with a longer leash can
/// still conclude. Retries never change max_states (that is part of the
/// query digest — a different budget is a different query).
struct RetryPolicy {
  /// Total attempts per job including the first; 1 disables retries.
  unsigned max_attempts = 1;
  /// Each retry multiplies the job's soft deadline by this (jobs with no
  /// deadline just rerun and rely on the backoff for changed conditions).
  double deadline_escalation = 2.0;
  /// Deterministic exponential backoff slept between retry attempts.
  util::BackoffPolicy backoff;
};

struct ServiceConfig {
  std::size_t cache_capacity = 256;
  /// Per-session admission bound: a submission while this many jobs are
  /// *open* (submitted but not yet consumed from the session's result
  /// stream) is rejected outright — an explicit JobOutcome::rejected, not
  /// an error or a hang. Because consumption is what frees a slot, a slow
  /// stream consumer exerts backpressure on its own submitters.
  std::size_t max_pending = 4096;
  /// Dedicated worker threads draining the job queue; 0 = hardware
  /// concurrency. Submitters never run jobs inline.
  unsigned workers = 0;
  /// Threads given to the parallel engine when a spec leaves it 0. Kept
  /// small by default: job-level parallelism is the primary axis, so the
  /// two multiplied together should stay near the core count.
  unsigned parallel_engine_threads = 2;
  /// EngineChoice::kAuto picks the parallel engine when the estimated
  /// state count exceeds this (small spaces aren't worth the coordination).
  double auto_parallel_threshold = 500'000.0;
  /// Directory for the crash-safe persistent result cache; empty disables
  /// it (in-memory LRU only).
  std::string cache_dir;
  /// Directory for engine BFS checkpoints (one file per job digest); empty
  /// disables checkpoint/resume. Redundant jobs and recoverability queries
  /// never checkpoint — see docs/SERVICE.md.
  std::string checkpoint_dir;
  RetryPolicy retry;
  /// Journal appends between persistent-cache compactions.
  std::size_t persistent_compact_after = 1024;
};

/// Matches "--name=value", pointing *value at the value.
bool flag_value(const char* arg, const char* name, const char** value);

/// Strict unsigned decimal: one or more digits and nothing else (no sign,
/// space, or trailing bytes), at most `max`. False leaves *out untouched.
bool parse_decimal(const char* text, std::uint64_t max, std::uint64_t* out);

/// parse_decimal for the value of command-line flag `flag`; on failure
/// *error names the flag, the bound, and the rejected text.
bool parse_flag_number(const char* flag, const char* text, std::uint64_t max,
                       std::uint64_t* out, std::string* error);

/// Outcome of offering one argv entry to parse_service_flag().
enum class FlagParse : std::uint8_t { kNotMine, kOk, kBad };

/// The ServiceConfig flags tta_verifyd and tta_verify_batch share:
/// --workers=N --cache=N --cache-dir=DIR --checkpoint-dir=DIR --retries=N.
/// Numbers go through parse_flag_number; kBad fills *error.
FlagParse parse_service_flag(const char* arg, ServiceConfig* config,
                             std::string* error);

}  // namespace tta::svc
