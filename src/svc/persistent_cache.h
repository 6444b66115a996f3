// Crash-safe on-disk result store, layered under the in-memory LRU.
//
// The LRU in result_cache.h makes the second pass of a grid O(1) — until
// the process restarts and every cell recomputes. This cache makes
// conclusive verdicts survive the restart: each result is encoded to a
// self-describing record (keyed on JobSpec::digest(), the same stable key
// the LRU uses) and appended to a checksummed journal
// (util::JournalWriter), with periodic compaction into a snapshot file
// published atomically via tmp + rename.
//
// Layout under the cache directory:
//   cache.snapshot   compacted records, rewritten wholesale at compaction
//   cache.journal    records appended since the last compaction
//
// Startup recovery replays snapshot then journal through
// util::scan_journal, which *tolerates and quarantines* damage: a torn or
// CRC-corrupt tail ends the scan, is counted into svc::Metrics, and is
// truncated when the journal reopens — never a crash, never an abort. The
// worst a SIGKILL can cost is the single record that was in flight.
//
// Counterexample traces are persisted as packed state sequences; decode
// re-derives the transition labels by replaying each step through the
// model (which is why lookup/insert take the full JobSpec, not just the
// digest). Only conclusive verdicts (kHolds / kViolated) are stored —
// same contract as the LRU.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "svc/job_spec.h"
#include "svc/result_cache.h"
#include "util/file_journal.h"

namespace tta::svc {

class Metrics;

struct PersistentCacheConfig {
  std::string dir;  ///< created if missing
  /// Journal appends between automatic compactions. Compaction rewrites
  /// every live record, so amortize it over many appends.
  std::size_t compact_after_appends = 1024;
};

class PersistentCache {
 public:
  /// What startup recovery found on disk (also mirrored into Metrics).
  struct RecoveryStats {
    std::uint64_t entries = 0;           ///< distinct results recovered
    std::uint64_t records = 0;           ///< snapshot + journal records read
    std::uint64_t corrupt_records = 0;   ///< CRC-mismatch frames hit
    std::uint64_t truncated_records = 0; ///< torn tail frames hit
    std::uint64_t quarantined_bytes = 0; ///< bytes dropped past valid prefixes
  };

  /// Opens (creating the directory if needed) and recovers. Never throws
  /// on damaged files — damage is quarantined and counted.
  explicit PersistentCache(const PersistentCacheConfig& config,
                           Metrics* metrics = nullptr);
  ~PersistentCache();

  PersistentCache(const PersistentCache&) = delete;
  PersistentCache& operator=(const PersistentCache&) = delete;

  /// On hit, decodes the stored record into *out (from_persistent set) and
  /// returns true. A record that fails to decode (e.g. bit rot that the
  /// frame CRC cannot see because it happened before the append) is
  /// dropped and counted — lookup then misses.
  bool lookup(const JobSpec& spec, JobResult* out);

  /// Stores a conclusive result (kHolds / kViolated; anything else is
  /// ignored). Identical re-inserts are deduplicated and do not grow the
  /// journal. Thread-safe.
  void insert(const JobSpec& spec, const JobResult& result);

  /// Rewrites the snapshot from the live entries and truncates the
  /// journal. Publication is atomic (tmp + rename + fsync); on any write
  /// or fsync failure the old snapshot + journal stay authoritative, the
  /// failure lands in Metrics::persistent_io_errors, and a later insert
  /// retries. insert() also compacts eagerly after a failed journal
  /// append, to win durability back for the record that missed the log.
  void compact();

  std::size_t size() const;
  const RecoveryStats& recovery() const { return recovery_; }
  std::string snapshot_path() const;
  std::string journal_path() const;

 private:
  void accumulate(const util::JournalScan& scan);
  void compact_locked();

  PersistentCacheConfig config_;
  Metrics* metrics_;
  RecoveryStats recovery_;

  mutable std::mutex mu_;
  /// digest -> encoded record payload (decoded lazily on lookup, so a
  /// recovery scan never pays trace-replay cost for entries nobody asks
  /// about).
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> entries_;
  util::JournalWriter journal_;
  std::size_t appends_since_compact_ = 0;
};

/// Record codec, exposed for the fault-injection tests. encode produces a
/// version-1 payload; decode validates digest + property binding against
/// `spec`, checks that the verdict is conclusive and the engine byte names
/// a current EngineChoice, and replays the packed trace through the model
/// to rebuild the labeled steps. Returns false on any mismatch instead of
/// trusting the bytes.
std::vector<std::uint8_t> encode_result(const JobSpec& spec,
                                        const JobResult& result);
bool decode_result(const JobSpec& spec, const std::uint8_t* data,
                   std::size_t len, JobResult* out);

}  // namespace tta::svc
