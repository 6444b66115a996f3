#include "svc/persistent_cache.h"

#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "mc/model.h"
#include "svc/metrics.h"
#include "util/bitpack.h"
#include "util/fail_point.h"

namespace tta::svc {

namespace {

constexpr std::uint8_t kRecordVersion = 1;

/// Little-endian byte serialization, same idiom as mc/checkpoint.cpp.
struct ByteWriter {
  std::vector<std::uint8_t>& out;

  void u8(std::uint8_t v) { out.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void f64(double v) {
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void packed(const util::PackedState& p) {
    for (std::size_t i = 0; i < util::kPackedWords; ++i) u64(p.words[i]);
  }
};

struct ByteReader {
  const std::uint8_t* p;
  const std::uint8_t* end;
  bool ok = true;

  bool need(std::size_t n) {
    if (static_cast<std::size_t>(end - p) < n) ok = false;
    return ok;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return *p++;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(*p++) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(*p++) << (8 * i);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  util::PackedState packed() {
    util::PackedState s{};
    for (std::size_t i = 0; i < util::kPackedWords; ++i) s.words[i] = u64();
    return s;
  }
};

/// True iff `engine` is a member of today's EngineChoice. The switch has
/// no default, so a new member fails -Wswitch until it is listed here.
bool is_engine_choice(EngineChoice engine) {
  switch (engine) {
    case EngineChoice::kSerial:
    case EngineChoice::kParallel:
    case EngineChoice::kAuto:
    case EngineChoice::kRedundant:
      return true;
  }
  return false;
}

}  // namespace

std::vector<std::uint8_t> encode_result(const JobSpec& spec,
                                        const JobResult& result) {
  std::vector<std::uint8_t> out;
  out.reserve(80 + result.trace.size() * util::kPackedWords * 8);
  ByteWriter w{out};
  w.u8(kRecordVersion);
  w.u64(spec.digest());
  w.u8(static_cast<std::uint8_t>(result.property));
  w.u8(static_cast<std::uint8_t>(result.verdict));
  w.u8(static_cast<std::uint8_t>(result.engine_used));
  w.u8(result.stats.exhausted ? 1 : 0);
  w.u64(result.dead_states);
  w.u64(result.stats.states_explored);
  w.u64(result.stats.transitions);
  w.u64(result.stats.max_depth);
  w.u64(result.stats.dedup_skips);
  w.f64(result.stats.seconds);
  // Traces persist as the packed state sequence only: each step's `before`
  // plus the final `after`. Labels are re-derived at decode by replaying
  // through the model, so the record stays model-version-agnostic in
  // layout (a semantic model change simply fails the replay and drops the
  // entry instead of resurrecting a stale counterexample).
  w.u32(static_cast<std::uint32_t>(result.trace.size()));
  if (!result.trace.empty()) {
    mc::TtpcStarModel model(spec.model);
    for (const mc::TraceStep& step : result.trace) {
      w.packed(model.pack(step.before));
    }
    w.packed(model.pack(result.trace.back().after));
  }
  return out;
}

bool decode_result(const JobSpec& spec, const std::uint8_t* data,
                   std::size_t len, JobResult* out) {
  ByteReader r{data, data + len};
  if (r.u8() != kRecordVersion) return false;
  JobResult result;
  result.digest = r.u64();
  result.property = static_cast<Property>(r.u8());
  result.verdict = static_cast<mc::Verdict>(r.u8());
  result.engine_used = static_cast<EngineChoice>(r.u8());
  result.stats.exhausted = r.u8() != 0;
  result.dead_states = r.u64();
  result.stats.states_explored = r.u64();
  result.stats.transitions = r.u64();
  result.stats.max_depth = r.u64();
  result.stats.dedup_skips = r.u64();
  result.stats.seconds = r.f64();
  const std::uint32_t trace_len = r.u32();
  if (!r.ok) return false;

  // Bind the record to the query before trusting it: a digest collision or
  // a misfiled record must miss, not answer.
  if (result.digest != spec.digest()) return false;
  if (result.property != spec.property) return false;
  if (result.verdict != mc::Verdict::kHolds &&
      result.verdict != mc::Verdict::kViolated) {
    return false;
  }
  // A byte no current engine owns (one a removed engine left in an older
  // journal, or a flipped bit) would be served as "engine":"?".
  if (!is_engine_choice(result.engine_used)) return false;

  if (trace_len > 0) {
    std::vector<util::PackedState> states;
    states.reserve(trace_len + 1);
    for (std::uint32_t i = 0; i <= trace_len; ++i) states.push_back(r.packed());
    if (!r.ok) return false;

    mc::TtpcStarModel model(spec.model);
    result.trace.reserve(trace_len);
    for (std::uint32_t i = 0; i < trace_len; ++i) {
      mc::TraceStep step;
      step.before = model.unpack(states[i]);
      bool found = false;
      for (const mc::Successor& succ : model.successors(step.before)) {
        if (model.pack(succ.next) == states[i + 1]) {
          auto [next, label] = model.apply(step.before, succ.choice_code);
          step.label = label;
          step.after = next;
          found = true;
          break;
        }
      }
      if (!found) return false;  // state pair no longer a model transition
      result.trace.push_back(std::move(step));
    }
  }
  if (r.p != r.end) return false;  // trailing bytes: not our record
  *out = std::move(result);
  return true;
}

PersistentCache::PersistentCache(const PersistentCacheConfig& config,
                                 Metrics* metrics)
    : config_(config), metrics_(metrics) {
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);

  auto load = [this](const std::uint8_t* payload, std::size_t len) {
    // Only the digest (at a fixed offset after the version byte) is needed
    // to index the record; full decode waits until somebody looks it up.
    if (len < 9 || payload[0] != kRecordVersion) {
      ++recovery_.corrupt_records;
      return;
    }
    std::uint64_t digest = 0;
    for (int i = 0; i < 8; ++i) {
      digest |= static_cast<std::uint64_t>(payload[1 + i]) << (8 * i);
    }
    entries_[digest].assign(payload, payload + len);
    ++recovery_.records;
  };

  // Snapshot first, then the journal: later journal records overwrite
  // snapshot entries for the same digest. Damage in either file ends that
  // file's scan but never recovery as a whole.
  accumulate(util::scan_journal(snapshot_path(), load));
  const util::JournalScan jour = util::scan_journal(journal_path(), load);
  accumulate(jour);
  recovery_.entries = entries_.size();

  // Reopening at the valid prefix physically truncates any quarantined
  // journal tail before new records can land after it.
  journal_.open(journal_path(), jour.valid_bytes);

  if (metrics_) {
    metrics_->persistent_recovered.fetch_add(recovery_.entries,
                                             std::memory_order_relaxed);
    metrics_->persistent_corrupt_records.fetch_add(
        recovery_.corrupt_records, std::memory_order_relaxed);
    metrics_->persistent_truncated_records.fetch_add(
        recovery_.truncated_records, std::memory_order_relaxed);
    metrics_->persistent_quarantined_bytes.fetch_add(
        recovery_.quarantined_bytes, std::memory_order_relaxed);
  }
}

PersistentCache::~PersistentCache() {
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_.is_open()) journal_.sync();
}

void PersistentCache::accumulate(const util::JournalScan& scan) {
  recovery_.corrupt_records += scan.corrupt_records;
  recovery_.truncated_records += scan.truncated_records;
  recovery_.quarantined_bytes += scan.quarantined_bytes;
}

std::string PersistentCache::snapshot_path() const {
  return config_.dir + "/cache.snapshot";
}

std::string PersistentCache::journal_path() const {
  return config_.dir + "/cache.journal";
}

std::size_t PersistentCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

bool PersistentCache::lookup(const JobSpec& spec, JobResult* out) {
  const std::uint64_t key = spec.digest();
  std::vector<std::uint8_t> payload;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    payload = it->second;  // decode outside the lock
  }
  JobResult decoded;
  if (!decode_result(spec, payload.data(), payload.size(), &decoded)) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.erase(key);
    if (metrics_) {
      metrics_->persistent_corrupt_records.fetch_add(
          1, std::memory_order_relaxed);
    }
    return false;
  }
  decoded.from_cache = true;
  decoded.from_persistent = true;
  *out = std::move(decoded);
  return true;
}

void PersistentCache::insert(const JobSpec& spec, const JobResult& result) {
  if (result.verdict != mc::Verdict::kHolds &&
      result.verdict != mc::Verdict::kViolated) {
    return;  // same contract as the LRU: never persist a non-answer
  }
  std::vector<std::uint8_t> payload = encode_result(spec, result);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(spec.digest());
  if (!inserted && it->second == payload) return;  // re-run of a cached cell
  it->second = std::move(payload);
  // The entry serves from memory either way; what a failed append (ENOSPC,
  // short write, torn-write injection) costs is durability. Count it and
  // immediately try to restore durability by rewriting the snapshot —
  // which also reopens a fresh journal if the writer poisoned itself.
  if (!journal_.is_open() || !journal_.append(it->second)) {
    if (metrics_) {
      metrics_->persistent_io_errors.fetch_add(1, std::memory_order_relaxed);
    }
    compact_locked();
    return;
  }
  if (++appends_since_compact_ >= config_.compact_after_appends) {
    compact_locked();
  }
}

void PersistentCache::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  compact_locked();
}

void PersistentCache::compact_locked() {
  // Any failure below leaves the old snapshot + journal authoritative (the
  // tmp file is discarded, never renamed) and is counted as an io_error;
  // the cache keeps serving from memory and a later insert retries.
  const auto io_error = [this] {
    if (metrics_) {
      metrics_->persistent_io_errors.fetch_add(1, std::memory_order_relaxed);
    }
  };
  const std::string tmp = snapshot_path() + ".tmp";
  {
    util::JournalWriter writer;
    if (!writer.open_fresh(tmp)) return io_error();
    for (const auto& [digest, payload] : entries_) {
      (void)digest;
      if (!writer.append(payload)) return io_error();
    }
    // Publication point: must reach stable storage before the rename.
    if (!writer.sync()) return io_error();
  }
  // Fail point `cache.compact.rename`: a crash between fsync and rename —
  // the fully written tmp snapshot never becomes visible.
  if (util::fail_point("cache.compact.rename").error()) {
    io_error();
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, snapshot_path(), ec);
  if (ec) return io_error();
  // The snapshot now carries every live entry; restart the journal empty.
  journal_.open(journal_path(), 0);
  appends_since_compact_ = 0;
  if (metrics_) {
    metrics_->persistent_compactions.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace tta::svc
