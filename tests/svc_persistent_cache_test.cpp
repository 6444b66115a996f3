// Crash-safety of the on-disk result store: results survive "restarts"
// (new PersistentCache instances over the same directory), truncated and
// bit-flipped journals recover everything before the damage with the
// damage counted in svc::Metrics, traces replay exactly, and compaction
// keeps the journal bounded without losing entries.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mc/model.h"
#include "svc/metrics.h"
#include "svc/persistent_cache.h"
#include "svc/service.h"
#include "util/fail_point.h"

namespace tta::svc {
namespace {

std::string test_dir() {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  std::filesystem::path dir = std::filesystem::path(testing::TempDir()) /
                              "tta_pcache" / info->name();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

JobSpec spec_for(guardian::Authority a, Property p,
                 std::uint64_t max_states = 50'000'000) {
  JobSpec spec;
  spec.model.authority = a;
  spec.property = p;
  spec.max_states = max_states;
  return spec;
}

/// A fabricated conclusive result (no trace, so no model replay needed).
JobResult holds_result(const JobSpec& spec, std::uint64_t states) {
  JobResult r;
  r.digest = spec.digest();
  r.property = spec.property;
  r.verdict = mc::Verdict::kHolds;
  r.stats.states_explored = states;
  r.stats.transitions = states * 9;
  r.stats.max_depth = 40;
  r.stats.seconds = 0.25;
  return r;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

TEST(PersistentCache, ResultsSurviveRestart) {
  const std::string dir = test_dir();
  const JobSpec spec =
      spec_for(guardian::Authority::kPassive, Property::kNoIntegratedNodeFreezes);
  {
    PersistentCache cache(PersistentCacheConfig{dir, 1024});
    cache.insert(spec, holds_result(spec, 110'956));
    EXPECT_EQ(cache.size(), 1u);
  }
  Metrics metrics;
  PersistentCache reopened(PersistentCacheConfig{dir, 1024}, &metrics);
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.recovery().entries, 1u);
  EXPECT_EQ(metrics.persistent_recovered.load(), 1u);

  JobResult out;
  ASSERT_TRUE(reopened.lookup(spec, &out));
  EXPECT_TRUE(out.from_cache);
  EXPECT_TRUE(out.from_persistent);
  EXPECT_EQ(out.verdict, mc::Verdict::kHolds);
  EXPECT_EQ(out.stats.states_explored, 110'956u);
  EXPECT_EQ(out.digest, spec.digest());
}

TEST(PersistentCache, InconclusiveAndDivergenceAreNeverStored) {
  const std::string dir = test_dir();
  PersistentCache cache(PersistentCacheConfig{dir, 1024});
  const JobSpec spec =
      spec_for(guardian::Authority::kPassive, Property::kNoIntegratedNodeFreezes);
  JobResult r = holds_result(spec, 10);
  r.verdict = mc::Verdict::kInconclusive;
  cache.insert(spec, r);
  r.verdict = mc::Verdict::kEngineDivergence;
  cache.insert(spec, r);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PersistentCache, LookupBindsToTheQueryNotJustTheDigest) {
  const std::string dir = test_dir();
  PersistentCache cache(PersistentCacheConfig{dir, 1024});
  const JobSpec stored =
      spec_for(guardian::Authority::kPassive, Property::kNoIntegratedNodeFreezes);
  cache.insert(stored, holds_result(stored, 42));

  JobResult out;
  JobSpec other = stored;
  other.max_states = 12'345;  // different budget => different query
  EXPECT_FALSE(cache.lookup(other, &out));
  EXPECT_TRUE(cache.lookup(stored, &out));
}

TEST(PersistentCache, UnknownEngineByteIsASoftMiss) {
  // A record stores JobResult::engine_used as one byte. A byte no current
  // EngineChoice owns (4 belonged to a removed engine, 0xFF to none) must
  // not be served with engine "?": decode rejects it, and a lookup erases
  // the entry, counts it corrupt and misses, so the job is recomputed.
  const std::string dir = test_dir();
  std::vector<JobSpec> specs;
  {
    PersistentCache cache(PersistentCacheConfig{dir, 1024});
    for (const std::uint8_t byte : {std::uint8_t{4}, std::uint8_t{0xFF}}) {
      const JobSpec spec =
          spec_for(guardian::Authority::kPassive,
                   Property::kNoIntegratedNodeFreezes, 3'000 + byte);
      JobResult result = holds_result(spec, 9);
      result.engine_used = static_cast<EngineChoice>(byte);
      const std::vector<std::uint8_t> bytes = encode_result(spec, result);
      JobResult decoded;
      EXPECT_FALSE(decode_result(spec, bytes.data(), bytes.size(), &decoded))
          << "engine byte " << +byte;
      cache.insert(spec, result);
      specs.push_back(spec);
    }
  }
  // Every current engine still decodes.
  const JobSpec spec =
      spec_for(guardian::Authority::kPassive, Property::kNoIntegratedNodeFreezes);
  for (const EngineChoice engine :
       {EngineChoice::kSerial, EngineChoice::kParallel, EngineChoice::kAuto,
        EngineChoice::kRedundant}) {
    JobResult result = holds_result(spec, 9);
    result.engine_used = engine;
    const std::vector<std::uint8_t> bytes = encode_result(spec, result);
    JobResult decoded;
    ASSERT_TRUE(decode_result(spec, bytes.data(), bytes.size(), &decoded))
        << to_string(engine);
    EXPECT_EQ(decoded.engine_used, engine);
  }

  Metrics metrics;
  PersistentCache reopened(PersistentCacheConfig{dir, 1024}, &metrics);
  EXPECT_EQ(reopened.size(), 2u);  // recovery indexes by digest alone
  for (const JobSpec& s : specs) {
    JobResult out;
    EXPECT_FALSE(reopened.lookup(s, &out));
  }
  EXPECT_EQ(reopened.size(), 0u);
  EXPECT_EQ(metrics.persistent_corrupt_records.load(), 2u);
}

TEST(PersistentCache, TruncatedJournalTailRecoversPrefixAndCountsDamage) {
  const std::string dir = test_dir();
  std::string journal;
  std::vector<JobSpec> specs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    specs.push_back(spec_for(guardian::Authority::kPassive,
                             Property::kNoIntegratedNodeFreezes,
                             1'000 + i));
  }
  {
    PersistentCache cache(PersistentCacheConfig{dir, 1024});
    journal = cache.journal_path();
    for (const JobSpec& s : specs) cache.insert(s, holds_result(s, 7));
  }
  // Tear the last record, as a SIGKILL mid-append would.
  auto data = read_file(journal);
  data.resize(data.size() - 3);
  write_file(journal, data);

  Metrics metrics;
  PersistentCache reopened(PersistentCacheConfig{dir, 1024}, &metrics);
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_EQ(reopened.recovery().truncated_records, 1u);
  EXPECT_GT(reopened.recovery().quarantined_bytes, 0u);
  EXPECT_EQ(metrics.persistent_truncated_records.load(), 1u);
  EXPECT_GT(metrics.persistent_quarantined_bytes.load(), 0u);

  JobResult out;
  EXPECT_TRUE(reopened.lookup(specs[0], &out));
  EXPECT_TRUE(reopened.lookup(specs[2], &out));
  EXPECT_FALSE(reopened.lookup(specs[3], &out));  // the torn one

  // The quarantined tail was physically truncated, so re-inserting the
  // lost record makes the journal whole again.
  reopened.insert(specs[3], holds_result(specs[3], 7));
  Metrics metrics2;
  PersistentCache third(PersistentCacheConfig{dir, 1024}, &metrics2);
  EXPECT_EQ(third.size(), 4u);
  EXPECT_EQ(metrics2.persistent_truncated_records.load(), 0u);
}

TEST(PersistentCache, BitFlippedRecordIsQuarantinedNotACrash) {
  const std::string dir = test_dir();
  std::string journal;
  std::vector<JobSpec> specs;
  for (std::uint64_t i = 0; i < 3; ++i) {
    specs.push_back(spec_for(guardian::Authority::kPassive,
                             Property::kNoIntegratedNodeFreezes,
                             2'000 + i));
  }
  {
    PersistentCache cache(PersistentCacheConfig{dir, 1024});
    journal = cache.journal_path();
    for (const JobSpec& s : specs) cache.insert(s, holds_result(s, 5));
  }
  auto data = read_file(journal);
  data[data.size() / 2] ^= 0x08;  // middle of the second record
  write_file(journal, data);

  Metrics metrics;
  PersistentCache reopened(PersistentCacheConfig{dir, 1024}, &metrics);
  EXPECT_LT(reopened.size(), 3u);
  EXPECT_EQ(reopened.recovery().corrupt_records, 1u);
  EXPECT_EQ(metrics.persistent_corrupt_records.load(), 1u);
  EXPECT_GT(metrics.persistent_quarantined_bytes.load(), 0u);
  JobResult out;
  EXPECT_TRUE(reopened.lookup(specs[0], &out));  // before the damage
}

TEST(PersistentCache, EmptySnapshotFileIsHarmless) {
  const std::string dir = test_dir();
  const JobSpec spec =
      spec_for(guardian::Authority::kPassive, Property::kNoIntegratedNodeFreezes);
  {
    PersistentCache cache(PersistentCacheConfig{dir, 1024});
    write_file(cache.snapshot_path(), {});  // zero-length snapshot
    cache.insert(spec, holds_result(spec, 3));
  }
  Metrics metrics;
  PersistentCache reopened(PersistentCacheConfig{dir, 1024}, &metrics);
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(metrics.persistent_corrupt_records.load(), 0u);
  EXPECT_EQ(metrics.persistent_truncated_records.load(), 0u);
}

TEST(PersistentCache, CompactionMovesEntriesToSnapshotAndTruncatesJournal) {
  const std::string dir = test_dir();
  Metrics metrics;
  PersistentCache cache(PersistentCacheConfig{dir, 1024}, &metrics);
  std::vector<JobSpec> specs;
  for (std::uint64_t i = 0; i < 8; ++i) {
    specs.push_back(spec_for(guardian::Authority::kPassive,
                             Property::kNoIntegratedNodeFreezes,
                             3'000 + i));
    cache.insert(specs.back(), holds_result(specs.back(), i));
  }
  cache.compact();
  EXPECT_EQ(metrics.persistent_compactions.load(), 1u);
  EXPECT_GT(std::filesystem::file_size(cache.snapshot_path()), 0u);
  EXPECT_EQ(std::filesystem::file_size(cache.journal_path()), 0u);

  Metrics metrics2;
  PersistentCache reopened(PersistentCacheConfig{dir, 1024}, &metrics2);
  EXPECT_EQ(reopened.size(), 8u);
  JobResult out;
  for (const JobSpec& s : specs) EXPECT_TRUE(reopened.lookup(s, &out));
}

TEST(PersistentCache, AutomaticCompactionAfterConfiguredAppends) {
  const std::string dir = test_dir();
  Metrics metrics;
  PersistentCache cache(PersistentCacheConfig{dir, /*compact_after=*/4},
                        &metrics);
  for (std::uint64_t i = 0; i < 9; ++i) {
    const JobSpec s = spec_for(guardian::Authority::kPassive,
                               Property::kNoIntegratedNodeFreezes, 4'000 + i);
    cache.insert(s, holds_result(s, i));
  }
  EXPECT_GE(metrics.persistent_compactions.load(), 2u);
  PersistentCache reopened(PersistentCacheConfig{dir, 4});
  EXPECT_EQ(reopened.size(), 9u);
}

TEST(PersistentCache, TraceRecordsReplayToTheSameCounterexample) {
  // Run a real violated query once, persist it, reopen, and compare the
  // replayed trace state-for-state against the engine's original.
  const std::string dir = test_dir();
  JobSpec spec = spec_for(guardian::Authority::kFullShifting,
                          Property::kNoIntegratedNodeFreezes);
  spec.model.max_out_of_slot_errors = 1;
  spec.engine = EngineChoice::kSerial;

  VerificationService service{ServiceConfig{}};
  const JobResult original = service.run(spec);
  ASSERT_EQ(original.verdict, mc::Verdict::kViolated);
  ASSERT_FALSE(original.trace.empty());

  {
    PersistentCache cache(PersistentCacheConfig{dir, 1024});
    cache.insert(spec, original);
  }
  PersistentCache reopened(PersistentCacheConfig{dir, 1024});
  JobResult replayed;
  ASSERT_TRUE(reopened.lookup(spec, &replayed));
  EXPECT_EQ(replayed.verdict, mc::Verdict::kViolated);
  EXPECT_EQ(replayed.stats.states_explored, original.stats.states_explored);
  ASSERT_EQ(replayed.trace.size(), original.trace.size());

  mc::TtpcStarModel model(spec.model);
  for (std::size_t i = 0; i < original.trace.size(); ++i) {
    EXPECT_EQ(model.pack(replayed.trace[i].before),
              model.pack(original.trace[i].before))
        << i;
    EXPECT_EQ(model.pack(replayed.trace[i].after),
              model.pack(original.trace[i].after))
        << i;
  }
  // The replayed trace must still demonstrate the violation.
  auto violation = mc::no_integrated_node_freezes();
  const mc::TraceStep& last = replayed.trace.back();
  EXPECT_TRUE(violation(last.before, last.after));
}

/// Fail-point injection into the persistence path (journal + compaction).
/// Disarms on exit so the plain suites sharing this process stay clean.
class PersistentCacheFaultTest : public testing::Test {
 protected:
  void TearDown() override { util::FailPoints::instance().disarm_all(); }

  void arm(const char* config) {
    std::string error;
    ASSERT_TRUE(util::FailPoints::instance().arm(config, &error)) << error;
  }
};

TEST_F(PersistentCacheFaultTest, EnospcAppendIsCountedAndRetriedByCompaction) {
  const std::string dir = test_dir();
  Metrics metrics;
  PersistentCache cache(PersistentCacheConfig{dir, 1024}, &metrics);
  const JobSpec spec = spec_for(guardian::Authority::kPassive,
                                Property::kNoIntegratedNodeFreezes);

  // The journal append fails once (ENOSPC); insert must not lose the
  // entry — it counts the error and compacts eagerly, which lands the
  // record in the snapshot instead.
  arm("journal.append.enospc=error:hits(1,1)");
  cache.insert(spec, holds_result(spec, 4'242));
  EXPECT_GE(metrics.persistent_io_errors.load(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  JobResult out;
  ASSERT_TRUE(cache.lookup(spec, &out));
  EXPECT_EQ(out.stats.states_explored, 4'242u);

  // And the entry is durable: a reopen recovers it from disk.
  Metrics metrics2;
  PersistentCache reopened(PersistentCacheConfig{dir, 1024}, &metrics2);
  EXPECT_EQ(reopened.size(), 1u);
  ASSERT_TRUE(reopened.lookup(spec, &out));
  EXPECT_TRUE(out.from_persistent);
}

TEST_F(PersistentCacheFaultTest, FsyncFailureMidCompactionKeepsOldState) {
  const std::string dir = test_dir();
  const JobSpec a = spec_for(guardian::Authority::kPassive,
                             Property::kNoIntegratedNodeFreezes, 1'000);
  const JobSpec b = spec_for(guardian::Authority::kTimeWindows,
                             Property::kNoIntegratedNodeFreezes, 2'000);
  {
    Metrics metrics;
    PersistentCache cache(PersistentCacheConfig{dir, 1024}, &metrics);
    cache.insert(a, holds_result(a, 1));
    cache.insert(b, holds_result(b, 2));

    // The snapshot fsync fails mid-compaction: the old snapshot + journal
    // stay authoritative, the failure is counted, and every entry is
    // still served — no data moved, none lost.
    arm("journal.sync=error");
    cache.compact();
    util::FailPoints::instance().disarm_all();
    EXPECT_GE(metrics.persistent_io_errors.load(), 1u);
    JobResult out;
    EXPECT_TRUE(cache.lookup(a, &out));
    EXPECT_TRUE(cache.lookup(b, &out));
  }

  // A reopen after the failed compaction recovers both entries from the
  // untouched journal, damage-free.
  Metrics metrics2;
  PersistentCache reopened(PersistentCacheConfig{dir, 1024}, &metrics2);
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.recovery().corrupt_records, 0u);
  EXPECT_EQ(reopened.recovery().truncated_records, 0u);

  // The next clean compaction succeeds and publishes the snapshot.
  reopened.compact();
  EXPECT_GT(std::filesystem::file_size(reopened.snapshot_path()), 0u);
}

TEST_F(PersistentCacheFaultTest, RenameFailureMidCompactionKeepsOldState) {
  const std::string dir = test_dir();
  const JobSpec spec = spec_for(guardian::Authority::kPassive,
                                Property::kNoIntegratedNodeFreezes);
  {
    Metrics metrics;
    PersistentCache cache(PersistentCacheConfig{dir, 1024}, &metrics);
    cache.insert(spec, holds_result(spec, 7));

    // The atomic publish (tmp -> snapshot rename) fails: counted, tmp
    // removed, old state authoritative.
    arm("cache.compact.rename=error:hits(1,1)");
    cache.compact();
    EXPECT_GE(metrics.persistent_io_errors.load(), 1u);
    EXPECT_FALSE(std::filesystem::exists(cache.snapshot_path() + ".tmp"));
    JobResult out;
    EXPECT_TRUE(cache.lookup(spec, &out));
  }

  Metrics metrics2;
  PersistentCache reopened(PersistentCacheConfig{dir, 1024}, &metrics2);
  EXPECT_EQ(reopened.size(), 1u);
}

TEST_F(PersistentCacheFaultTest, TornJournalAppendRecoversThePrefix) {
  const std::string dir = test_dir();
  const JobSpec a = spec_for(guardian::Authority::kPassive,
                             Property::kNoIntegratedNodeFreezes, 1'000);
  const JobSpec b = spec_for(guardian::Authority::kTimeWindows,
                             Property::kNoIntegratedNodeFreezes, 2'000);
  {
    Metrics metrics;
    PersistentCache cache(PersistentCacheConfig{dir, 1024}, &metrics);
    cache.insert(a, holds_result(a, 1));
    // The journal append for `b` tears 9 bytes in (simulated crash).
    // The insert path reacts by compacting eagerly — which is exactly
    // what wins durability back for `b` — so arm the rename fault too,
    // keeping the compaction from rescuing the record: the torn tail
    // must actually reach the next recovery scan.
    arm("journal.append.torn=short-io(9):hits(1,1);"
        "cache.compact.rename=error");
    cache.insert(b, holds_result(b, 2));
    EXPECT_GE(metrics.persistent_io_errors.load(), 1u);
  }
  util::FailPoints::instance().disarm_all();

  // Recovery: `a` survives, the torn frame for `b` is quarantined and
  // counted — never a crash.
  Metrics metrics;
  PersistentCache reopened(PersistentCacheConfig{dir, 1024}, &metrics);
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.recovery().truncated_records, 1u);
  EXPECT_GT(reopened.recovery().quarantined_bytes, 0u);
  JobResult out;
  EXPECT_TRUE(reopened.lookup(a, &out));
  EXPECT_FALSE(reopened.lookup(b, &out));
  EXPECT_GE(metrics.persistent_truncated_records.load(), 1u);
}

}  // namespace
}  // namespace tta::svc
