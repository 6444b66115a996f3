// JobSpec canonical encoding, digest stability, cost model, and the
// JSON-lines parser used by tta_verify_batch.
#include <gtest/gtest.h>

#include "svc/job_spec.h"
#include "svc/wire.h"
#include "util/digest.h"

namespace tta::svc {
namespace {

JobSpec spec_for(guardian::Authority a) {
  JobSpec spec;
  spec.model.authority = a;
  spec.property = Property::kNoIntegratedNodeFreezes;
  return spec;
}

TEST(JobSpec, CanonicalEncodingIsVersionedAndDeterministic) {
  JobSpec spec = spec_for(guardian::Authority::kPassive);
  auto bytes = spec.canonical_bytes();
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes[0], 1u);  // format version
  EXPECT_EQ(bytes, spec.canonical_bytes());
}

TEST(JobSpec, DigestIsStableAcrossProcessRuns) {
  // Known-answer digests for the four E1 cells with default model options.
  // These are cache keys: they must be identical in every process and on
  // every build, or a persisted/shared cache would silently re-verify.
  // If this test fails, either the canonical encoding changed without a
  // version-byte bump, or a ModelConfig default changed (which re-keys
  // every cached result — bump the version byte and re-pin).
  EXPECT_EQ(util::digest_hex(spec_for(guardian::Authority::kPassive).digest()),
            "221e92ae876e7849");
  EXPECT_EQ(
      util::digest_hex(spec_for(guardian::Authority::kTimeWindows).digest()),
      "1e6b526deb0317d2");
  EXPECT_EQ(
      util::digest_hex(spec_for(guardian::Authority::kSmallShifting).digest()),
      "d71b23a6af9d863f");
  EXPECT_EQ(
      util::digest_hex(spec_for(guardian::Authority::kFullShifting).digest()),
      "c5ad33433f8bfb00");
}

TEST(JobSpec, DigestCoversSemanticFieldsOnly) {
  const JobSpec base = spec_for(guardian::Authority::kFullShifting);

  // Execution hints must not re-key the cache: either engine at any thread
  // count or deadline answers the same semantic query.
  JobSpec hints = base;
  hints.engine = EngineChoice::kParallel;
  hints.threads = 8;
  hints.deadline_ms = 1234;
  hints.table_backend = mc::TableBackend::kCompact;
  EXPECT_EQ(hints.digest(), base.digest());

  // Semantic fields must re-key.
  JobSpec other = base;
  other.property = Property::kRecoverability;
  EXPECT_NE(other.digest(), base.digest());
  other = base;
  other.max_states = 1'000;
  EXPECT_NE(other.digest(), base.digest());
  other = base;
  other.model.max_out_of_slot_errors = 1;
  EXPECT_NE(other.digest(), base.digest());
  other = base;
  other.model.protocol.allow_reinit = !other.model.protocol.allow_reinit;
  EXPECT_NE(other.digest(), base.digest());
}

TEST(JobSpec, OutOfSlotBudgetSaturatesLikeTheModel) {
  // The packed state stores min(oos, 7); budgets past that are equivalent
  // queries and must share a digest.
  JobSpec a = spec_for(guardian::Authority::kFullShifting);
  JobSpec b = a;
  a.model.max_out_of_slot_errors = 7;
  b.model.max_out_of_slot_errors = 100;
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(JobSpec, CostModelOrdersTheObviousCases) {
  JobSpec small = spec_for(guardian::Authority::kPassive);
  JobSpec large = small;
  large.model.protocol.num_nodes = 5;
  large.model.protocol.num_slots = 5;
  EXPECT_LT(small.estimated_cost(), large.estimated_cost());

  // Buffering enlarges the space (replay interleavings).
  EXPECT_LT(small.estimated_cost(),
            spec_for(guardian::Authority::kFullShifting).estimated_cost());

  // Recoverability adds a second pass over the graph.
  JobSpec recov = small;
  recov.property = Property::kRecoverability;
  EXPECT_LT(small.estimated_cost(), recov.estimated_cost());

  // Disabling transient fault modes shrinks the space.
  JobSpec lean = small;
  lean.model.allow_silence_fault = false;
  lean.model.allow_bad_frame_fault = false;
  EXPECT_LT(lean.estimated_cost(), small.estimated_cost());
}

TEST(JobSpecParse, AcceptsFullJobLine) {
  JobSpec spec;
  std::string error;
  ASSERT_TRUE(parse_job_line(
      R"({"authority": "full_shifting", "property": "recoverability",)"
      R"( "engine": "parallel", "nodes": 5, "max_oos": 1,)"
      R"( "allow_reinit": false, "max_states": 1000000,)"
      R"( "deadline_ms": 250, "threads": 4})",
      &spec, &error))
      << error;
  EXPECT_EQ(spec.model.authority, guardian::Authority::kFullShifting);
  EXPECT_EQ(spec.property, Property::kRecoverability);
  EXPECT_EQ(spec.engine, EngineChoice::kParallel);
  EXPECT_EQ(spec.model.protocol.num_nodes, 5u);
  EXPECT_GE(spec.model.protocol.num_slots, 5u);
  EXPECT_EQ(spec.model.max_out_of_slot_errors, 1u);
  EXPECT_FALSE(spec.model.protocol.allow_reinit);
  EXPECT_EQ(spec.max_states, 1'000'000u);
  EXPECT_EQ(spec.deadline_ms, 250u);
  EXPECT_EQ(spec.threads, 4u);
}

TEST(JobSpecParse, TableBackendIsAnExecutionHint) {
  // "table" selects the visited-table layout; like engine/threads it must
  // parse, steer execution, and stay out of the semantic digest.
  JobSpec spec;
  std::string error;
  ASSERT_TRUE(parse_job_line(R"({"authority": "passive", "table": "compact"})",
                             &spec, &error))
      << error;
  EXPECT_EQ(spec.table_backend, mc::TableBackend::kCompact);
  EXPECT_EQ(spec.digest(), spec_for(guardian::Authority::kPassive).digest());

  ASSERT_TRUE(parse_job_line(R"({"authority": "passive", "table": "flat"})",
                             &spec, &error))
      << error;
  EXPECT_EQ(spec.table_backend, mc::TableBackend::kFlat);

  EXPECT_FALSE(parse_job_line(R"({"authority": "passive", "table": "tiny"})",
                              &spec, &error));
  EXPECT_FALSE(parse_job_line(R"({"authority": "passive", "table": 1})",
                              &spec, &error));
}

TEST(JobSpecParse, DefaultsMatchDefaultSpec) {
  JobSpec parsed;
  std::string error;
  ASSERT_TRUE(parse_job_line(R"({"authority": "passive"})", &parsed, &error))
      << error;
  EXPECT_EQ(parsed.digest(), spec_for(guardian::Authority::kPassive).digest());

  // Keys that steered the removed swarm engine still parse to the default
  // spec, as job lines and as wire requests: "engine":"swarm" as auto and
  // a verification "seed" as nothing. No client line is rejected and no
  // cache key moves.
  for (const char* line : {R"({"authority": "passive", "engine": "swarm"})",
                           R"({"authority": "passive", "seed": 9})"}) {
    JobSpec spec;
    ASSERT_TRUE(parse_job_line(line, &spec, &error)) << line << ": " << error;
    EXPECT_EQ(spec.engine, EngineChoice::kAuto) << line;
    EXPECT_EQ(spec.digest(), parsed.digest()) << line;
    WireRequest request;
    ASSERT_TRUE(parse_request_line(line, &request, &error))
        << line << ": " << error;
    EXPECT_EQ(request.spec.engine, EngineChoice::kAuto) << line;
    EXPECT_EQ(request.spec.digest(), parsed.digest()) << line;
  }
}

TEST(JobSpecParse, RejectsMalformedInput) {
  JobSpec spec;
  std::string error;
  // Unknown keys are almost always typos — hard error, not a warning.
  EXPECT_FALSE(parse_job_line(R"({"authorty": "passive"})", &spec, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_job_line(R"({"authority": "buffered"})", &spec, &error));
  EXPECT_FALSE(parse_job_line(R"({"property": "liveness"})", &spec, &error));
  EXPECT_FALSE(parse_job_line(R"({"nodes": 7})", &spec, &error));  // > kMaxNodes
  EXPECT_FALSE(parse_job_line(R"({"nodes": 4, "slots": 2})", &spec, &error));
  EXPECT_FALSE(parse_job_line(R"({"max_oos": 9})", &spec, &error));
  EXPECT_FALSE(parse_job_line("not json", &spec, &error));
  EXPECT_FALSE(parse_job_line(R"({"authority": "passive"} extra)", &spec,
                              &error));
  EXPECT_FALSE(parse_job_line(R"({"authority": "passive")", &spec, &error));
}

}  // namespace
}  // namespace tta::svc
