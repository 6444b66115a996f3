// The mc::Engine interface and the service's engine factory: kAuto
// resolution against the cost threshold (also reached by the legacy
// "engine":"swarm" hint), serial/parallel bit-identity
// through the uniform run() surface, the redundant composition's
// cross-checked answers, query construction for every property, and the
// answers owed to lines written for the removed swarm engine.
// Labeled `parallel`: the parallel and redundant engines spawn threads.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "mc/engine.h"
#include "svc/engine_factory.h"
#include "svc/wire.h"

namespace tta::svc {
namespace {

JobSpec spec_for(guardian::Authority a, Property p, std::uint8_t nodes = 3) {
  JobSpec spec;
  spec.model.authority = a;
  spec.model.protocol.num_nodes = nodes;
  spec.model.protocol.num_slots = nodes;
  spec.property = p;
  return spec;
}

TEST(EngineFactory, AutoResolvesByEstimatedCost) {
  JobSpec spec = spec_for(guardian::Authority::kPassive,
                          Property::kNoIntegratedNodeFreezes);
  spec.engine = EngineChoice::kAuto;

  ServiceConfig cheap_threshold;
  cheap_threshold.auto_parallel_threshold = 1.0;  // everything is "big"
  EXPECT_EQ(make_engine(spec, cheap_threshold).resolved,
            EngineChoice::kParallel);

  ServiceConfig huge_threshold;
  huge_threshold.auto_parallel_threshold = 1e18;  // nothing is "big"
  EXPECT_EQ(make_engine(spec, huge_threshold).resolved,
            EngineChoice::kSerial);

  // "engine":"swarm" names the removed swarm engine; the wire reads it as
  // auto, so it resolves exactly as auto does on either side of the
  // threshold.
  JobSpec swarm_line;
  JobSpec auto_line;
  std::string error;
  ASSERT_TRUE(parse_job_line(R"({"nodes": 3, "engine": "swarm"})",
                             &swarm_line, &error))
      << error;
  ASSERT_TRUE(parse_job_line(R"({"nodes": 3, "engine": "auto"})", &auto_line,
                             &error))
      << error;
  for (const ServiceConfig* config : {&cheap_threshold, &huge_threshold}) {
    const EngineSelection from_swarm = make_engine(swarm_line, *config);
    const EngineSelection from_auto = make_engine(auto_line, *config);
    EXPECT_EQ(from_swarm.resolved, from_auto.resolved);
    EXPECT_STREQ(from_swarm.engine->name(), from_auto.engine->name());
  }
}

TEST(EngineFactory, ExplicitChoicesMapToTheirEngines) {
  JobSpec spec = spec_for(guardian::Authority::kPassive,
                          Property::kNoIntegratedNodeFreezes);
  ServiceConfig config;

  spec.engine = EngineChoice::kSerial;
  EngineSelection serial = make_engine(spec, config);
  EXPECT_EQ(serial.resolved, EngineChoice::kSerial);
  EXPECT_STREQ(serial.engine->name(), "serial");
  EXPECT_TRUE(serial.engine->supports_checkpoint());

  spec.engine = EngineChoice::kParallel;
  EngineSelection parallel = make_engine(spec, config);
  EXPECT_EQ(parallel.resolved, EngineChoice::kParallel);
  EXPECT_STREQ(parallel.engine->name(), "parallel");

  spec.engine = EngineChoice::kRedundant;
  EngineSelection redundant = make_engine(spec, config);
  EXPECT_EQ(redundant.resolved, EngineChoice::kRedundant);
  EXPECT_STREQ(redundant.engine->name(), "redundant");
  // Two engines must never share one checkpoint file.
  EXPECT_FALSE(redundant.engine->supports_checkpoint());
}

TEST(Engine, SerialAndParallelAreBitIdenticalThroughTheInterface) {
  for (Property property : {Property::kNoIntegratedNodeFreezes,
                            Property::kAllActiveReachable,
                            Property::kRecoverability}) {
    const JobSpec spec =
        spec_for(guardian::Authority::kSmallShifting, property);
    mc::TtpcStarModel model(spec.model);
    const mc::EngineQuery query = make_engine_query(spec, model);

    const mc::EngineResult serial =
        mc::SerialEngine().run(model, query, nullptr, nullptr);
    const mc::EngineResult parallel =
        mc::ParallelEngine(4).run(model, query, nullptr, nullptr);

    EXPECT_EQ(serial.verdict, parallel.verdict) << to_string(property);
    EXPECT_EQ(serial.stats.states_explored, parallel.stats.states_explored);
    EXPECT_EQ(serial.stats.transitions, parallel.stats.transitions);
    EXPECT_EQ(serial.stats.max_depth, parallel.stats.max_depth);
    EXPECT_EQ(serial.dead_states, parallel.dead_states);
    EXPECT_EQ(serial.trace.size(), parallel.trace.size());
    EXPECT_FALSE(serial.redundant);
  }
}

TEST(Engine, SafetyQueriesAnswerTheSection52Dichotomy) {
  const JobSpec safe = spec_for(guardian::Authority::kSmallShifting,
                                Property::kNoIntegratedNodeFreezes);
  mc::TtpcStarModel safe_model(safe.model);
  EXPECT_EQ(mc::SerialEngine()
                .run(safe_model, make_engine_query(safe, safe_model),
                     nullptr, nullptr)
                .verdict,
            mc::Verdict::kHolds);

  JobSpec unsafe = spec_for(guardian::Authority::kFullShifting,
                            Property::kNoIntegratedNodeFreezes, 4);
  mc::TtpcStarModel unsafe_model(unsafe.model);
  const mc::EngineResult violated = mc::SerialEngine().run(
      unsafe_model, make_engine_query(unsafe, unsafe_model), nullptr,
      nullptr);
  EXPECT_EQ(violated.verdict, mc::Verdict::kViolated);
  EXPECT_FALSE(violated.trace.empty());
}

TEST(Engine, RedundantCompositionAgreesWithItsReference) {
  const JobSpec spec = spec_for(guardian::Authority::kPassive,
                                Property::kNoIntegratedNodeFreezes);
  mc::TtpcStarModel model(spec.model);
  const mc::EngineQuery query = make_engine_query(spec, model);

  const mc::EngineResult reference =
      mc::SerialEngine().run(model, query, nullptr, nullptr);
  const mc::RedundantEngine redundant(std::make_unique<mc::SerialEngine>(),
                                      std::make_unique<mc::ParallelEngine>(2));
  const mc::EngineResult merged =
      redundant.run(model, query, nullptr, nullptr);

  EXPECT_EQ(merged.verdict, reference.verdict);
  EXPECT_TRUE(merged.redundant);
  EXPECT_EQ(merged.stats.states_explored, reference.stats.states_explored);
  // Agreement implies the shadow explored the identical space.
  EXPECT_EQ(merged.secondary_stats.states_explored,
            reference.stats.states_explored);
  EXPECT_EQ(merged.secondary_stats.transitions,
            reference.stats.transitions);
}

TEST(Engine, RedundantHonorsASharedCancelToken) {
  const JobSpec spec = spec_for(guardian::Authority::kPassive,
                                Property::kNoIntegratedNodeFreezes, 4);
  mc::TtpcStarModel model(spec.model);
  const mc::EngineQuery query = make_engine_query(spec, model);

  util::CancelToken token;
  token.request_cancel();
  const mc::RedundantEngine redundant(std::make_unique<mc::SerialEngine>(),
                                      std::make_unique<mc::ParallelEngine>(2));
  const mc::EngineResult res = redundant.run(model, query, &token, nullptr);
  EXPECT_EQ(res.verdict, mc::Verdict::kInconclusive);
  EXPECT_TRUE(res.stats.cancelled);
}

TEST(EngineFactory, QueryKindsFollowTheProperty) {
  const ServiceConfig config;
  JobSpec spec = spec_for(guardian::Authority::kPassive,
                          Property::kNoIntegratedNodeFreezes);
  mc::TtpcStarModel model(spec.model);

  EXPECT_EQ(make_engine_query(spec, model).kind,
            mc::EngineQuery::Kind::kSafetyCheck);
  spec.property = Property::kAllActiveReachable;
  EXPECT_EQ(make_engine_query(spec, model).kind,
            mc::EngineQuery::Kind::kFindState);
  spec.property = Property::kRecoverability;
  EXPECT_EQ(make_engine_query(spec, model).kind,
            mc::EngineQuery::Kind::kRecoverability);
}


// A line written for the removed swarm engine ("engine":"swarm", often with
// a "seed") now runs on whatever auto picks. It is still owed what that
// engine promised: the serial BFS's verdict, statistics and shortest trace
// for every seed, HOLDS only from an exhaustive sweep, and an honest
// inconclusive when cancelled or out of budget. Each case runs on both
// sides of the auto threshold, so both engines auto can build answer it.
struct SwarmLineCase {
  const char* name;
  const char* keys;  // appended to {"engine": "swarm", "nodes": 4,
  bool cancelled;    // run under a pre-cancelled token
  mc::Verdict verdict;
};

class SwarmLine : public ::testing::TestWithParam<SwarmLineCase> {};

TEST_P(SwarmLine, AnswersAsTheSerialBfs) {
  const SwarmLineCase& c = GetParam();
  const std::string line =
      std::string(R"({"engine": "swarm", "nodes": 4, )") + c.keys + "}";
  JobSpec spec;
  std::string error;
  ASSERT_TRUE(parse_job_line(line, &spec, &error)) << line << ": " << error;
  ASSERT_EQ(spec.engine, EngineChoice::kAuto);

  mc::TtpcStarModel model(spec.model);
  const mc::EngineQuery query = make_engine_query(spec, model);
  util::CancelToken token;
  if (c.cancelled) token.request_cancel();
  const mc::EngineResult serial =
      mc::SerialEngine().run(model, query, &token, nullptr);
  ASSERT_EQ(serial.verdict, c.verdict);

  for (const double threshold : {1e18, 1.0}) {
    ServiceConfig config;
    config.auto_parallel_threshold = threshold;
    const EngineSelection selection = make_engine(spec, config);
    SCOPED_TRACE(to_string(selection.resolved));
    const mc::EngineResult got =
        selection.engine->run(model, query, &token, nullptr);
    EXPECT_EQ(got.verdict, c.verdict);
    EXPECT_EQ(got.stats.cancelled, c.cancelled);
    EXPECT_EQ(got.stats.exhausted, serial.stats.exhausted);
    EXPECT_EQ(got.trace.size(), serial.trace.size());
    // A bail stops at an engine-specific point; only a conclusive answer
    // has canonical counts.
    if (c.verdict == mc::Verdict::kInconclusive) continue;
    EXPECT_EQ(got.stats.states_explored, serial.stats.states_explored);
    EXPECT_EQ(got.stats.transitions, serial.stats.transitions);
    EXPECT_EQ(got.stats.max_depth, serial.stats.max_depth);
    EXPECT_EQ(got.dead_states, serial.dead_states);
    EXPECT_NE(mc::cross_check(serial, got).verdict,
              mc::Verdict::kEngineDivergence);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LegacyLines, SwarmLine,
    ::testing::Values(
        SwarmLineCase{"violated_seed1",
                      R"("authority": "full_shifting", "seed": 1)", false,
                      mc::Verdict::kViolated},
        SwarmLineCase{"violated_seed2",
                      R"("authority": "full_shifting", "seed": 2)", false,
                      mc::Verdict::kViolated},
        SwarmLineCase{"violated_seed3",
                      R"("authority": "full_shifting", "seed": 3)", false,
                      mc::Verdict::kViolated},
        SwarmLineCase{"holds", R"("authority": "small_shifting", "seed": 99)",
                      false, mc::Verdict::kHolds},
        SwarmLineCase{"reach_all_active",
                      R"("authority": "small_shifting", "seed": 5, )"
                      R"("property": "reach_all_active")",
                      false, mc::Verdict::kViolated},  // a witness
        SwarmLineCase{"recoverability",
                      R"("authority": "small_shifting", "seed": 11, )"
                      R"("property": "recoverability")",
                      false, mc::Verdict::kHolds},
        SwarmLineCase{"pre_cancelled",
                      R"("authority": "full_shifting", "seed": 1)", true,
                      mc::Verdict::kInconclusive},
        SwarmLineCase{"budget_bail",
                      R"("authority": "small_shifting", "seed": 21, )"
                      R"("max_states": 500)",
                      false, mc::Verdict::kInconclusive}),
    [](const auto& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace tta::svc
