// The campaign job kind end-to-end at the service layer: the JSON grammar
// (kind-scoped key sets, field+offset errors), the versioned canonical
// encoding with known-answer digest pins, verdict mapping against the fail
// bound, conclusive-only caching, and campaign progress through the async
// session. Labeled `parallel` + `async` (the TSan job runs both).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "svc/async_service.h"
#include "svc/engine_factory.h"
#include "svc/job_result.h"
#include "svc/job_spec.h"
#include "svc/wire.h"
#include "util/digest.h"

namespace tta::svc {
namespace {

/// The pinned campaign line: the paper's 4-node dual-channel cluster under
/// probabilistic channel silence. Every semantic field is explicit so the
/// digest pin below is self-contained.
const char* kPinnedLine =
    "{\"kind\":\"campaign\",\"nodes\":4,\"channels\":2,"
    "\"criterion\":\"all_active\",\"steps\":64,\"seed\":7,"
    "\"min_trials\":256,\"max_trials\":256,\"batch\":64,"
    "\"epsilon_ppm\":1,\"fail_bound_ppm\":200000,"
    "\"faults\":\"coupler:0:silence:400000;coupler:1:silence:400000\"}";

JobSpec parse_or_die(const std::string& line) {
  JobSpec spec;
  std::string error;
  EXPECT_TRUE(parse_job_line(line, &spec, &error)) << error;
  return spec;
}

std::string parse_error(const std::string& line) {
  JobSpec spec;
  std::string error;
  EXPECT_FALSE(parse_job_line(line, &spec, &error)) << line;
  return error;
}

TEST(CampaignJobSpec, ParsesEveryCampaignKey) {
  const JobSpec spec = parse_or_die(kPinnedLine);
  EXPECT_EQ(spec.kind, JobKind::kCampaign);
  EXPECT_EQ(spec.campaign.num_nodes, 4u);
  EXPECT_EQ(spec.campaign.num_channels, 2u);
  EXPECT_EQ(spec.campaign.criterion,
            campaign::Criterion::kAllActiveReached);
  EXPECT_EQ(spec.campaign.steps, 64u);
  EXPECT_EQ(spec.campaign.seed, 7u);
  EXPECT_EQ(spec.campaign.min_trials, 256u);
  EXPECT_EQ(spec.campaign.max_trials, 256u);
  EXPECT_EQ(spec.campaign.batch_size, 64u);
  EXPECT_EQ(spec.campaign.epsilon_ppm, 1u);
  EXPECT_EQ(spec.campaign.fail_bound_ppm, 200'000u);
  ASSERT_EQ(spec.campaign.coupler_faults.size(), 2u);
  EXPECT_EQ(spec.campaign.coupler_faults[1].channel, 1);
  EXPECT_EQ(spec.campaign.coupler_faults[1].ppm, 400'000u);
  EXPECT_TRUE(spec.campaign.validate().empty());
}

TEST(CampaignJobSpec, KindMayAppearAnywhereOnTheLine) {
  // The scanner resolves "kind" before interpreting keys, so campaign-only
  // keys may precede it.
  const JobSpec spec = parse_or_die(
      "{\"seed\":3,\"faults\":\"coupler:0:silence:1000\","
      "\"kind\":\"campaign\"}");
  EXPECT_EQ(spec.kind, JobKind::kCampaign);
  EXPECT_EQ(spec.campaign.seed, 3u);
}

TEST(CampaignJobSpec, UnknownKeysNameFieldOffsetAndKind) {
  // Offset points at the opening quote of the offending key.
  const std::string line =
      "{\"kind\":\"campaign\",\"faults\":\"coupler:0:silence:1\","
      "\"stepz\":9}";
  const std::string error = parse_error(line);
  EXPECT_NE(error.find("unknown key \"stepz\""), std::string::npos) << error;
  EXPECT_NE(error.find("at offset " +
                       std::to_string(line.find("\"stepz\""))),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("for campaign jobs"), std::string::npos) << error;
}

TEST(CampaignJobSpec, KindsDoNotLeakKeysIntoEachOther) {
  // Verification-only keys are unknown for campaigns...
  EXPECT_NE(parse_error("{\"kind\":\"campaign\",\"property\":\"safety\"}")
                .find("unknown key \"property\""),
            std::string::npos);
  EXPECT_NE(parse_error("{\"kind\":\"campaign\",\"max_states\":100}")
                .find("unknown key \"max_states\""),
            std::string::npos);
  // ...and campaign-only keys are unknown for verification jobs, where
  // they have always been typos.
  EXPECT_NE(parse_error("{\"min_trials\":1}").find(
                "unknown key \"min_trials\" at offset 1 for verify jobs"),
            std::string::npos);
  EXPECT_NE(parse_error("{\"faults\":\"coupler:0:silence:1\"}")
                .find("for verify jobs"),
            std::string::npos);
  // "seed" is a shared key, but only a campaign reads it (to seed the
  // trial streams). A verification job parses it, as lines written for
  // the removed swarm engine carry it, and drops it: the digest stays.
  JobSpec verify_seeded;
  JobSpec verify_unseeded;
  std::string error;
  ASSERT_TRUE(parse_job_line("{\"seed\":9}", &verify_seeded, &error))
      << error;
  ASSERT_TRUE(parse_job_line("{}", &verify_unseeded, &error)) << error;
  EXPECT_EQ(verify_seeded.kind, JobKind::kVerify);
  EXPECT_EQ(verify_seeded.digest(), verify_unseeded.digest());
  EXPECT_NE(parse_error("{\"seed\":\"x\"}").find("bad value for \"seed\""),
            std::string::npos);
}

TEST(CampaignJobSpec, BadValuesNameFieldOffsetAndValue) {
  const std::string line =
      "{\"kind\":\"campaign\",\"faults\":\"coupler:0:silence:1\","
      "\"epsilon_ppm\":0}";
  const std::string error = parse_error(line);
  EXPECT_NE(error.find("bad value for \"epsilon_ppm\""), std::string::npos)
      << error;
  EXPECT_NE(error.find(": 0"), std::string::npos) << error;

  // Fault-dictionary errors carry the grammar's diagnosis plus the offset
  // of the "faults" key itself.
  const std::string dict_line =
      "{\"kind\":\"campaign\",\"faults\":\"node:1:warp_core:5\"}";
  const std::string dict_error = parse_error(dict_line);
  EXPECT_NE(dict_error.find("unknown node fault mode"), std::string::npos)
      << dict_error;
  EXPECT_NE(dict_error.find("at offset " + std::to_string(
                                dict_line.find("\"faults\""))),
            std::string::npos)
      << dict_error;
}

TEST(CampaignJobSpec, SharedChannelsKeySetsBothKinds) {
  const JobSpec campaign = parse_or_die(
      "{\"kind\":\"campaign\",\"channels\":1,"
      "\"faults\":\"coupler:0:silence:1\"}");
  EXPECT_EQ(campaign.campaign.num_channels, 1u);
  EXPECT_EQ(campaign.model.num_couplers, 1u);

  const JobSpec verify = parse_or_die("{\"channels\":1}");
  EXPECT_EQ(verify.kind, JobKind::kVerify);
  EXPECT_EQ(verify.model.num_couplers, 1u);
}

TEST(CampaignJobSpec, ValidationRunsAfterParsing) {
  // Well-formed JSON, inconsistent plan: the spec validator's message
  // surfaces as the parse error.
  EXPECT_NE(parse_error("{\"kind\":\"campaign\",\"min_trials\":10,"
                        "\"max_trials\":5,"
                        "\"faults\":\"coupler:0:silence:1\"}")
                .find("min_trials > max_trials"),
            std::string::npos);
  // An empty dictionary is a plan that samples nothing.
  EXPECT_NE(parse_error("{\"kind\":\"campaign\"}").find("dictionary"),
            std::string::npos);
}

TEST(CampaignJobSpec, CanonicalBytesAreVersioned) {
  const JobSpec campaign = parse_or_die(kPinnedLine);
  const std::vector<std::uint8_t> bytes = campaign.canonical_bytes();
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes[0], 0x81u);  // campaign format version

  // The paper's dual-coupler verification layout stays v1 byte-for-byte;
  // the single-coupler point re-keys under version 2 with a trailing
  // coupler-count byte.
  const JobSpec v1 = parse_or_die("{}");
  EXPECT_EQ(v1.canonical_bytes()[0], 1u);
  const JobSpec v2 = parse_or_die("{\"channels\":1}");
  EXPECT_EQ(v2.canonical_bytes()[0], 2u);
  EXPECT_EQ(v2.canonical_bytes().size(), v1.canonical_bytes().size() + 1);
  EXPECT_EQ(v2.canonical_bytes().back(), 1u);
}

TEST(CampaignJobSpec, DigestKnownAnswers) {
  // Known-answer pin for the campaign encoding: if this moves, every
  // cached campaign estimate silently re-keys — bump deliberately, never
  // accidentally.
  EXPECT_EQ(util::digest_hex(parse_or_die(kPinnedLine).digest()),
            "c4075cbe9fcf663d");
  // The single-coupler verification point (v2 layout).
  EXPECT_EQ(util::digest_hex(parse_or_die("{\"channels\":1}").digest()),
            "0326428fefbdf348");
}

TEST(CampaignJobSpec, ExecutionHintsStayOutOfTheDigest) {
  const JobSpec base = parse_or_die(kPinnedLine);
  JobSpec hints = base;
  hints.threads = 8;
  hints.deadline_ms = 1234;
  hints.engine = EngineChoice::kSerial;
  EXPECT_EQ(hints.digest(), base.digest());

  // Every semantic campaign field re-keys.
  JobSpec other = base;
  other.campaign.seed = 8;
  EXPECT_NE(other.digest(), base.digest());
  other = base;
  other.campaign.fail_bound_ppm = 300'000;
  EXPECT_NE(other.digest(), base.digest());
  other = base;
  other.campaign.coupler_faults[0].ppm = 400'001;
  EXPECT_NE(other.digest(), base.digest());
  other = base;
  other.campaign.num_channels = 1;
  other.campaign.coupler_faults.pop_back();
  EXPECT_NE(other.digest(), base.digest());
}

TEST(CampaignJobSpec, ConfigLabelNamesTheClusterShape) {
  EXPECT_EQ(config_label(parse_or_die(kPinnedLine)),
            "campaign/full_shifting/n4/m2");
}

TEST(CampaignJobSpec, WireRequestCarriesPriorityAndId) {
  WireRequest request;
  std::string error;
  ASSERT_TRUE(parse_request_line(
      "{\"kind\":\"campaign\",\"faults\":\"coupler:0:silence:1\","
      "\"priority\":5,\"id\":\"c-1\"}",
      &request, &error))
      << error;
  EXPECT_EQ(request.spec.kind, JobKind::kCampaign);
  EXPECT_EQ(request.priority, 5);
  EXPECT_EQ(request.id, "c-1");
}

// ---- Execution: verdict mapping, caching, session progress -------------

/// A conclusive low-probability campaign: single-channel silence at 1%
/// with the bound at 50% — the interval clears the bound from below within
/// min_trials, so the verdict is HOLDS.
JobSpec holds_spec() {
  return parse_or_die(
      "{\"kind\":\"campaign\",\"criterion\":\"all_active\",\"steps\":32,"
      "\"seed\":5,\"min_trials\":64,\"max_trials\":4096,\"batch\":64,"
      "\"epsilon_ppm\":400000,\"fail_bound_ppm\":500000,"
      "\"faults\":\"coupler:0:silence:10000\"}");
}

/// Dual-channel silence at certainty: every trial fails, the interval sits
/// far above a 10% bound, and the verdict is VIOLATED.
JobSpec violated_spec() {
  return parse_or_die(
      "{\"kind\":\"campaign\",\"criterion\":\"all_active\",\"steps\":32,"
      "\"seed\":5,\"min_trials\":64,\"max_trials\":4096,\"batch\":64,"
      "\"epsilon_ppm\":400000,\"fail_bound_ppm\":100000,"
      "\"faults\":\"coupler:0:silence:1000000;"
      "coupler:1:silence:1000000\"}");
}

/// Pinned trial count straddling the bound: exhausts max_trials without
/// answering, so the verdict is INCONCLUSIVE and nothing may be cached.
JobSpec inconclusive_spec() {
  return parse_or_die(kPinnedLine);
}

TEST(CampaignExecution, VerdictFollowsTheFailBound) {
  ServiceConfig config;
  const JobResult holds = run_campaign_job(holds_spec(), config, nullptr);
  EXPECT_EQ(holds.verdict, mc::Verdict::kHolds);
  ASSERT_TRUE(holds.has_campaign);
  EXPECT_TRUE(holds.campaign.conclusive);
  EXPECT_LE(holds.campaign.ci_high, 0.5);

  const JobResult violated =
      run_campaign_job(violated_spec(), config, nullptr);
  EXPECT_EQ(violated.verdict, mc::Verdict::kViolated);
  ASSERT_TRUE(violated.has_campaign);
  EXPECT_TRUE(violated.campaign.conclusive);
  EXPECT_GT(violated.campaign.ci_low, 0.1);
  EXPECT_EQ(violated.campaign.failures, violated.campaign.trials);

  const JobResult open =
      run_campaign_job(inconclusive_spec(), config, nullptr);
  EXPECT_EQ(open.verdict, mc::Verdict::kInconclusive);
  ASSERT_TRUE(open.has_campaign);
  EXPECT_FALSE(open.campaign.conclusive);
  EXPECT_EQ(open.campaign.trials, 256u);
}

TEST(CampaignExecution, ResultJsonCarriesTheEstimate) {
  ServiceConfig config;
  const JobSpec spec = inconclusive_spec();
  const JobResult result = run_campaign_job(spec, config, nullptr);
  const std::string json = result_json(spec, result, 1, 1, 0.0);
  EXPECT_NE(json.find("\"campaign\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trials\":256"), std::string::npos) << json;
  EXPECT_NE(json.find("\"conclusive\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"config\":\"campaign/full_shifting/n4/m2\""),
            std::string::npos)
      << json;
}

/// Drains exactly one streamed result from the session.
StreamedResult next_or_die(Session& session) {
  std::optional<StreamedResult> item = session.results().next();
  EXPECT_TRUE(item.has_value());
  return *item;
}

TEST(CampaignExecution, SessionRoundTripWithProgressAndCache) {
  ServiceConfig config;
  config.workers = 1;
  AsyncService service(config);
  std::shared_ptr<Session> session = service.open_session();

  const JobSpec spec = holds_spec();
  const JobHandle first = session->submit(spec);

  // Poll progress() until the job concludes (the result is not consumed
  // yet, so the record — and its campaign board — is still live). The
  // final snapshot must carry the campaign estimate.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::optional<JobProgress> last;
  while (std::chrono::steady_clock::now() < deadline) {
    last = session->progress(first);
    if (!last || last->state == JobState::kDone) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(last.has_value());
  ASSERT_EQ(last->state, JobState::kDone);
  EXPECT_TRUE(last->has_campaign);
  EXPECT_GT(last->campaign_trials, 0u);
  EXPECT_LE(last->campaign_ci_low, last->campaign_p_hat);
  EXPECT_LE(last->campaign_p_hat, last->campaign_ci_high);

  const StreamedResult computed = next_or_die(*session);
  EXPECT_EQ(computed.result.verdict, mc::Verdict::kHolds);
  ASSERT_TRUE(computed.result.has_campaign);
  EXPECT_FALSE(computed.result.from_cache);
  EXPECT_GT(computed.result.campaign.batches, 0u);

  // The progress board survives until the result is consumed; after a
  // fresh submit of the *cached* job the record reports the estimate too.
  const JobHandle second = session->submit(spec);
  const StreamedResult cached = next_or_die(*session);
  EXPECT_TRUE(cached.result.from_cache);
  EXPECT_EQ(cached.result.campaign.trials, computed.result.campaign.trials);
  EXPECT_EQ(cached.result.campaign.p_hat, computed.result.campaign.p_hat);
  EXPECT_EQ(cached.result.verdict, mc::Verdict::kHolds);
  (void)first;
  (void)second;
}

// The session notifier rings once per batch the worker publishes and once
// per result that lands on the stream — the news svc::Server's loop waits
// on instead of polling. The result's ring follows its push, so the count
// is awaited rather than read the moment next() returns.
TEST(CampaignExecution, NotifierRingsAfterEveryBatchAndResult) {
  std::atomic<std::uint64_t> rings{0};
  ServiceConfig config;
  config.workers = 1;
  AsyncService service(config);
  std::shared_ptr<Session> session = service.open_session(
      [&rings] { rings.fetch_add(1, std::memory_order_relaxed); });

  // holds_spec with min_trials raised so the plan cannot stop before its
  // fourth 64-trial batch.
  const JobSpec spec = parse_or_die(
      "{\"kind\":\"campaign\",\"criterion\":\"all_active\",\"steps\":32,"
      "\"seed\":5,\"min_trials\":256,\"max_trials\":4096,\"batch\":64,"
      "\"epsilon_ppm\":400000,\"fail_bound_ppm\":500000,"
      "\"faults\":\"coupler:0:silence:10000\"}");
  session->submit(spec);
  const StreamedResult done = next_or_die(*session);
  ASSERT_TRUE(done.result.has_campaign);
  ASSERT_EQ(done.result.verdict, mc::Verdict::kHolds);
  ASSERT_GE(done.result.campaign.batches, 4u);
  const std::uint64_t expected = done.result.campaign.batches + 1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (rings.load() < expected &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rings.load(), expected);

  // A cache hit publishes no batch: one ring, for its result.
  session->submit(spec);
  EXPECT_TRUE(next_or_die(*session).result.from_cache);
  while (rings.load() < expected + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rings.load(), expected + 1);
}

TEST(CampaignExecution, InconclusiveEstimatesAreNeverCached) {
  ServiceConfig config;
  config.workers = 1;
  AsyncService service(config);
  std::shared_ptr<Session> session = service.open_session();

  const JobSpec spec = inconclusive_spec();
  session->submit(spec);
  const StreamedResult first = next_or_die(*session);
  EXPECT_EQ(first.result.verdict, mc::Verdict::kInconclusive);
  EXPECT_FALSE(first.result.from_cache);

  session->submit(spec);
  const StreamedResult second = next_or_die(*session);
  // Recomputed, not replayed — and bit-identical anyway, because the
  // estimate is a pure function of the spec.
  EXPECT_FALSE(second.result.from_cache);
  EXPECT_EQ(second.result.campaign.failures, first.result.campaign.failures);
  EXPECT_EQ(second.result.campaign.p_hat, first.result.campaign.p_hat);
}

TEST(CampaignExecution, PooledAndSequentialServiceRunsAgree) {
  // The service's thread knob must not perturb the estimate: 1 explicit
  // thread (sequential path) vs 8 (pooled path).
  ServiceConfig config;
  JobSpec spec = inconclusive_spec();
  spec.threads = 1;
  const JobResult sequential = run_campaign_job(spec, config, nullptr);
  spec.threads = 8;
  const JobResult pooled = run_campaign_job(spec, config, nullptr);
  EXPECT_EQ(pooled.campaign.failures, sequential.campaign.failures);
  EXPECT_EQ(pooled.campaign.p_hat, sequential.campaign.p_hat);
  EXPECT_EQ(pooled.campaign.ci_low, sequential.campaign.ci_low);
  EXPECT_EQ(pooled.campaign.ci_high, sequential.campaign.ci_high);
  EXPECT_EQ(pooled.engine_used, EngineChoice::kParallel);
  EXPECT_EQ(sequential.engine_used, EngineChoice::kSerial);
}

}  // namespace
}  // namespace tta::svc
