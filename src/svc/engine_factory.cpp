#include "svc/engine_factory.h"

#include <memory>
#include <utility>

#include "util/thread_pool.h"

namespace tta::svc {

namespace {

mc::Checker<mc::TtpcStarModel>::Goal all_active_goal(
    const mc::TtpcStarModel& model) {
  const std::size_t n = model.num_nodes();
  return [n](const mc::WorldState& w) {
    for (std::size_t i = 0; i < n; ++i) {
      if (w.nodes[i].state != ttpc::CtrlState::kActive) return false;
    }
    return true;
  };
}

}  // namespace

EngineSelection make_engine(const JobSpec& spec,
                            const ServiceConfig& config) {
  EngineChoice choice = spec.engine;
  if (choice == EngineChoice::kAuto) {
    choice = spec.estimated_cost() >= config.auto_parallel_threshold
                 ? EngineChoice::kParallel
                 : EngineChoice::kSerial;
  }
  const unsigned threads =
      spec.threads != 0 ? spec.threads : config.parallel_engine_threads;
  const mc::CheckOptions options{spec.table_backend};

  EngineSelection selection;
  selection.resolved = choice;
  switch (choice) {
    case EngineChoice::kSerial:
      selection.engine = std::make_unique<mc::SerialEngine>(options);
      break;
    case EngineChoice::kParallel:
      selection.engine = std::make_unique<mc::ParallelEngine>(threads,
                                                              options);
      break;
    case EngineChoice::kRedundant:
      // The reference half always runs the serial engine on the flat
      // (reference) table; the shadow gets the requested backend. With
      // "table": "compact" this composition is therefore a literal
      // flat-vs-compact cross-check on top of the serial-vs-parallel one.
      selection.engine = std::make_unique<mc::RedundantEngine>(
          std::make_unique<mc::SerialEngine>(),
          std::make_unique<mc::ParallelEngine>(threads, options));
      break;
    case EngineChoice::kAuto:
      break;  // unreachable: resolved above
  }
  return selection;
}

mc::EngineQuery make_engine_query(const JobSpec& spec,
                                  const mc::TtpcStarModel& model) {
  mc::EngineQuery query;
  query.max_states = spec.max_states;
  switch (spec.property) {
    case Property::kNoIntegratedNodeFreezes:
      query.kind = mc::EngineQuery::Kind::kSafetyCheck;
      query.violation = mc::no_integrated_node_freezes();
      break;
    case Property::kAllActiveReachable:
      query.kind = mc::EngineQuery::Kind::kFindState;
      query.goal = all_active_goal(model);
      break;
    case Property::kRecoverability:
      query.kind = mc::EngineQuery::Kind::kRecoverability;
      query.goal = all_active_goal(model);
      break;
  }
  return query;
}

JobResult run_campaign_job(const JobSpec& spec, const ServiceConfig& config,
                           const util::CancelToken* cancel,
                           const campaign::ProgressFn& progress) {
  JobResult result;
  result.property = spec.property;

  const unsigned threads =
      spec.threads != 0 ? spec.threads : config.parallel_engine_threads;
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
  result.engine_used =
      pool ? EngineChoice::kParallel : EngineChoice::kSerial;

  const campaign::CampaignResult run =
      campaign::run_campaign(spec.campaign, pool.get(), cancel, progress);

  result.has_campaign = true;
  result.campaign.trials = run.estimate.trials;
  result.campaign.failures = run.estimate.failures;
  result.campaign.batches = run.batches;
  result.campaign.p_hat = run.estimate.p_hat;
  result.campaign.ci_low = run.estimate.ci_low;
  result.campaign.ci_high = run.estimate.ci_high;
  result.campaign.conclusive = run.conclusive;

  // Stats are repurposed minimally: wall time, cancellation, and whether
  // the sampling plan ran to a conclusive stop. states/transitions stay 0 —
  // campaign work is counted by the campaign metrics, not the engine ones.
  result.stats.seconds = run.seconds;
  result.stats.cancelled = run.cancelled;
  result.stats.exhausted = run.conclusive;

  if (run.conclusive) {
    const double bound =
        static_cast<double>(spec.campaign.fail_bound_ppm) /
        static_cast<double>(campaign::kPpmScale);
    result.verdict = run.estimate.p_hat <= bound ? mc::Verdict::kHolds
                                                 : mc::Verdict::kViolated;
  } else {
    result.verdict = mc::Verdict::kInconclusive;
  }
  return result;
}

}  // namespace tta::svc
