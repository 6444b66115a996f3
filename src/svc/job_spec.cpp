#include "svc/job_spec.h"

#include <algorithm>
#include <cmath>

#include "util/digest.h"

namespace tta::svc {

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kVerify: return "verify";
    case JobKind::kCampaign: return "campaign";
  }
  return "?";
}

const char* to_string(Property property) {
  switch (property) {
    case Property::kNoIntegratedNodeFreezes: return "safety";
    case Property::kAllActiveReachable: return "reach_all_active";
    case Property::kRecoverability: return "recoverability";
  }
  return "?";
}

const char* to_string(EngineChoice engine) {
  switch (engine) {
    case EngineChoice::kSerial: return "serial";
    case EngineChoice::kParallel: return "parallel";
    case EngineChoice::kAuto: return "auto";
    case EngineChoice::kRedundant: return "redundant";
  }
  return "?";
}

std::vector<std::uint8_t> JobSpec::canonical_bytes() const {
  // Every semantic field, fixed order, fixed width; bools as one byte
  // each. Execution hints (engine, threads, deadline) are intentionally
  // absent — see the header comment.
  std::vector<std::uint8_t> out;
  out.reserve(32);
  auto u8 = [&out](std::uint8_t v) { out.push_back(v); };
  auto u64 = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  if (kind == JobKind::kCampaign) {
    u8(0x81);  // campaign format version
    campaign.append_canonical_bytes(&out);
    return out;
  }
  // Verification: v1 is the original dual-coupler layout — kept bit-exact
  // so every previously pinned digest (and every persisted cache entry)
  // still resolves. The coupler count joins the encoding only when it
  // deviates, under version byte 2.
  u8(model.num_couplers == 2 ? 1 : 2);  // format version
  u8(model.protocol.num_nodes);
  u8(model.protocol.num_slots);
  u8(model.protocol.big_bang_enabled);
  u8(model.protocol.allow_host_freeze);
  u8(model.protocol.model_await_test);
  u8(model.protocol.allow_reinit);
  u8(model.protocol.bad_dominates_fusion);
  u8(static_cast<std::uint8_t>(model.authority));
  u8(static_cast<std::uint8_t>(
      std::min(model.max_out_of_slot_errors, 7u)));  // model saturates at 7
  u8(model.allow_coldstart_duplication);
  u8(model.allow_cstate_duplication);
  u8(model.allow_silence_fault);
  u8(model.allow_bad_frame_fault);
  u8(static_cast<std::uint8_t>(property));
  u64(max_states);
  if (model.num_couplers != 2) {
    u8(static_cast<std::uint8_t>(model.num_couplers));
  }
  return out;
}

std::uint64_t JobSpec::digest() const {
  return util::fnv1a64(canonical_bytes());
}

double JobSpec::estimated_cost() const {
  if (kind == JobKind::kCampaign) {
    // Campaign cost is simulation work: trials x slots x nodes. The worst
    // case (max_trials) keeps ordering conservative; only the relative
    // order against other jobs matters.
    return static_cast<double>(campaign.max_trials) *
           static_cast<double>(campaign.steps) *
           static_cast<double>(campaign.num_nodes);
  }
  // E4 measured the passive reachable space at 4.2k / 111k / 3.4M / >50M
  // states for 3..6 nodes — call it 26x per node. Buffering couplers
  // multiply the space by the replay interleavings their out-of-slot
  // budget admits; dropping a transient fault mode roughly halves the
  // branching; the recoverability analysis additionally stores and
  // reverses every edge.
  double states =
      111'000.0 *
      std::pow(26.0, static_cast<double>(model.protocol.num_nodes) - 4.0);
  if (guardian::can_buffer_frames(model.authority)) {
    states *= 1.0 + 0.5 * std::min(model.max_out_of_slot_errors, 7u);
  }
  if (!model.allow_silence_fault) states *= 0.5;
  if (!model.allow_bad_frame_fault) states *= 0.5;
  double cost = std::min(states, static_cast<double>(max_states));
  if (property == Property::kRecoverability) cost *= 3.0;
  return cost;
}

// parse_job_line / parse_request_line live in svc/wire.cpp with the rest
// of the wire grammar.

}  // namespace tta::svc
