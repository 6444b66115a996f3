#include "svc/wire.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <vector>

#include "util/digest.h"

namespace tta::svc {

namespace {

// Minimal JSON-lines object scanner: accepts {"key": value, ...} with
// string / integer / boolean values, which is all the job format uses.
struct Scanner {
  const char* p;
  const char* end;

  void skip_ws() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool consume(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  bool string(std::string* out) {
    skip_ws();
    if (p >= end || *p != '"') return false;
    ++p;
    out->clear();
    while (p < end && *p != '"') out->push_back(*p++);
    if (p >= end) return false;
    ++p;
    return true;
  }
  /// Bare token up to , } or whitespace (numbers, true/false).
  bool token(std::string* out) {
    skip_ws();
    out->clear();
    while (p < end && *p != ',' && *p != '}' &&
           !std::isspace(static_cast<unsigned char>(*p))) {
      out->push_back(*p++);
    }
    return !out->empty();
  }
};

bool parse_bool(const std::string& v, bool* out) {
  if (v == "true" || v == "1") { *out = true; return true; }
  if (v == "false" || v == "0") { *out = false; return true; }
  return false;
}

bool parse_u64(const std::string& v, std::uint64_t* out) {
  if (v.empty()) return false;
  std::uint64_t acc = 0;
  for (char c : v) {
    if (c < '0' || c > '9') return false;
    acc = acc * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = acc;
  return true;
}

bool parse_authority(const std::string& v, guardian::Authority* out) {
  for (guardian::Authority a : guardian::kAllAuthorities) {
    if (v == guardian::to_string(a)) {
      *out = a;
      return true;
    }
  }
  return false;
}

bool parse_property(const std::string& v, Property* out) {
  for (Property prop : {Property::kNoIntegratedNodeFreezes,
                        Property::kAllActiveReachable,
                        Property::kRecoverability}) {
    if (v == to_string(prop)) {
      *out = prop;
      return true;
    }
  }
  return false;
}

bool parse_engine(const std::string& v, EngineChoice* out) {
  // "swarm" named a counterexample-racing engine that never answered
  // sooner than BFS and was removed; client lines that still ask for it
  // get the cost-based pick instead of an error.
  if (v == "swarm") {
    *out = EngineChoice::kAuto;
    return true;
  }
  for (EngineChoice e : {EngineChoice::kSerial, EngineChoice::kParallel,
                         EngineChoice::kAuto, EngineChoice::kRedundant}) {
    if (v == to_string(e)) {
      *out = e;
      return true;
    }
  }
  return false;
}

bool parse_priority(const std::string& v, std::int32_t* out) {
  std::string digits = v;
  bool negative = false;
  if (!digits.empty() && digits[0] == '-') {
    negative = true;
    digits.erase(0, 1);
  }
  std::uint64_t magnitude = 0;
  if (!parse_u64(digits, &magnitude) ||
      magnitude >
          static_cast<std::uint64_t>(WireGrammar::kMaxPriorityMagnitude)) {
    return false;
  }
  *out = negative ? -static_cast<std::int32_t>(magnitude)
                  : static_cast<std::int32_t>(magnitude);
  return true;
}

bool parse_kind(const std::string& v, JobKind* out) {
  for (JobKind k : {JobKind::kVerify, JobKind::kCampaign}) {
    if (v == to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

bool parse_criterion(const std::string& v, campaign::Criterion* out) {
  for (campaign::Criterion c : {campaign::Criterion::kAllActiveReached,
                                campaign::Criterion::kNoHealthyCliqueFreeze}) {
    if (v == campaign::to_string(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

bool parse_topology(const std::string& v, sim::Topology* out) {
  for (sim::Topology t : {sim::Topology::kStar, sim::Topology::kBus}) {
    if (v == sim::to_string(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

/// One scanned key/value pair; `offset` is the byte position of the key's
/// opening quote on the line, so parse errors can point at the field.
struct RawField {
  std::string key;
  std::string value;
  bool is_string = false;
  std::size_t offset = 0;
};

/// Shared body of parse_job_line / parse_request_line. When `request` is
/// null the wire-only keys (WireGrammar) are unknown keys, exactly as the
/// job-file grammar has always treated them. Two passes: scan every field
/// first (recording key offsets), then resolve the job kind — which may
/// be declared anywhere on the line — and interpret each field under its
/// kind's key set.
bool parse_line_impl(const std::string& line, JobSpec* spec,
                     WireRequest* request, std::string* error) {
  auto fail = [error](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };

  std::vector<RawField> fields;
  Scanner s{line.data(), line.data() + line.size()};
  if (!s.consume('{')) return fail("expected '{'");
  if (!s.consume('}')) {
    for (;;) {
      RawField f;
      s.skip_ws();
      f.offset = static_cast<std::size_t>(s.p - line.data());
      if (!s.string(&f.key)) return fail("expected a \"key\" string");
      if (!s.consume(':')) {
        return fail("expected ':' after \"" + f.key + "\"");
      }
      s.skip_ws();
      if (s.p < s.end && *s.p == '"') {
        if (!s.string(&f.value)) return fail("unterminated string value");
        f.is_string = true;
      } else if (!s.token(&f.value)) {
        return fail("missing value for \"" + f.key + "\"");
      }
      fields.push_back(std::move(f));
      if (s.consume('}')) break;
      if (!s.consume(',')) return fail("expected ',' or '}'");
    }
  }
  s.skip_ws();
  if (s.p != s.end) return fail("trailing characters after '}'");

  JobSpec out;
  for (const RawField& f : fields) {
    if (f.key != "kind") continue;
    if (!f.is_string || !parse_kind(f.value, &out.kind)) {
      return fail("bad value for \"kind\" at offset " +
                  std::to_string(f.offset) + ": " + f.value);
    }
  }
  const bool is_campaign = out.kind == JobKind::kCampaign;

  auto at = [](const RawField& f) {
    return " at offset " + std::to_string(f.offset);
  };

  for (const RawField& f : fields) {
    const std::string& key = f.key;
    const std::string& value = f.value;
    const bool is_string = f.is_string;
    bool ok = true;
    std::uint64_t n = 0;
    if (key == "kind") {
      continue;  // resolved above
    } else if (key == "authority") {
      guardian::Authority a = out.model.authority;
      ok = is_string && parse_authority(value, &a);
      if (ok) {
        out.model.authority = a;
        out.campaign.authority = a;
      }
    } else if (key == "engine") {
      ok = is_string && parse_engine(value, &out.engine);
    } else if (key == "nodes") {
      const std::uint64_t cap = is_campaign ? 16 : mc::kMaxNodes;
      ok = parse_u64(value, &n) && n >= 2 && n <= cap;
      if (ok && is_campaign) {
        out.campaign.num_nodes = static_cast<std::uint32_t>(n);
      } else if (ok) {
        out.model.protocol.num_nodes = static_cast<std::uint8_t>(n);
        out.model.protocol.num_slots = std::max(
            out.model.protocol.num_slots, static_cast<std::uint8_t>(n));
      }
    } else if (key == "channels") {
      ok = parse_u64(value, &n) && n >= 1 && n <= 2;
      if (ok) {
        out.model.num_couplers = static_cast<unsigned>(n);
        out.campaign.num_channels = static_cast<std::uint32_t>(n);
      }
    } else if (key == "deadline_ms") {
      ok = parse_u64(value, &n) && n <= UINT32_MAX;
      if (ok) out.deadline_ms = static_cast<std::uint32_t>(n);
    } else if (key == "threads") {
      ok = parse_u64(value, &n) && n <= 256;
      if (ok) out.threads = static_cast<unsigned>(n);
    } else if (request && key == WireGrammar::kPriorityKey) {
      ok = !is_string && parse_priority(value, &request->priority);
    } else if (request && key == WireGrammar::kIdKey) {
      ok = is_string;
      if (ok) request->id = value;
    } else if (request && key == WireGrammar::kTenantKey) {
      ok = is_string && value.size() <= WireGrammar::kMaxTenantBytes;
      if (ok) request->tenant = value;
    } else if (!is_campaign && key == "property") {
      ok = is_string && parse_property(value, &out.property);
    } else if (!is_campaign && key == "slots") {
      ok = parse_u64(value, &n) && n >= 2 && n <= 16;
      if (ok) out.model.protocol.num_slots = static_cast<std::uint8_t>(n);
    } else if (!is_campaign && key == "max_oos") {
      ok = parse_u64(value, &n) && n <= 7;
      if (ok) out.model.max_out_of_slot_errors = static_cast<unsigned>(n);
    } else if (!is_campaign && key == "big_bang") {
      ok = parse_bool(value, &out.model.protocol.big_bang_enabled);
    } else if (!is_campaign && key == "bad_dominates_fusion") {
      ok = parse_bool(value, &out.model.protocol.bad_dominates_fusion);
    } else if (!is_campaign && key == "allow_host_freeze") {
      ok = parse_bool(value, &out.model.protocol.allow_host_freeze);
    } else if (!is_campaign && key == "model_await_test") {
      ok = parse_bool(value, &out.model.protocol.model_await_test);
    } else if (!is_campaign && key == "allow_reinit") {
      ok = parse_bool(value, &out.model.protocol.allow_reinit);
    } else if (!is_campaign && key == "allow_coldstart_duplication") {
      ok = parse_bool(value, &out.model.allow_coldstart_duplication);
    } else if (!is_campaign && key == "allow_cstate_duplication") {
      ok = parse_bool(value, &out.model.allow_cstate_duplication);
    } else if (!is_campaign && key == "allow_silence_fault") {
      ok = parse_bool(value, &out.model.allow_silence_fault);
    } else if (!is_campaign && key == "allow_bad_frame_fault") {
      ok = parse_bool(value, &out.model.allow_bad_frame_fault);
    } else if (!is_campaign && key == "max_states") {
      ok = parse_u64(value, &out.max_states) && out.max_states > 0;
    } else if (!is_campaign && key == "table") {
      ok = is_string;
      if (value == "flat") {
        out.table_backend = mc::TableBackend::kFlat;
      } else if (value == "compact") {
        out.table_backend = mc::TableBackend::kCompact;
      } else {
        ok = false;
      }
    } else if (is_campaign && key == "topology") {
      ok = is_string && parse_topology(value, &out.campaign.topology);
    } else if (is_campaign && key == "criterion") {
      ok = is_string && parse_criterion(value, &out.campaign.criterion);
    } else if (is_campaign && key == "steps") {
      ok = parse_u64(value, &out.campaign.steps) && out.campaign.steps > 0;
    } else if (key == "seed") {
      // Campaigns seed the trial RNG streams. A verification job's seed
      // only ever seeded the removed swarm engine's racers: it is still
      // validated, so old client lines keep parsing, and then dropped.
      ok = is_campaign ? parse_u64(value, &out.campaign.seed)
                       : parse_u64(value, &n);
    } else if (is_campaign && key == "min_trials") {
      ok = parse_u64(value, &n) && n <= UINT32_MAX;
      if (ok) out.campaign.min_trials = static_cast<std::uint32_t>(n);
    } else if (is_campaign && key == "max_trials") {
      ok = parse_u64(value, &n) && n > 0 && n <= UINT32_MAX;
      if (ok) out.campaign.max_trials = static_cast<std::uint32_t>(n);
    } else if (is_campaign && key == "batch") {
      ok = parse_u64(value, &n) && n > 0 && n <= UINT32_MAX;
      if (ok) out.campaign.batch_size = static_cast<std::uint32_t>(n);
    } else if (is_campaign && key == "epsilon_ppm") {
      ok = parse_u64(value, &n) && n >= 1 && n <= campaign::kPpmScale;
      if (ok) out.campaign.epsilon_ppm = static_cast<std::uint32_t>(n);
    } else if (is_campaign && key == "fail_bound_ppm") {
      ok = parse_u64(value, &n) && n <= campaign::kPpmScale;
      if (ok) out.campaign.fail_bound_ppm = static_cast<std::uint32_t>(n);
    } else if (is_campaign && key == "faults") {
      std::string dict_error;
      if (!is_string || !campaign::parse_fault_dictionary(
                            value, &out.campaign, &dict_error)) {
        return fail((dict_error.empty() ? "bad value for \"faults\""
                                        : dict_error) +
                    at(f));
      }
    } else {
      return fail("unknown key \"" + key + "\"" + at(f) + " for " +
                  to_string(out.kind) + " jobs");
    }
    if (!ok) {
      return fail("bad value for \"" + key + "\"" + at(f) + ": " + value);
    }
  }

  if (is_campaign) {
    if (std::string err = out.campaign.validate(); !err.empty()) {
      return fail(err);
    }
  } else if (out.model.protocol.num_slots < out.model.protocol.num_nodes) {
    return fail("slots must be >= nodes");
  }
  *spec = out;
  return true;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string number(std::uint64_t v) { return std::to_string(v); }

}  // namespace

bool parse_job_line(const std::string& line, JobSpec* spec,
                    std::string* error) {
  return parse_line_impl(line, spec, nullptr, error);
}

bool parse_request_line(const std::string& line, WireRequest* request,
                        std::string* error) {
  WireRequest out;
  if (!parse_line_impl(line, &out.spec, &out, error)) return false;
  *request = std::move(out);
  return true;
}

std::string decorate_request_line(const std::string& job_line,
                                  std::int32_t priority,
                                  const std::string& id,
                                  const std::string& tenant) {
  const std::size_t close = job_line.rfind('}');
  std::string out = job_line.substr(0, close);
  const std::size_t open = out.find('{');
  const bool empty_object =
      out.find_first_not_of(" \t", open + 1) == std::string::npos;
  std::string extra = std::string("\"") + WireGrammar::kPriorityKey +
                      "\":" + std::to_string(priority);
  if (!id.empty()) {
    extra += std::string(",\"") + WireGrammar::kIdKey + "\":\"" +
             json_escape(id) + "\"";
  }
  if (!tenant.empty()) {
    extra += std::string(",\"") + WireGrammar::kTenantKey + "\":\"" +
             json_escape(tenant) + "\"";
  }
  out += empty_object ? extra : "," + extra;
  out += job_line.substr(close);
  return out;
}

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string result_json(const JobSpec& spec, const JobResult& result,
                        unsigned pass, std::uint64_t seq, double ts_ms,
                        const std::string& id) {
  std::string out = "{";
  if (!id.empty()) out += "\"id\":\"" + json_escape(id) + "\",";
  out += "\"pass\":" + number(std::uint64_t{pass});
  out += ",\"seq\":" + number(seq);
  out += ",\"ts_ms\":" + number(ts_ms);
  out += ",\"digest\":\"" + util::digest_hex(result.digest) + "\"";
  out += ",\"config\":\"" + config_label(spec) + "\"";
  out += ",\"property\":\"";
  out += to_string(spec.property);
  out += "\",\"engine\":\"";
  out += to_string(result.engine_used);
  out += "\",\"verdict\":\"";
  out += mc::to_string(result.verdict);
  out += "\",\"states\":" + number(result.stats.states_explored);
  out += ",\"transitions\":" + number(result.stats.transitions);
  out += ",\"depth\":" + number(result.stats.max_depth);
  out += ",\"trace_len\":" + number(std::uint64_t{result.trace.size()});
  out += ",\"dead_states\":" + number(result.dead_states);
  out += ",\"engine_seconds\":" + number(result.stats.seconds);
  out += ",\"queue_seconds\":" + number(result.queue_seconds);
  out += ",\"deadline_hit\":" + number(std::uint64_t{result.stats.cancelled});
  out += ",\"from_cache\":" + number(std::uint64_t{result.from_cache});
  out += ",\"from_persistent\":" +
         number(std::uint64_t{result.from_persistent});
  out += ",\"resumed\":" + number(std::uint64_t{result.stats.resumed});
  if (result.has_campaign) {
    const CampaignEstimate& c = result.campaign;
    out += ",\"campaign\":{";
    out += "\"criterion\":\"";
    out += campaign::to_string(spec.campaign.criterion);
    out += "\",\"trials\":" + number(c.trials);
    out += ",\"failures\":" + number(c.failures);
    out += ",\"batches\":" + number(c.batches);
    out += ",\"p_hat\":" + number(c.p_hat);
    out += ",\"ci_low\":" + number(c.ci_low);
    out += ",\"ci_high\":" + number(c.ci_high);
    out += ",\"conclusive\":" + number(std::uint64_t{c.conclusive});
    out += "}";
  }
  out += ",\"outcome\":" + result.outcome.to_json();
  out += "}";
  return out;
}

std::string error_row(const std::string& reason, int lineno) {
  return "{\"error\":\"" + json_escape(reason) +
         "\",\"line\":" + std::to_string(lineno) + "}";
}

std::string progress_row(const ProgressRow& row) {
  std::string out = "{";
  if (!row.id.empty()) out += "\"id\":\"" + json_escape(row.id) + "\",";
  out += "\"progress\":1";
  out += ",\"seq\":" + number(row.seq);
  out += ",\"ts_ms\":" + number(row.ts_ms);
  out += ",\"digest\":\"" + util::digest_hex(row.digest) + "\"";
  out += ",\"state\":\"";
  out += row.state;
  out += "\",\"trials\":" + number(row.trials);
  out += ",\"failures\":" + number(row.failures);
  out += ",\"batches\":" + number(row.batches);
  out += ",\"p_hat\":" + number(row.p_hat);
  out += ",\"ci_low\":" + number(row.ci_low);
  out += ",\"ci_high\":" + number(row.ci_high);
  out += "}";
  return out;
}

}  // namespace tta::svc
