#include "src/service/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/core/staged.hpp"
#include "src/markov/ctmc.hpp"
#include "src/markov/fallback.hpp"
#include "src/markov/solver_config.hpp"
#include "src/obs/json.hpp"
#include "src/runtime/fnv.hpp"
#include "src/util/string_util.hpp"

namespace nvp::service {

const char* to_string(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kEof: return "eof";
    case FrameStatus::kTooLarge: return "frame-too-large";
    case FrameStatus::kTruncated: return "truncated-frame";
    case FrameStatus::kIoError: return "io-error";
  }
  return "?";
}

const char* to_string(Method method) {
  switch (method) {
    case Method::kPing: return "ping";
    case Method::kAnalyze: return "analyze";
    case Method::kSweep: return "sweep";
    case Method::kSimulate: return "simulate";
    case Method::kMonitor: return "monitor";
    case Method::kStats: return "stats";
    case Method::kShutdown: return "shutdown";
  }
  return "?";
}

void append_frame(std::string& out, std::string_view payload) {
  const auto n = static_cast<std::uint32_t>(payload.size());
  out += static_cast<char>((n >> 24) & 0xFF);
  out += static_cast<char>((n >> 16) & 0xFF);
  out += static_cast<char>((n >> 8) & 0xFF);
  out += static_cast<char>(n & 0xFF);
  out.append(payload.data(), payload.size());
}

namespace {

/// Reads exactly `size` bytes; 0 = clean EOF before the first byte,
/// -1 = EOF mid-buffer or error (errno preserved for the caller).
int read_exact(int fd, char* buffer, std::size_t size, bool* clean_eof) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, buffer + done, size - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      *clean_eof = done == 0;
      return -1;
    }
    if (errno == EINTR) continue;
    *clean_eof = false;
    return -1;
  }
  return 0;
}

}  // namespace

FrameStatus read_frame(int fd, std::string& payload,
                       std::uint32_t max_bytes) {
  unsigned char header[4];
  bool clean_eof = false;
  errno = 0;
  if (read_exact(fd, reinterpret_cast<char*>(header), 4, &clean_eof) != 0)
    return clean_eof ? FrameStatus::kEof
                     : (errno != 0 ? FrameStatus::kIoError
                                   : FrameStatus::kTruncated);
  const std::uint32_t length = (static_cast<std::uint32_t>(header[0]) << 24) |
                               (static_cast<std::uint32_t>(header[1]) << 16) |
                               (static_cast<std::uint32_t>(header[2]) << 8) |
                               static_cast<std::uint32_t>(header[3]);
  if (length > max_bytes) return FrameStatus::kTooLarge;
  payload.resize(length);
  if (length == 0) return FrameStatus::kOk;
  errno = 0;
  if (read_exact(fd, payload.data(), length, &clean_eof) != 0)
    return errno != 0 ? FrameStatus::kIoError : FrameStatus::kTruncated;
  return FrameStatus::kOk;
}

bool write_frame(int fd, std::string_view payload) {
  std::string framed;
  framed.reserve(payload.size() + 4);
  append_frame(framed, payload);
  std::size_t done = 0;
  while (done < framed.size()) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE instead of killing the
    // process with SIGPIPE.
    const ssize_t n = ::send(fd, framed.data() + done, framed.size() - done,
                             MSG_NOSIGNAL);
    if (n >= 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Request parsing.

namespace {

bool parse_params(const wire::Value& node, core::SystemParameters* params,
                  std::string* error) {
  const std::string paper = node.string_or("paper", "6v");
  if (paper == "4v") {
    *params = core::SystemParameters::paper_four_version();
  } else if (paper == "6v") {
    *params = core::SystemParameters::paper_six_version();
  } else {
    *error = "params.paper must be \"4v\" or \"6v\"";
    return false;
  }
  params->n_versions =
      static_cast<int>(node.number_or("n", params->n_versions));
  params->max_faulty =
      static_cast<int>(node.number_or("f", params->max_faulty));
  params->max_rejuvenating =
      static_cast<int>(node.number_or("r", params->max_rejuvenating));
  for (const core::ParameterField& field : core::parameter_fields())
    if (field.system != nullptr)
      params->*field.system =
          node.number_or(field.name, params->*field.system);
  params->rejuvenation = node.bool_or("rejuvenation", params->rejuvenation);
  if (const wire::Value* groups = node.get("groups")) {
    if (!groups->is_array()) {
      *error = "params.groups must be an array of group objects";
      return false;
    }
    params->groups.clear();
    for (const wire::Value& entry : groups->array) {
      if (!entry.is_object()) {
        *error = "params.groups entries must be objects";
        return false;
      }
      // Scalars the request leaves out inherit the campaign-level values,
      // so a request can harden one group without restating the rest.
      core::ModuleGroup group = params->inherited_group(
          static_cast<int>(entry.number_or("count", 0)));
      for (const core::ParameterField& field : core::parameter_fields())
        if (field.group != nullptr)
          group.*field.group =
              entry.number_or(field.name, group.*field.group);
      params->groups.push_back(group);
    }
    // Group counts fully determine N; an absent "n" means "derive it"
    // rather than "keep the paper preset's module count".
    if (node.get("n") == nullptr) {
      int total = 0;
      for (const core::ModuleGroup& g : params->groups) total += g.count;
      params->n_versions = total;
    }
  }
  try {
    params->validate();
  } catch (const std::exception& e) {
    *error = util::format("invalid params: %s", e.what());
    return false;
  }
  return true;
}

/// Overlays the request's `options` object onto `*options`, which the
/// caller seeds (the daemon seeds its own analyzer configuration). Keys
/// absent from the node keep the seeded value — the CLI client only
/// forwards flags the user typed, so absence means "the daemon's default",
/// not "the library's default".
bool parse_options(const wire::Value& node,
                   core::ReliabilityAnalyzer::Options* options,
                   std::string* error) {
  if (node.get("convention") != nullptr) {
    const auto convention =
        core::parse_convention(node.string_or("convention", ""));
    if (!convention) {
      *error = "options.convention must be " + core::convention_names();
      return false;
    }
    options->convention = *convention;
  }
  if (node.get("attachment") != nullptr) {
    const auto attachment =
        core::parse_attachment(node.string_or("attachment", ""));
    if (!attachment) {
      *error = "options.attachment must be " + core::attachment_names();
      return false;
    }
    options->attachment = *attachment;
  }
  if (node.get("solver") != nullptr) {
    const std::string solver = node.string_or("solver", "");
    const auto backend = markov::parse_backend(solver);
    if (!backend) {
      *error = "options.solver must be auto|dense|sparse|mfree";
      return false;
    }
    options->solver.backend = *backend;
  }
  const std::string fallback = node.string_or("fallback", "");
  if (!fallback.empty()) {
    try {
      options->solver.fallback.stages = markov::parse_fallback_stages(fallback);
    } catch (const std::exception& e) {
      *error = util::format("invalid options.fallback: %s", e.what());
      return false;
    }
  }
  // Full-config overlay, applied after the legacy keys so an explicit spec
  // wins. The same spec grammar nvpcli --solver-config speaks.
  const std::string solver_config = node.string_or("solver_config", "");
  if (!solver_config.empty()) {
    try {
      options->solver.apply(solver_config);
    } catch (const std::exception& e) {
      *error = util::format("invalid options.solver_config: %s", e.what());
      return false;
    }
  }
  return true;
}

}  // namespace

bool parse_request(const wire::Value& payload, Request* request,
                   std::string* error) {
  if (!payload.is_object()) {
    *error = "request must be a JSON object";
    return false;
  }
  request->id = payload.u64_or("id", 0);
  const std::string method = payload.string_or("method", "");
  if (method == "ping")
    request->method = Method::kPing;
  else if (method == "analyze")
    request->method = Method::kAnalyze;
  else if (method == "sweep")
    request->method = Method::kSweep;
  else if (method == "simulate")
    request->method = Method::kSimulate;
  else if (method == "monitor")
    request->method = Method::kMonitor;
  else if (method == "stats")
    request->method = Method::kStats;
  else if (method == "shutdown")
    request->method = Method::kShutdown;
  else {
    *error = method.empty() ? "request lacks a method"
                            : util::format("unknown method '%s'",
                                           method.c_str());
    return false;
  }
  request->deadline_ms = payload.number_or("deadline_ms", 0.0);
  if (request->deadline_ms < 0.0) {
    *error = "deadline_ms must be non-negative";
    return false;
  }

  const bool needs_model = request->method == Method::kAnalyze ||
                           request->method == Method::kSweep ||
                           request->method == Method::kSimulate ||
                           request->method == Method::kMonitor;
  if (!needs_model) return true;

  const wire::Value* params_node = payload.get("params");
  static const wire::Value kEmptyObject = [] {
    wire::Value v;
    v.type = wire::Value::Type::kObject;
    return v;
  }();
  if (params_node == nullptr) params_node = &kEmptyObject;
  if (!params_node->is_object()) {
    *error = "params must be an object";
    return false;
  }
  if (!parse_params(*params_node, &request->params, error)) return false;

  const wire::Value* options_node = payload.get("options");
  if (options_node != nullptr) {
    if (!options_node->is_object()) {
      *error = "options must be an object";
      return false;
    }
    if (!parse_options(*options_node, &request->options, error)) return false;
  }

  if (request->method == Method::kSweep) {
    const wire::Value* sweep = payload.get("sweep");
    if (sweep == nullptr || !sweep->is_object()) {
      *error = "sweep requests need a sweep object";
      return false;
    }
    request->sweep_param = sweep->string_or("param", "interval");
    const core::ParameterField* field =
        core::find_parameter_field(request->sweep_param);
    if (field == nullptr || field->system == nullptr) {
      std::string names;
      for (const core::ParameterField& f : core::parameter_fields())
        if (f.system != nullptr)
          names += std::string(names.empty() ? "" : "|") + f.name;
      *error = "sweep.param must be one of " + names;
      return false;
    }
    request->sweep_from = sweep->number_or("from", 0.0);
    request->sweep_to = sweep->number_or("to", 0.0);
    request->sweep_points =
        static_cast<std::size_t>(sweep->number_or("points", 15.0));
    if (!(request->sweep_to > request->sweep_from) ||
        request->sweep_points < 2) {
      *error = "sweep needs from < to and points >= 2";
      return false;
    }
    if (request->sweep_points > 100000) {
      *error = "sweep.points exceeds the per-request limit (100000)";
      return false;
    }
  }
  if (request->method == Method::kSimulate) {
    const wire::Value* sim = payload.get("simulate");
    if (sim != nullptr) {
      if (!sim->is_object()) {
        *error = "simulate must be an object";
        return false;
      }
      request->sim_horizon = sim->number_or("horizon", request->sim_horizon);
      request->sim_replications = static_cast<std::size_t>(
          sim->number_or("reps", double(request->sim_replications)));
      request->sim_seed = sim->u64_or("seed", request->sim_seed);
    }
    if (!(request->sim_horizon > 0.0) || request->sim_replications == 0) {
      *error = "simulate needs horizon > 0 and reps >= 1";
      return false;
    }
  }
  if (request->method == Method::kMonitor) {
    const wire::Value* mon = payload.get("monitor");
    if (mon != nullptr) {
      if (!mon->is_object()) {
        *error = "monitor must be an object";
        return false;
      }
      request->mon_schedule = mon->string_or("schedule",
                                             request->mon_schedule);
      request->mon_horizon = mon->number_or("horizon", request->mon_horizon);
      request->mon_multiplier =
          mon->number_or("multiplier", request->mon_multiplier);
      request->mon_period = mon->number_or("period", request->mon_period);
      request->mon_segment = mon->number_or("segment", request->mon_segment);
      request->mon_policy = mon->string_or("policy", request->mon_policy);
      request->mon_update_every =
          mon->number_or("update_every", request->mon_update_every);
      request->mon_interval_lo =
          mon->number_or("interval_lo", request->mon_interval_lo);
      request->mon_interval_hi =
          mon->number_or("interval_hi", request->mon_interval_hi);
      request->mon_grid_points = static_cast<std::size_t>(
          mon->number_or("grid_points", double(request->mon_grid_points)));
      request->mon_band = mon->number_or("band", request->mon_band);
      request->mon_seed = mon->u64_or("seed", request->mon_seed);
    }
    if (request->mon_schedule != "step" && request->mon_schedule != "ramp" &&
        request->mon_schedule != "sinusoid") {
      *error = "monitor.schedule must be one of step|ramp|sinusoid";
      return false;
    }
    if (request->mon_policy != "hysteresis" &&
        request->mon_policy != "static") {
      *error = "monitor.policy must be one of hysteresis|static";
      return false;
    }
    if (!(request->mon_horizon > 0.0) || !(request->mon_multiplier >= 1.0) ||
        !(request->mon_period > 0.0) || !(request->mon_segment > 0.0) ||
        !(request->mon_update_every > 0.0)) {
      *error = "monitor needs horizon/period/segment/update_every > 0 and "
               "multiplier >= 1";
      return false;
    }
    if (!(request->mon_interval_hi > request->mon_interval_lo) ||
        !(request->mon_interval_lo > 0.0) || request->mon_grid_points < 3) {
      *error = "monitor needs 0 < interval_lo < interval_hi and "
               "grid_points >= 3";
      return false;
    }
    if (request->mon_horizon / request->mon_update_every > 100000.0) {
      *error = "monitor.horizon/update_every exceeds the per-request limit "
               "(100000 updates)";
      return false;
    }
  }
  return true;
}

std::uint64_t coalesce_key(const Request& request) {
  switch (request.method) {
    case Method::kAnalyze: {
      // The rewards stage's key: requests that would hit the same rewards
      // cache entry share one solve.
      runtime::Fnv1a h;
      h.str("service.analyze");
      h.u64(core::rewards_stage_key(request.params, request.options));
      return h.digest();
    }
    case Method::kSweep: {
      runtime::Fnv1a h;
      h.str("service.sweep");
      h.u64(core::rewards_stage_key(request.params, request.options));
      h.str(request.sweep_param);
      h.f64(request.sweep_from);
      h.f64(request.sweep_to);
      h.u64(request.sweep_points);
      return h.digest();
    }
    default:
      return 0;
  }
}

// ---------------------------------------------------------------------------
// Response rendering.

std::string ok_response(std::uint64_t id, std::string_view result_json) {
  obs::JsonWriter json;
  json.begin_object();
  json.kv("id", static_cast<std::uint64_t>(id));
  json.kv("ok", true);
  json.end_object();
  // Splice the prebuilt result bytes in unmodified, so every coalesced
  // waiter receives an identical `result` object.
  std::string out = json.str();
  out.pop_back();  // '}'
  out += ",\"result\":";
  out += result_json;
  out += '}';
  return out;
}

std::string error_response(std::uint64_t id, const fault::ErrorInfo& error,
                           double retry_after_ms) {
  obs::JsonWriter json;
  json.begin_object();
  json.kv("id", static_cast<std::uint64_t>(id));
  json.kv("ok", false);
  json.key("error").begin_object();
  json.kv("category", fault::to_string(error.category));
  json.kv("message", error.message);
  if (!error.site.empty()) json.kv("site", error.site);
  if (!error.causes.empty()) {
    json.key("causes").begin_array();
    for (const auto& cause : error.causes) json.value(cause);
    json.end_array();
  }
  if (retry_after_ms > 0.0) json.kv("retry_after_ms", retry_after_ms);
  json.end_object().end_object();
  return json.str();
}

std::string analyze_result_json(const core::AnalysisResult& analysis) {
  obs::JsonWriter json;
  json.begin_object();
  json.kv("expected_reliability", analysis.expected_reliability);
  json.kv("tangible_states",
          static_cast<std::uint64_t>(analysis.tangible_states));
  json.kv("solver", analysis.used_dspn_solver ? "MRGP" : "CTMC");
  json.kv("backend", markov::to_string(analysis.backend_used));
  json.kv("matrix_nonzeros",
          static_cast<std::uint64_t>(analysis.matrix_nonzeros));
  json.end_object();
  return json.str();
}

}  // namespace nvp::service
