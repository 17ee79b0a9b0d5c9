#include "src/service/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/core/staged.hpp"
#include "src/core/sweep.hpp"
#include "src/markov/ctmc.hpp"
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

namespace {

constexpr std::pair<Method, const char*> kMethodNames[] = {
    {Method::kPing, "ping"},         {Method::kAnalyze, "analyze"},
    {Method::kSweep, "sweep"},       {Method::kSimulate, "simulate"},
    {Method::kMonitor, "monitor"},   {Method::kStats, "stats"},
    {Method::kShutdown, "shutdown"}};

}  // namespace

const char* to_string(Method method) {
  for (const auto& [m, name] : kMethodNames)
    if (m == method) return name;
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

enum class FlagKind { kNumber, kCount, kText };
using enum FlagKind;

/// An nvpcli flag of a request section. Its wire key is its name, except
/// that a section key spells each '-' as '_' (`params` keys keep the
/// parameter table's names).
struct Flag {
  const char* name;
  FlagKind kind;
};

/// The `params` keys besides the parameter table's rows and `groups`.
constexpr Flag kParamsFlags[] = {
    {"paper", kText}, {"n", kCount}, {"f", kCount}, {"r", kCount}};
constexpr Flag kOptionFlags[] = {
    {"convention", kText}, {"attachment", kText}, {"solver-config", kText}};
constexpr Flag kSweepFlags[] = {
    {"param", kText}, {"from", kNumber}, {"to", kNumber}, {"points", kCount}};
constexpr Flag kSimulateFlags[] = {
    {"horizon", kNumber}, {"reps", kCount}, {"seed", kCount}};
constexpr Flag kMonitorFlags[] = {
    {"schedule", kText},       {"horizon", kNumber},
    {"multiplier", kNumber},   {"period", kNumber},
    {"segment", kNumber},      {"policy", kText},
    {"update-every", kNumber}, {"interval-lo", kNumber},
    {"interval-hi", kNumber},  {"grid-points", kCount},
    {"band", kNumber},         {"seed", kCount}};

/// True for the methods whose requests carry `params` and `options`.
bool is_work_method(std::string_view method) {
  return method == "analyze" || method == "sweep" || method == "simulate" ||
         method == "monitor";
}

/// The flags of the section named after `method`; empty for a method
/// without one.
std::span<const Flag> section_flags(std::string_view method) {
  if (method == "sweep") return kSweepFlags;
  if (method == "simulate") return kSimulateFlags;
  if (method == "monitor") return kMonitorFlags;
  return {};
}

/// True when `key` is the wire key of one of `flags`, each '-' spelled
/// '_' when `underscored` (section keys).
bool names_flag(std::span<const Flag> flags, std::string_view key,
                bool underscored) {
  return std::any_of(flags.begin(), flags.end(), [&](const Flag& flag) {
    const std::string_view name = flag.name;
    if (name.size() != key.size()) return false;
    for (std::size_t i = 0; i < name.size(); ++i)
      if (key[i] != (underscored && name[i] == '-' ? '_' : name[i]))
        return false;
    return true;
  });
}

/// True when `key` names a row of the parameter table with a member on
/// the system (`group` false) or group (`group` true) side.
bool names_parameter(std::string_view key, bool group) {
  const core::ParameterField* field = core::find_parameter_field(key);
  return field != nullptr &&
         (group ? field->group != nullptr : field->system != nullptr);
}

/// Refuses the first member of the object `node` that `known` rejects,
/// naming it by its path ("unknown key params.intervall"): a misspelled
/// key must not silently keep its default.
template <typename Known>
bool refuse_unknown_keys(const wire::Value& node, const std::string& path,
                         Known&& known, std::string* error) {
  for (const auto& [key, value] : node.object)
    if (!known(key)) {
      *error = "unknown key " + path + key;
      return false;
    }
  return true;
}

/// Member `key` of `node` as a count, `fallback` when absent. A negative or
/// out-of-range value reads as 0, which every caller's lower bound refuses.
std::size_t count_or(const wire::Value& node, std::string_view key,
                     std::size_t fallback) {
  const double v = node.number_or(key, static_cast<double>(fallback));
  return v >= 0.0 && v <= 9007199254740992.0 ? static_cast<std::size_t>(v)
                                              : 0;
}

/// The object member `key` of `payload`; an empty object when absent, null
/// (with `*error` set) when present but not an object.
const wire::Value* section(const wire::Value& payload, const char* key,
                           std::string* error) {
  static const wire::Value kEmptyObject = *wire::parse("{}");
  const wire::Value* node = payload.get(key);
  if (node == nullptr) return &kEmptyObject;
  if (node->is_object()) return node;
  *error = util::format("%s must be an object", key);
  return nullptr;
}

bool parse_params(const wire::Value& node, core::SystemParameters* params,
                  std::string* error) {
  if (!refuse_unknown_keys(
          node, "params.",
          [](const std::string& key) {
            return names_flag(kParamsFlags, key, false) ||
                   names_parameter(key, false) || key == "rejuvenation" ||
                   key == "groups";
          },
          error))
    return false;
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
      if (!refuse_unknown_keys(
              entry,
              util::format("params.groups[%zu].", params->groups.size()),
              [](const std::string& key) {
                return key == "count" || names_parameter(key, true);
              },
              error))
        return false;
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

/// Overlays the request's `options` object onto the caller-seeded
/// `*options`. An absent key keeps the seed: nvpcli forwards only the flags
/// the user typed, so absence means "the daemon's default".
bool parse_options(const wire::Value& node,
                   core::ReliabilityAnalyzer::Options* options,
                   std::string* error) {
  for (const auto& [key, spec] :
       {std::pair{"solver", "backend=<name>"},
        std::pair{"fallback", "fallback=<stage+stage+...>"}})
    if (node.get(key) != nullptr) {
      *error = util::format(
          "options.%s was removed, use options.solver_config %s", key, spec);
      return false;
    }
  if (!refuse_unknown_keys(
          node, "options.",
          [](const std::string& key) {
            return names_flag(kOptionFlags, key, true);
          },
          error))
    return false;
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
  // The same spec grammar nvpcli --solver-config speaks.
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

bool parse_sweep(const wire::Value& node, Request* request,
                 std::string* error) {
  request->sweep_param = node.string_or("param", "interval");
  if (!core::setter_for(request->sweep_param)) {
    *error = "sweep.param must be one of " + core::sweepable_names();
    return false;
  }
  request->sweep_from = node.number_or("from", 0.0);
  request->sweep_to = node.number_or("to", 0.0);
  request->sweep_points = count_or(node, "points", 15);
  if (!(request->sweep_to > request->sweep_from) ||
      request->sweep_points < 2) {
    *error = "sweep needs from < to and points >= 2";
    return false;
  }
  if (request->sweep_points > 100000) {
    *error = "sweep.points exceeds the per-request limit (100000)";
    return false;
  }
  return true;
}

bool parse_simulate(const wire::Value& node,
                    core::Engine::SimulateOptions* sim, std::string* error) {
  sim->horizon = node.number_or("horizon", sim->horizon);
  sim->replications = count_or(node, "reps", sim->replications);
  sim->seed = node.u64_or("seed", sim->seed);
  if (!(sim->horizon > 0.0) || sim->replications == 0) {
    *error = "simulate needs horizon > 0 and reps >= 1";
    return false;
  }
  return true;
}

bool parse_monitor(const wire::Value& node, monitor::SessionConfig* config,
                   std::string* error) {
  const std::string schedule = node.string_or(
      "schedule", monitor::DriftSchedule::kind_name(config->schedule.kind));
  try {
    config->schedule.kind = monitor::DriftSchedule::parse_kind(schedule);
  } catch (const std::exception&) {
    *error = "monitor.schedule must be one of step|ramp|sinusoid";
    return false;
  }
  config->policy = node.string_or("policy", config->policy);
  if (config->policy != "hysteresis" && config->policy != "static") {
    *error = "monitor.policy must be one of hysteresis|static";
    return false;
  }
  monitor::DriftSchedule& drift = config->schedule;
  monitor::MonitorController::Config& control = config->controller;
  drift.multiplier = node.number_or("multiplier", drift.multiplier);
  drift.period = node.number_or("period", drift.period);
  drift.segment = node.number_or("segment", drift.segment);
  config->duration = node.number_or("horizon", config->duration);
  control.update_every = node.number_or("update_every", control.update_every);
  control.interval_lo = node.number_or("interval_lo", control.interval_lo);
  control.interval_hi = node.number_or("interval_hi", control.interval_hi);
  control.grid_points = count_or(node, "grid_points", control.grid_points);
  config->hysteresis.band = node.number_or("band", config->hysteresis.band);
  config->seed = node.u64_or("seed", config->seed);
  if (!(config->duration > 0.0) || !(drift.multiplier >= 1.0) ||
      !(drift.period > 0.0) || !(drift.segment > 0.0) ||
      !(control.update_every > 0.0)) {
    *error = "monitor needs horizon/period/segment/update_every > 0 and "
             "multiplier >= 1";
    return false;
  }
  if (!(control.interval_hi > control.interval_lo) ||
      !(control.interval_lo > 0.0) || control.grid_points < 3 ||
      !(config->hysteresis.band >= 0.0)) {
    *error = "monitor needs 0 < interval_lo < interval_hi, grid_points >= 3 "
             "and band >= 0";
    return false;
  }
  if (!config->params.rejuvenation) {
    *error = "monitor steers the rejuvenation clock and needs "
             "params.rejuvenation";
    return false;
  }
  if (config->duration / control.update_every > 100000.0) {
    *error = "monitor.horizon/update_every exceeds the per-request limit "
             "(100000 updates)";
    return false;
  }
  // The policy clamp is the optimizer's search range.
  config->hysteresis.min_interval = control.interval_lo;
  config->hysteresis.max_interval = control.interval_hi;
  return true;
}

}  // namespace

bool parse_request(const wire::Value& payload, Request* request,
                   std::string* error) {
  // Start from the defaults; only the caller-seeded options survive.
  core::ReliabilityAnalyzer::Options seeded = std::move(request->options);
  *request = Request{};
  request->options = std::move(seeded);
  if (!payload.is_object()) {
    *error = "request must be a JSON object";
    return false;
  }
  request->id = payload.u64_or("id", 0);
  const std::string method = payload.string_or("method", "");
  const auto named = std::find_if(
      std::begin(kMethodNames), std::end(kMethodNames),
      [&](const auto& entry) { return method == entry.second; });
  if (named == std::end(kMethodNames)) {
    *error = method.empty() ? "request lacks a method"
                            : util::format("unknown method '%s'",
                                           method.c_str());
    return false;
  }
  request->method = named->first;
  const bool work = is_work_method(method);
  const bool has_section = !section_flags(method).empty();
  if (!refuse_unknown_keys(
          payload, "",
          [&](const std::string& key) {
            return key == "id" || key == "method" || key == "deadline_ms" ||
                   (work && (key == "params" || key == "options")) ||
                   (has_section && key == method);
          },
          error))
    return false;
  request->deadline_ms = payload.number_or("deadline_ms", 0.0);
  if (request->deadline_ms < 0.0) {
    *error = "deadline_ms must be non-negative";
    return false;
  }

  if (!work) return true;

  const wire::Value* params = section(payload, "params", error);
  if (params == nullptr || !parse_params(*params, &request->params, error))
    return false;
  const wire::Value* options = section(payload, "options", error);
  if (options == nullptr ||
      !parse_options(*options, &request->options, error))
    return false;

  if (request->method == Method::kAnalyze) return true;
  // Each other work method reads the section named after it.
  const wire::Value* node =
      section(payload, to_string(request->method), error);
  if (node == nullptr ||
      !refuse_unknown_keys(
          *node, method + ".",
          [&](const std::string& key) {
            return names_flag(section_flags(method), key, true);
          },
          error))
    return false;
  if (request->method == Method::kSweep)
    return parse_sweep(*node, request, error);
  if (request->method == Method::kSimulate)
    return parse_simulate(*node, &request->simulate, error);
  request->monitor.params = request->params;
  return parse_monitor(*node, &request->monitor, error);
}

// ---------------------------------------------------------------------------
// nvpcli's flag-to-key map.

namespace {

/// The value of flag `flag` in `args`, in its kind.
void write_value(obs::JsonWriter& json, const util::CliArgs& args,
                 const Flag& flag) {
  if (flag.kind == kNumber)
    json.value(args.get_double(flag.name, 0.0));
  else if (flag.kind == kCount)
    json.value(args.get_int(flag.name, 0));
  else
    json.value(args.get(flag.name, ""));
}

/// Writes the flags of `flags` present in `args` as the members of
/// `section`, each under its wire key.
void write_section(obs::JsonWriter& json, const char* section,
                   const util::CliArgs& args, std::span<const Flag> flags) {
  json.key(section).begin_object();
  for (const Flag& flag : flags) {
    if (!args.has(flag.name)) continue;
    std::string key = flag.name;
    std::replace(key.begin(), key.end(), '-', '_');
    json.key(key);
    write_value(json, args, flag);
  }
  json.end_object();
}

/// A `--groups` spec — `count[:mttc[:mttf[:mttr[:p[:p-prime[:weight
/// [:repair-degradation]]]]]]];...` — as group objects. The fields after
/// the count are the parameter table's group rows, in order; an empty or
/// omitted field stays out, so the decoder inherits it.
void write_groups(obs::JsonWriter& json, const std::string& spec) {
  std::vector<const char*> rows;
  for (const core::ParameterField& field : core::parameter_fields())
    if (field.group != nullptr) rows.push_back(field.name);
  json.key("groups").begin_array();
  int index = 0;
  for (const std::string& group_spec : util::split(spec, ';')) {
    if (group_spec.empty()) continue;
    ++index;
    const std::vector<std::string> fields = util::split(group_spec, ':');
    if (fields.size() > rows.size() + 1)
      throw std::invalid_argument(util::format(
          "--groups group %d has %zu fields, at most %zu", index,
          fields.size(), rows.size() + 1));
    const std::optional<int> count = util::parse_int(fields[0]);
    if (!count)
      throw std::invalid_argument(util::format(
          "--groups group %d count expects an integer, got '%s'", index,
          fields[0].c_str()));
    json.begin_object().kv("count", *count);
    for (std::size_t i = 1; i < fields.size(); ++i) {
      if (fields[i].empty()) continue;
      const std::optional<double> value = util::parse_finite(fields[i]);
      if (!value)
        throw std::invalid_argument(util::format(
            "--groups group %d %s expects a finite number, got '%s'", index,
            rows[i - 1], fields[i].c_str()));
      json.kv(rows[i - 1], *value);
    }
    json.end_object();
  }
  json.end_array();
}

}  // namespace

std::string cli_request_json(std::uint64_t id, const std::string& method,
                             const util::CliArgs& args) {
  obs::JsonWriter json;
  json.begin_object();
  json.kv("id", id);
  json.kv("method", method);
  if (args.has("deadline-ms"))
    json.kv("deadline_ms", args.get_double("deadline-ms", 0.0));
  if (is_work_method(method)) {
    json.key("params").begin_object();
    for (const Flag& flag : kParamsFlags)
      if (args.has(flag.name)) {
        json.key(flag.name);
        write_value(json, args, flag);
      }
    for (const core::ParameterField& field : core::parameter_fields())
      if (field.system != nullptr && args.has(field.name))
        json.kv(field.name, args.get_double(field.name, 0.0));
    if (args.has("groups")) write_groups(json, args.get("groups", ""));
    json.end_object();
    write_section(json, "options", args, kOptionFlags);
  }
  if (!section_flags(method).empty())
    write_section(json, method.c_str(), args, section_flags(method));
  json.end_object();
  return json.str();
}

bool cli_reads_flag(const std::string& method, std::string_view flag) {
  if (flag == "deadline-ms") return true;
  if (!is_work_method(method)) return false;
  return names_flag(kParamsFlags, flag, false) ||
         names_parameter(flag, false) || flag == "groups" ||
         names_flag(kOptionFlags, flag, false) ||
         names_flag(section_flags(method), flag, false);
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
