// Tests for the nvpd service layer: wire parsing, framing, request
// parsing/coalescing identity, the deadline-scoped engine entry, and the
// server end to end over real sockets (coalescing, deadlines, backpressure,
// graceful shutdown).

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/staged.hpp"
#include "src/monitor/session.hpp"
#include "src/obs/json.hpp"
#include "src/service/client.hpp"
#include "src/service/protocol.hpp"
#include "src/service/server.hpp"
#include "src/service/wire.hpp"
#include "src/util/cli.hpp"
#include "src/util/string_util.hpp"

namespace nvp {
namespace {

using service::wire::parse;

// ---------------------------------------------------------------------------
// Wire parser.

TEST(WireTest, ParsesScalarsAndContainers) {
  const auto value =
      parse(R"({"a": 1.5, "b": [true, null, "x"], "c": {"d": -2e3}})");
  ASSERT_TRUE(value.has_value());
  EXPECT_DOUBLE_EQ(value->number_or("a", 0.0), 1.5);
  const auto* b = value->get("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].as_bool());
  EXPECT_TRUE(b->array[1].is_null());
  EXPECT_EQ(b->array[2].string, "x");
  const auto* c = value->get("c");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->number_or("d", 0.0), -2000.0);
}

TEST(WireTest, ParsesStringEscapes) {
  const auto value = parse(R"({"s": "a\"b\\c\nAé"})");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->string_or("s", ""), "a\"b\\c\nA\xc3\xa9");
}

TEST(WireTest, ParsesSurrogatePairs) {
  const auto value = parse(R"("😀")");  // U+1F600
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->string, "\xf0\x9f\x98\x80");
}

TEST(WireTest, RejectsMalformedInputWithPosition) {
  std::string error;
  EXPECT_FALSE(parse("{\"a\": }", &error).has_value());
  EXPECT_NE(error.find("offset"), std::string::npos);
  EXPECT_FALSE(parse("", &error).has_value());
  EXPECT_FALSE(parse("{} trailing", &error).has_value());
  EXPECT_FALSE(parse("[1, 2", &error).has_value());
  EXPECT_FALSE(parse("01", &error).has_value());
  EXPECT_FALSE(parse("nul", &error).has_value());
}

TEST(WireTest, RefusesNumbersThatOverflowToInfinity) {
  // inf passes every `> 0` check downstream, and JsonWriter writes it back
  // as null, so the parser refuses it where the text is still at hand.
  std::string error;
  EXPECT_FALSE(parse(R"({"interval": 1e999})", &error).has_value());
  EXPECT_NE(error.find("number out of range at offset 13"), std::string::npos)
      << error;
  EXPECT_FALSE(parse("-1e999", &error).has_value());
  const auto largest = parse("1.7976931348623157e308");
  ASSERT_TRUE(largest.has_value());
  EXPECT_EQ(largest->number, 1.7976931348623157e308);
  const auto tiny = parse("1e-999");  // underflow is a finite zero
  ASSERT_TRUE(tiny.has_value());
  EXPECT_EQ(tiny->number, 0.0);
}

TEST(WireTest, BoundsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  std::string error;
  EXPECT_FALSE(parse(deep, &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos);
}

TEST(WireTest, DumpRoundTripsStructure) {
  const std::string text =
      R"({"a":1.5,"b":[true,null,"x\ny"],"c":{"d":false}})";
  const auto value = parse(text);
  ASSERT_TRUE(value.has_value());
  const std::string dumped = service::wire::dump(*value);
  const auto reparsed = parse(dumped);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(service::wire::dump(*reparsed), dumped);
  EXPECT_EQ(dumped, text);
}

// ---------------------------------------------------------------------------
// Framing.

TEST(FramingTest, RoundTripsOverSocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(service::write_frame(fds[0], "{\"x\":1}"));
  ASSERT_TRUE(service::write_frame(fds[0], ""));
  std::string payload;
  EXPECT_EQ(service::read_frame(fds[1], payload), service::FrameStatus::kOk);
  EXPECT_EQ(payload, "{\"x\":1}");
  EXPECT_EQ(service::read_frame(fds[1], payload), service::FrameStatus::kOk);
  EXPECT_EQ(payload, "");
  ::close(fds[0]);
  EXPECT_EQ(service::read_frame(fds[1], payload),
            service::FrameStatus::kEof);
  ::close(fds[1]);
}

TEST(FramingTest, RejectsOversizedFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string framed;
  service::append_frame(framed, "abcdefgh");
  ASSERT_EQ(::write(fds[0], framed.data(), framed.size()),
            static_cast<ssize_t>(framed.size()));
  std::string payload;
  EXPECT_EQ(service::read_frame(fds[1], payload, /*max_bytes=*/4),
            service::FrameStatus::kTooLarge);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FramingTest, ReportsTruncationMidHeaderAndMidPayload) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::write(fds[0], "\x00\x00", 2), 2);  // half a header
  ::close(fds[0]);
  std::string payload;
  EXPECT_EQ(service::read_frame(fds[1], payload),
            service::FrameStatus::kTruncated);
  ::close(fds[1]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string framed;
  service::append_frame(framed, "full payload");
  ASSERT_EQ(::write(fds[0], framed.data(), framed.size() - 4),
            static_cast<ssize_t>(framed.size() - 4));
  ::close(fds[0]);
  EXPECT_EQ(service::read_frame(fds[1], payload),
            service::FrameStatus::kTruncated);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// Request parsing and coalescing identity.

service::Request must_parse(const std::string& text) {
  const auto payload = parse(text);
  EXPECT_TRUE(payload.has_value());
  service::Request request;
  std::string error;
  EXPECT_TRUE(service::parse_request(*payload, &request, &error)) << error;
  return request;
}

TEST(RequestTest, ParsesAnalyzeWithOverrides) {
  const auto request = must_parse(
      R"({"id": 7, "method": "analyze", "deadline_ms": 250,
          "params": {"paper": "4v", "interval": 450.0, "alpha": 0.1},
          "options": {"solver_config": "backend=sparse"}})");
  EXPECT_EQ(request.id, 7u);
  EXPECT_EQ(request.method, service::Method::kAnalyze);
  EXPECT_DOUBLE_EQ(request.deadline_ms, 250.0);
  EXPECT_EQ(request.params.n_versions, 4);
  EXPECT_DOUBLE_EQ(request.params.rejuvenation_interval, 450.0);
  EXPECT_DOUBLE_EQ(request.params.alpha, 0.1);
  EXPECT_EQ(request.options.solver.backend, markov::SolverBackend::kSparse);
}

TEST(RequestTest, OptionsOverlaySeededDefaults) {
  // The caller (the server) seeds its own configuration; the request's
  // options object overrides only the keys it actually carries.
  service::Request request;
  request.options.solver.backend = markov::SolverBackend::kSparse;
  request.options.convention = core::RewardConvention::kGeneralized;
  std::string error;
  auto payload = parse(
      R"({"id": 1, "method": "analyze", "params": {"paper": "4v"},
          "options": {"convention": "strict"}})");
  ASSERT_TRUE(payload.has_value());
  ASSERT_TRUE(service::parse_request(*payload, &request, &error)) << error;
  EXPECT_EQ(request.options.convention, core::RewardConvention::kStrict);
  EXPECT_EQ(request.options.solver.backend, markov::SolverBackend::kSparse);

  // No options object at all: every seeded value survives.
  service::Request bare;
  bare.options.solver.backend = markov::SolverBackend::kSparse;
  bare.options.convention = core::RewardConvention::kGeneralized;
  payload = parse(R"({"id": 2, "method": "analyze",
                      "params": {"paper": "4v"}})");
  ASSERT_TRUE(payload.has_value());
  ASSERT_TRUE(service::parse_request(*payload, &bare, &error)) << error;
  EXPECT_EQ(bare.options.convention, core::RewardConvention::kGeneralized);
  EXPECT_EQ(bare.options.solver.backend, markov::SolverBackend::kSparse);

  // An explicit "auto" is an override back to the library default, not a
  // no-op key.
  payload = parse(R"({"id": 3, "method": "analyze",
                      "params": {"paper": "4v"},
                      "options": {"solver_config": "backend=auto"}})");
  ASSERT_TRUE(payload.has_value());
  service::Request reset;
  reset.options.solver.backend = markov::SolverBackend::kSparse;
  ASSERT_TRUE(service::parse_request(*payload, &reset, &error)) << error;
  EXPECT_EQ(reset.options.solver.backend, markov::SolverBackend::kAuto);
}

/// An analyze request for the 6v paper preset carrying `key` = `value`,
/// system-wide, or in the second group of a 5+2 split when `in_group`.
std::string analyze_with(const char* key, double value, bool in_group) {
  obs::JsonWriter json;
  json.begin_object();
  json.kv("id", 1);
  json.kv("method", "analyze");
  json.key("params").begin_object();
  json.kv("paper", "6v");
  if (in_group) {
    json.key("groups").begin_array();
    json.begin_object().kv("count", 5).end_object();
    json.begin_object().kv("count", 2).kv(key, value).end_object();
    json.end_array();
  } else {
    json.kv(key, value);
  }
  json.end_object().end_object();
  return json.str();
}

TEST(RequestTest, EveryParameterRowParsesIntoItsField) {
  // Each table row's key lands in the field the row names: system-wide in
  // `params`, per group in a `groups` entry (the other group inherits).
  // Values are the defaults scaled by 0.9 (0.01 where the default is 0),
  // valid for the 5+2 split.
  const auto value_for = [](double base) {
    return base == 0.0 ? 0.01 : base * 0.9;
  };
  const auto paper = core::SystemParameters::paper_six_version();
  for (const core::ParameterField& field : core::parameter_fields()) {
    SCOPED_TRACE(field.name);
    if (field.system != nullptr) {
      const double v = value_for(paper.*field.system);
      const auto request = must_parse(analyze_with(field.name, v, false));
      EXPECT_EQ(request.params.*field.system, v);
    }
    if (field.group != nullptr) {
      const double inherited = paper.inherited_group(2).*field.group;
      const double v = value_for(inherited);
      const auto request = must_parse(analyze_with(field.name, v, true));
      ASSERT_EQ(request.params.groups.size(), 2u);
      EXPECT_EQ(request.params.n_versions, 7);
      EXPECT_EQ(request.params.groups[1].*field.group, v);
      EXPECT_EQ(request.params.groups[0].*field.group, inherited);
    }
    // Sweeps accept exactly the system-wide rows.
    const auto payload = parse(
        std::string(R"({"id": 1, "method": "sweep", "sweep": {"param": ")") +
        field.name + R"(", "from": 1, "to": 2, "points": 3}})");
    ASSERT_TRUE(payload.has_value());
    service::Request request;
    std::string error;
    EXPECT_EQ(service::parse_request(*payload, &request, &error),
              field.system != nullptr)
        << error;
  }
}

TEST(RequestTest, RejectsBadRequests) {
  std::string error;
  // A fresh Request per case, so each case is refused by its own field.
  const auto check_fails = [&](const std::string& text) {
    const auto payload = parse(text);
    ASSERT_TRUE(payload.has_value()) << text;
    service::Request request;
    EXPECT_FALSE(service::parse_request(*payload, &request, &error)) << text;
  };
  check_fails(R"({"id": 1, "method": "nonsense"})");
  check_fails(R"({"id": 1, "method": "analyze", "params": {"paper": "9v"}})");
  check_fails(R"({"id": 1, "method": "analyze", "params": {"n": -3}})");
  check_fails(R"({"id": 1, "method": "sweep"})");
  check_fails(
      R"({"id": 1, "method": "sweep",
          "sweep": {"param": "bogus", "from": 1, "to": 2, "points": 5}})");
  check_fails(
      R"({"id": 1, "method": "sweep",
          "sweep": {"param": "mttc", "from": 5, "to": 2, "points": 5}})");
  check_fails(
      R"({"id": 1, "method": "simulate", "simulate": {"horizon": -1}})");
  check_fails(
      R"({"id": 1, "method": "monitor", "monitor": {"schedule": "bogus"}})");
  check_fails(
      R"({"id": 1, "method": "monitor", "monitor": {"policy": "bogus"}})");
  check_fails(
      R"({"id": 1, "method": "monitor",
          "monitor": {"interval_lo": 500, "interval_hi": 100}})");
  // The optimizer behind every re-solve needs a 3-point grid.
  const auto payload = parse(
      R"({"id": 1, "method": "monitor", "monitor": {"grid_points": 2}})");
  ASSERT_TRUE(payload.has_value());
  service::Request monitor;
  EXPECT_FALSE(service::parse_request(*payload, &monitor, &error));
  EXPECT_NE(error.find("grid_points >= 3"), std::string::npos) << error;
  check_fails(
      R"({"id": 1, "method": "monitor",
          "monitor": {"horizon": 1e9, "update_every": 1}})");
}

TEST(RequestTest, RejectsMisspelledOptionNames) {
  service::Request request;
  std::string error;
  auto payload = parse(R"({"id": 1, "method": "analyze",
                           "options": {"convention": "generalised"}})");
  ASSERT_TRUE(payload.has_value());
  EXPECT_FALSE(service::parse_request(*payload, &request, &error));
  EXPECT_EQ(error, "options.convention must be verbatim|generalized|strict");
  payload = parse(R"({"id": 1, "method": "analyze",
                      "options": {"attachment": "appendx"}})");
  ASSERT_TRUE(payload.has_value());
  EXPECT_FALSE(service::parse_request(*payload, &request, &error));
  EXPECT_EQ(error, "options.attachment must be operational|appendix");
}

TEST(RequestTest, RefusesTheRemovedSolverAndFallbackKeys) {
  for (const char* options :
       {R"({"solver": "sparse"})", R"({"fallback": "power"})",
        R"({"solver": "dense", "solver_config": "backend=dense"})"}) {
    SCOPED_TRACE(options);
    const auto payload = parse(
        std::string(R"({"id": 1, "method": "analyze", "options": )") +
        options + "}");
    ASSERT_TRUE(payload.has_value());
    service::Request request;
    std::string error;
    EXPECT_FALSE(service::parse_request(*payload, &request, &error));
    EXPECT_NE(error.find("was removed, use options.solver_config"),
              std::string::npos)
        << error;
  }
}

TEST(RequestTest, RefusesKeysTheDecoderDoesNotRead) {
  // A misspelled key must not silently keep its default: every level the
  // decoder reads refuses a key it does not know, naming its path.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"id": 1, "method": "analyze", "params": {"intervall": 450}})",
       "unknown key params.intervall"},
      {R"({"id": 1, "method": "analyze", "parms": {"paper": "4v"}})",
       "unknown key parms"},
      {R"({"id": 1, "method": "ping", "params": {}})", "unknown key params"},
      {R"({"id": 1, "method": "analyze", "sweep": {}})", "unknown key sweep"},
      {R"({"id": 1, "method": "analyze",
           "params": {"groups": [{"count": 3}, {"count": 3, "weigth": 2}]}})",
       "unknown key params.groups[1].weigth"},
      {R"({"id": 1, "method": "analyze", "params": {"groups": [{"alpha": 1}]}})",
       "unknown key params.groups[0].alpha"},
      {R"({"id": 1, "method": "analyze", "options": {"solver-config": ""}})",
       "unknown key options.solver-config"},
      {R"({"id": 1, "method": "sweep", "sweep": {"param": "mttc",
           "from": 1, "to": 2, "pionts": 5}})",
       "unknown key sweep.pionts"},
      {R"({"id": 1, "method": "simulate", "simulate": {"replications": 4}})",
       "unknown key simulate.replications"},
      {R"({"id": 1, "method": "monitor", "monitor": {"update-every": 10}})",
       "unknown key monitor.update-every"},
  };
  for (const auto& [text, message] : cases) {
    const auto payload = parse(text);
    ASSERT_TRUE(payload.has_value()) << text;
    service::Request request;
    std::string error;
    EXPECT_FALSE(service::parse_request(*payload, &request, &error)) << text;
    EXPECT_EQ(error, message) << text;
  }
  // Every key of every table still decodes.
  const auto payload = parse(
      R"({"id": 1, "method": "sweep", "deadline_ms": 50,
          "params": {"paper": "6v", "n": 7, "f": 1, "r": 1,
                     "rejuvenation": true, "mttc": 1500, "p-prime": 0.4,
                     "detection-rate": 0.001, "alpha": 0.5,
                     "groups": [{"count": 3, "weight": 1.5,
                                 "repair-degradation": 0.1},
                                {"count": 4, "mttr": 4}]},
          "options": {"convention": "strict", "attachment": "appendix",
                      "solver_config": "backend=dense"},
          "sweep": {"param": "interval", "from": 200, "to": 900,
                    "points": 4}})");
  ASSERT_TRUE(payload.has_value());
  service::Request request;
  std::string error;
  EXPECT_TRUE(service::parse_request(*payload, &request, &error)) << error;
}

TEST(RequestTest, ReusedRequestCarriesNothingOver) {
  // The server decodes into a fresh Request, but a caller that reuses one
  // must see each payload on its own: a refused field, an override or a
  // section of another method never leaks into the next decode.
  service::Request request;
  std::string error;
  const auto decode = [&](const std::string& text) {
    const auto payload = parse(text);
    EXPECT_TRUE(payload.has_value()) << text;
    return service::parse_request(*payload, &request, &error);
  };
  EXPECT_FALSE(decode(
      R"({"id": 1, "method": "monitor", "monitor": {"schedule": "bogus"}})"));
  EXPECT_TRUE(decode(R"({"id": 2, "method": "monitor"})")) << error;
  EXPECT_EQ(request.monitor.schedule.kind,
            monitor::DriftSchedule::Kind::kStep);

  ASSERT_TRUE(decode(
      R"({"id": 3, "method": "monitor", "params": {"paper": "6v", "mttc": 900},
          "monitor": {"horizon": 50000, "interval_hi": 2000, "seed": 5}})"))
      << error;
  ASSERT_TRUE(decode(R"({"id": 4, "method": "monitor"})")) << error;
  const monitor::SessionConfig defaults;
  EXPECT_EQ(request.id, 4u);
  EXPECT_EQ(request.monitor.duration, defaults.duration);
  EXPECT_EQ(request.monitor.controller.interval_hi,
            defaults.controller.interval_hi);
  EXPECT_EQ(request.monitor.hysteresis.max_interval,
            defaults.controller.interval_hi);
  EXPECT_EQ(request.monitor.seed, defaults.seed);
  EXPECT_EQ(request.monitor.params.mean_time_to_compromise,
            core::SystemParameters::paper_six_version()
                .mean_time_to_compromise);

  ASSERT_TRUE(decode(
      R"({"id": 5, "method": "sweep", "deadline_ms": 40,
          "sweep": {"param": "mttc", "from": 500, "to": 900, "points": 5}})"))
      << error;
  ASSERT_TRUE(decode(R"({"id": 6, "method": "analyze"})")) << error;
  EXPECT_EQ(request.deadline_ms, 0.0);
  EXPECT_EQ(request.sweep_points, 0u);
  EXPECT_TRUE(request.sweep_param.empty());
}

/// Decodes nvpcli flags the way nvpcli does: the flag-to-key map, the wire
/// parser, then parse_request. A flag the map refuses fails with its
/// message in `*error`.
bool decode_flags(const std::string& method,
                  const std::vector<std::string>& flags,
                  service::Request* request, std::string* error) {
  std::vector<const char*> argv = {"nvpcli"};  // CliArgs skips argv[0]
  for (const std::string& flag : flags) argv.push_back(flag.c_str());
  const util::CliArgs args(static_cast<int>(argv.size()), argv.data());
  try {
    const auto payload =
        parse(service::cli_request_json(1, method, args), error);
    return payload.has_value() &&
           service::parse_request(*payload, request, error);
  } catch (const std::invalid_argument& e) {
    *error = e.what();
    return false;
  }
}

TEST(RequestTest, FlagToKeyMapReachesEveryField) {
  service::Request request;
  std::string error;
  const auto paper = core::SystemParameters::paper_six_version();
  const auto scaled = [](double base) {
    return base == 0.0 ? 0.01 : base * 0.9;
  };
  const auto text = [](double v) { return util::format("%.17g", v); };

  // Every parameter-table row: system-wide as --<name>, per group as its
  // position in the --groups spec (count first, then the group rows).
  std::size_t position = 0;
  for (const core::ParameterField& field : core::parameter_fields()) {
    SCOPED_TRACE(field.name);
    if (field.system != nullptr) {
      const double v = scaled(paper.*field.system);
      ASSERT_TRUE(decode_flags("analyze",
                               {"--" + std::string(field.name), text(v)},
                               &request, &error))
          << error;
      EXPECT_EQ(request.params.*field.system, v);
    }
    if (field.group != nullptr) {
      ++position;
      const double inherited = paper.inherited_group(2).*field.group;
      const double v = scaled(inherited);
      const std::string spec =
          "5;2" + std::string(position, ':') + text(v);
      ASSERT_TRUE(
          decode_flags("analyze", {"--groups", spec}, &request, &error))
          << error;
      ASSERT_EQ(request.params.groups.size(), 2u);
      EXPECT_EQ(request.params.n_versions, 7);  // derived from the counts
      EXPECT_EQ(request.params.groups[0].count, 5);
      EXPECT_EQ(request.params.groups[1].count, 2);
      EXPECT_EQ(request.params.groups[1].*field.group, v);
      EXPECT_EQ(request.params.groups[0].*field.group, inherited);
    }
  }
  ASSERT_TRUE(decode_flags("analyze",
                           {"--paper", "4v", "--n", "7", "--f", "2", "--r",
                            "0", "--deadline-ms", "250"},
                           &request, &error))
      << error;
  EXPECT_EQ(request.params.n_versions, 7);
  EXPECT_EQ(request.params.max_faulty, 2);
  EXPECT_EQ(request.params.max_rejuvenating, 0);
  EXPECT_EQ(request.deadline_ms, 250.0);

  ASSERT_TRUE(decode_flags("analyze",
                           {"--convention", "strict", "--attachment",
                            "appendix", "--solver-config", "backend=sparse"},
                           &request, &error))
      << error;
  EXPECT_EQ(request.options.convention, core::RewardConvention::kStrict);
  EXPECT_EQ(request.options.attachment, core::RewardAttachment::kAppendixMatrices);
  EXPECT_EQ(request.options.solver.backend, markov::SolverBackend::kSparse);

  ASSERT_TRUE(decode_flags("sweep",
                           {"--param", "mttc", "--from", "500", "--to",
                            "900", "--points", "5"},
                           &request, &error))
      << error;
  EXPECT_EQ(request.sweep_param, "mttc");
  EXPECT_EQ(request.sweep_from, 500.0);
  EXPECT_EQ(request.sweep_to, 900.0);
  EXPECT_EQ(request.sweep_points, 5u);

  ASSERT_TRUE(decode_flags("simulate",
                           {"--horizon", "5e4", "--reps", "3", "--seed", "9"},
                           &request, &error))
      << error;
  EXPECT_EQ(request.simulate.horizon, 5e4);
  EXPECT_EQ(request.simulate.replications, 3u);
  EXPECT_EQ(request.simulate.seed, 9u);

  ASSERT_TRUE(decode_flags(
      "monitor",
      {"--schedule", "sinusoid", "--horizon", "50000", "--multiplier", "10",
       "--period", "30000", "--segment", "1000", "--policy", "static",
       "--update-every", "1250", "--interval-lo", "100", "--interval-hi",
       "2000", "--grid-points", "7", "--band", "0.2", "--seed", "42"},
      &request, &error))
      << error;
  const monitor::SessionConfig& session = request.monitor;
  EXPECT_EQ(session.schedule.kind, monitor::DriftSchedule::Kind::kSinusoid);
  EXPECT_EQ(session.duration, 50000.0);
  EXPECT_EQ(session.schedule.multiplier, 10.0);
  EXPECT_EQ(session.schedule.period, 30000.0);
  EXPECT_EQ(session.schedule.segment, 1000.0);
  EXPECT_EQ(session.policy, "static");
  EXPECT_EQ(session.controller.update_every, 1250.0);
  EXPECT_EQ(session.controller.interval_lo, 100.0);
  EXPECT_EQ(session.controller.interval_hi, 2000.0);
  EXPECT_EQ(session.controller.grid_points, 7u);
  EXPECT_EQ(session.hysteresis.band, 0.2);
  EXPECT_EQ(session.hysteresis.min_interval, 100.0);
  EXPECT_EQ(session.hysteresis.max_interval, 2000.0);
  EXPECT_EQ(session.seed, 42u);

  // Flags left out decode to the library types' own defaults.
  ASSERT_TRUE(decode_flags("simulate", {}, &request, &error)) << error;
  const core::Engine::SimulateOptions sim_defaults;
  EXPECT_EQ(request.simulate.horizon, sim_defaults.horizon);
  EXPECT_EQ(request.simulate.replications, sim_defaults.replications);
  EXPECT_EQ(request.simulate.seed, sim_defaults.seed);
  EXPECT_EQ(request.simulate.warmup_time, sim_defaults.warmup_time);
  ASSERT_TRUE(decode_flags("monitor", {}, &request, &error)) << error;
  const monitor::SessionConfig defaults;
  EXPECT_EQ(request.monitor.schedule.kind, defaults.schedule.kind);
  EXPECT_EQ(request.monitor.schedule.multiplier, defaults.schedule.multiplier);
  EXPECT_EQ(request.monitor.schedule.period, defaults.schedule.period);
  EXPECT_EQ(request.monitor.schedule.segment, defaults.schedule.segment);
  EXPECT_EQ(request.monitor.duration, defaults.duration);
  EXPECT_EQ(request.monitor.seed, defaults.seed);
  EXPECT_EQ(request.monitor.policy, defaults.policy);
  EXPECT_EQ(request.monitor.controller.update_every,
            defaults.controller.update_every);
  EXPECT_EQ(request.monitor.controller.interval_lo,
            defaults.controller.interval_lo);
  EXPECT_EQ(request.monitor.controller.interval_hi,
            defaults.controller.interval_hi);
  EXPECT_EQ(request.monitor.controller.grid_points,
            defaults.controller.grid_points);
  EXPECT_EQ(request.monitor.hysteresis.band, defaults.hysteresis.band);
  EXPECT_EQ(request.monitor.hysteresis.min_interval,
            defaults.controller.interval_lo);
  EXPECT_EQ(request.monitor.hysteresis.max_interval,
            defaults.controller.interval_hi);
}

TEST(RequestTest, FlagToKeyMapForwardsOnlyTypedFlags) {
  // An option the user did not type stays out of the request, so a
  // daemon's own `serve --convention` applies to --remote calls.
  const char* argv[] = {"nvpcli", "--paper", "6v", "--interval", "450"};
  const util::CliArgs args(5, argv);
  EXPECT_EQ(service::cli_request_json(1, "analyze", args),
            R"({"id":1,"method":"analyze","params":{"paper":"6v",)"
            R"("interval":450},"options":{}})");
  service::Request request;
  request.options.convention = core::RewardConvention::kStrict;
  std::string error;
  const auto payload = parse(service::cli_request_json(1, "analyze", args));
  ASSERT_TRUE(payload.has_value());
  ASSERT_TRUE(service::parse_request(*payload, &request, &error)) << error;
  EXPECT_EQ(request.options.convention, core::RewardConvention::kStrict);
}

TEST(RequestTest, FlagToKeyMapNamesTheFlagsItReads) {
  // nvpcli refuses a flag the map does not carry for the command's method.
  for (const char* flag : {"paper", "n", "interval", "p-prime", "groups",
                           "convention", "solver-config", "deadline-ms"})
    EXPECT_TRUE(service::cli_reads_flag("analyze", flag)) << flag;
  EXPECT_TRUE(service::cli_reads_flag("sweep", "points"));
  EXPECT_TRUE(service::cli_reads_flag("monitor", "update-every"));
  EXPECT_TRUE(service::cli_reads_flag("stats", "deadline-ms"));
  for (const char* flag : {"intervall", "weight", "points", "update_every"})
    EXPECT_FALSE(service::cli_reads_flag("analyze", flag)) << flag;
  EXPECT_FALSE(service::cli_reads_flag("stats", "paper"));
  EXPECT_FALSE(service::cli_reads_flag("simulate", "points"));
}

TEST(RequestTest, RefusesTheInputsNvpcliOnceRan) {
  // Each of these once ran (or aborted) in nvpcli while nvpd refused it;
  // both now go through one decoder. The message names the field.
  const std::pair<std::pair<const char*, std::vector<std::string>>,
                  const char*>
      cases[] = {
          {{"analyze", {"--paper", "9v"}}, "params.paper"},
          {{"simulate", {"--paper", "4v", "--reps", "0"}}, "reps >= 1"},
          {{"simulate", {"--horizon", "-1", "--reps", "2"}}, "horizon > 0"},
          {{"monitor", {"--interval-lo", "3000", "--interval-hi", "60"}},
           "interval_lo < interval_hi"},
          {{"monitor", {"--segment", "0"}}, "segment"},
          {{"monitor", {"--interval-lo", "0"}}, "0 < interval_lo"},
          {{"sweep", {"--param", "bogus", "--from", "1", "--to", "2"}},
           "sweep.param must be one of mttc|"},
          {{"monitor", {"--band", "-1"}}, "band >= 0"},
          {{"analyze", {"--interval", "inf"}},
           "--interval expects a finite number, got 'inf'"},
          {{"analyze", {"--alpha", "nan"}},
           "--alpha expects a finite number, got 'nan'"},
          {{"analyze", {"--interval", "1e999"}}, "--interval expects"},
          {{"analyze", {"--mttc", "abc"}}, "--mttc expects"},
          {{"simulate", {"--reps", "2.5"}}, "--reps expects an integer"},
          {{"analyze", {"--groups", "4;2:abc"}},
           "--groups group 2 mttc expects a finite number, got 'abc'"},
          {{"analyze", {"--groups", "4;x2"}},
           "--groups group 2 count expects an integer, got 'x2'"},
          {{"analyze", {"--groups", "4;2:1:2:3:4:5:6:7:8"}},
           "--groups group 2 has 9 fields, at most 8"},
      };
  for (const auto& [input, message] : cases) {
    const auto& [method, flags] = input;
    SCOPED_TRACE(method + (" " + util::join(flags, " ")));
    service::Request request;
    std::string error;
    EXPECT_FALSE(decode_flags(method, flags, &request, &error));
    EXPECT_NE(error.find(message), std::string::npos) << error;
  }
}

TEST(RequestTest, RefusesMonitorSessionsTheDaemonCouldNotRun) {
  // Both reached a precondition inside the session and ended the daemon.
  for (const char* text :
       {R"({"method": "monitor", "monitor": {"band": -0.5}})",
        R"({"method": "monitor", "params": {"rejuvenation": false}})"}) {
    SCOPED_TRACE(text);
    const auto payload = parse(text);
    ASSERT_TRUE(payload.has_value());
    service::Request request;
    std::string error;
    EXPECT_FALSE(service::parse_request(*payload, &request, &error));
  }
}

TEST(RequestTest, ParsesMonitorWithDefaultsAndOverrides) {
  const auto request = must_parse(
      R"({"id": 9, "method": "monitor", "params": {"paper": "6v"},
          "monitor": {"schedule": "ramp", "horizon": 50000,
                      "multiplier": 10, "policy": "static",
                      "update_every": 1250, "seed": 42}})");
  EXPECT_EQ(request.method, service::Method::kMonitor);
  const monitor::SessionConfig& session = request.monitor;
  EXPECT_EQ(session.schedule.kind, monitor::DriftSchedule::Kind::kRamp);
  EXPECT_DOUBLE_EQ(session.duration, 50000.0);
  EXPECT_DOUBLE_EQ(session.schedule.multiplier, 10.0);
  EXPECT_EQ(session.policy, "static");
  EXPECT_DOUBLE_EQ(session.controller.update_every, 1250.0);
  EXPECT_EQ(session.seed, 42u);
  EXPECT_EQ(session.params.n_versions, request.params.n_versions);
  // Absent keys keep the SessionConfig defaults.
  EXPECT_DOUBLE_EQ(session.schedule.period, 60000.0);
  EXPECT_DOUBLE_EQ(session.controller.interval_lo, 60.0);
  EXPECT_DOUBLE_EQ(session.controller.interval_hi, 3000.0);
  // The policy clamp is the optimizer's search range.
  EXPECT_DOUBLE_EQ(session.hysteresis.min_interval, 60.0);
  EXPECT_DOUBLE_EQ(session.hysteresis.max_interval, 3000.0);
  // Monitor sessions are seed-dependent stochastic work: never coalesced.
  EXPECT_EQ(service::coalesce_key(request), 0u);
}

TEST(RequestTest, CoalesceKeyTracksSolveIdentity) {
  const auto base = must_parse(
      R"({"id": 1, "method": "analyze", "params": {"paper": "4v"}})");
  const auto same = must_parse(
      R"({"id": 999, "method": "analyze", "params": {"paper": "4v"},
          "deadline_ms": 50})");
  const auto other_params = must_parse(
      R"({"id": 1, "method": "analyze",
          "params": {"paper": "4v", "interval": 451.0}})");
  // Identity ignores id and deadline (the response payload is the same);
  // it tracks everything that changes the solve.
  EXPECT_EQ(service::coalesce_key(base), service::coalesce_key(same));
  EXPECT_NE(service::coalesce_key(base),
            service::coalesce_key(other_params));

  const auto sweep_a = must_parse(
      R"({"id": 1, "method": "sweep", "params": {"paper": "4v"},
          "sweep": {"param": "mttc", "from": 500, "to": 900, "points": 5}})");
  const auto sweep_b = must_parse(
      R"({"id": 2, "method": "sweep", "params": {"paper": "4v"},
          "sweep": {"param": "mttc", "from": 500, "to": 900, "points": 6}})");
  EXPECT_NE(service::coalesce_key(sweep_a), 0u);
  EXPECT_NE(service::coalesce_key(sweep_a), service::coalesce_key(sweep_b));

  // Stochastic and trivial methods never coalesce.
  const auto simulate = must_parse(R"({"id": 1, "method": "simulate"})");
  EXPECT_EQ(service::coalesce_key(simulate), 0u);
  const auto ping = must_parse(R"({"id": 1, "method": "ping"})");
  EXPECT_EQ(service::coalesce_key(ping), 0u);
}

TEST(ClientTest, ParsesEndpoints) {
  std::string host;
  int port = 0;
  EXPECT_TRUE(service::parse_endpoint("127.0.0.1:9000", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9000);
  EXPECT_TRUE(service::parse_endpoint("9000", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_FALSE(service::parse_endpoint("host:", &host, &port));
  EXPECT_FALSE(service::parse_endpoint("host:0", &host, &port));
  EXPECT_FALSE(service::parse_endpoint("host:70000", &host, &port));
  EXPECT_FALSE(service::parse_endpoint("", &host, &port));
}

// ---------------------------------------------------------------------------
// Deadline-scoped engine entry.

TEST(EngineDeadlineTest, ExpiredDeadlineShortCircuits) {
  const core::Engine engine;
  const auto params = core::SystemParameters::paper_four_version();
  const auto result = engine.analyze_within(
      params, std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error.category, fault::Category::kDeadlineExceeded);
}

TEST(EngineDeadlineTest, GenerousDeadlineSucceedsIdentically) {
  const core::Engine engine;
  const auto params = core::SystemParameters::paper_four_version();
  const auto bounded = engine.analyze_within(
      params, std::chrono::steady_clock::now() + std::chrono::minutes(10));
  const auto unbounded = engine.analyze(params);
  ASSERT_TRUE(bounded.ok);
  ASSERT_TRUE(unbounded.ok);
  // Same staged cache identity: the deadline must not perturb the solve.
  EXPECT_EQ(bounded.analysis.expected_reliability,
            unbounded.analysis.expected_reliability);
}

// ---------------------------------------------------------------------------
// Server end to end.

class ServiceTest : public ::testing::Test {
 protected:
  /// Starts a server with a deterministic single-worker configuration and
  /// snapshots the process-global counters (tests assert on deltas).
  void start(service::Server::Options options = {}) {
    options.port = 0;
    if (options.workers == 0) options.workers = 1;
    server_ = std::make_unique<service::Server>(options);
    server_->start();
    before_ = service::service_stats();
  }

  void TearDown() override {
    if (server_) server_->shutdown();
  }

  service::Client connect() {
    service::Client client;
    std::string error;
    EXPECT_TRUE(client.connect("127.0.0.1", server_->port(), &error))
        << error;
    return client;
  }

  /// Blocks until the worker has *started* executing `count` more tasks
  /// than the snapshot. Tests that race a second connection against a
  /// blocker need this: each connection has its own reader thread, so
  /// without it the racing request can be admitted (and solved) first.
  bool wait_until_executing(std::uint64_t count) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (service::service_stats().executed < before_.executed + count) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  /// A solve that holds the single worker busy for a macroscopic time:
  /// a cold wide sweep (the stage caches are dropped first) of the
  /// 176-state N = 10 model, whose points take the matrix-free backend.
  static std::string blocker_request(std::uint64_t id) {
    core::clear_stage_caches();
    return "{\"id\":" + std::to_string(id) +
           ",\"method\":\"sweep\",\"params\":{\"paper\":\"6v\",\"n\":10},"
           "\"sweep\":{\"param\":\"mttc\",\"from\":500,\"to\":5000,"
           "\"points\":40}}";
  }

  std::unique_ptr<service::Server> server_;
  service::ServiceStats before_;
};

TEST_F(ServiceTest, PingAndStatsRoundTrip) {
  start();
  service::Client client = connect();
  std::string error;
  const auto pong = client.call(3, "{\"id\":3,\"method\":\"ping\"}", &error);
  ASSERT_TRUE(pong.has_value()) << error;
  EXPECT_TRUE(pong->ok);
  EXPECT_TRUE(pong->result->bool_or("pong", false));

  const auto stats =
      client.call(4, "{\"id\":4,\"method\":\"stats\"}", &error);
  ASSERT_TRUE(stats.has_value()) << error;
  ASSERT_TRUE(stats->ok);
  ASSERT_NE(stats->result->get("service"), nullptr);
  ASSERT_NE(stats->result->get("caches"), nullptr);
}

TEST_F(ServiceTest, AnalyzeMatchesLocalEngine) {
  start();
  service::Client client = connect();
  std::string error;
  const auto response = client.call(
      1,
      R"({"id":1,"method":"analyze","params":{"paper":"4v"}})", &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_TRUE(response->ok);
  const core::Engine engine;
  const auto local =
      engine.analyze(core::SystemParameters::paper_four_version());
  EXPECT_DOUBLE_EQ(response->result->number_or("expected_reliability", -1.0),
                   local.analysis.expected_reliability);
}

TEST_F(ServiceTest, PerRequestOptionsDriveTheSolve) {
  start();  // daemon default: auto backend (dense for the small 4v model)
  service::Client client = connect();
  std::string error;

  const auto forced = client.call(
      1,
      R"({"id":1,"method":"analyze","params":{"paper":"4v"},
          "options":{"solver_config":"backend=sparse"}})",
      &error);
  ASSERT_TRUE(forced.has_value()) << error;
  ASSERT_TRUE(forced->ok);
  EXPECT_EQ(forced->result->string_or("backend", ""), "sparse");

  const auto defaulted = client.call(
      2, R"({"id":2,"method":"analyze","params":{"paper":"4v"}})", &error);
  ASSERT_TRUE(defaulted.has_value()) << error;
  ASSERT_TRUE(defaulted->ok);
  EXPECT_EQ(defaulted->result->string_or("backend", ""), "dense");

  // Both paths must still agree with a local engine run under the same
  // options (the sparse/dense backends are equivalence-tested elsewhere).
  const core::Engine local;
  const auto expected =
      local.analyze(core::SystemParameters::paper_four_version());
  ASSERT_TRUE(expected.ok);
  EXPECT_DOUBLE_EQ(defaulted->result->number_or("expected_reliability", -1.0),
                   expected.analysis.expected_reliability);
  EXPECT_NEAR(forced->result->number_or("expected_reliability", -1.0),
              expected.analysis.expected_reliability, 1e-8);
}

TEST_F(ServiceTest, RequestsInheritTheDaemonsConfiguredOptions) {
  service::Server::Options options;
  options.analyzer.solver.backend = markov::SolverBackend::kSparse;
  start(options);
  service::Client client = connect();
  std::string error;
  const auto response = client.call(
      1, R"({"id":1,"method":"analyze","params":{"paper":"4v"}})", &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_TRUE(response->ok);
  // No per-request options: the daemon's configured backend applies.
  EXPECT_EQ(response->result->string_or("backend", ""), "sparse");
}

TEST_F(ServiceTest, MalformedPayloadsYieldStructuredErrorsNotCrashes) {
  start();
  service::Client client = connect();
  std::string error;

  // Garbage JSON: structured invalid-model error with id 0, connection
  // stays usable (the frame boundary was intact).
  ASSERT_TRUE(client.send("this is not json"));
  auto response = client.receive(&error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_FALSE(response->ok);
  EXPECT_EQ(response->id, 0u);
  EXPECT_EQ(response->error->string_or("category", ""), "invalid-model");

  // Bad request on the same connection: still answered.
  ASSERT_TRUE(client.send("{\"id\":9,\"method\":\"bogus\"}"));
  response = client.receive(&error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->id, 9u);

  // And the connection still serves work afterwards.
  const auto pong = client.call(10, "{\"id\":10,\"method\":\"ping\"}", &error);
  ASSERT_TRUE(pong.has_value()) << error;
  EXPECT_TRUE(pong->ok);

  const auto after = service::service_stats();
  EXPECT_GE(after.protocol_errors, before_.protocol_errors + 2);
}

TEST_F(ServiceTest, UnrunnableInputsGetErrorEnvelopes) {
  // An interval of 1e999 reached the solver as inf and never returned; a
  // negative band ended the process. Both are now answered, and the daemon
  // keeps serving.
  start();
  service::Client client = connect();
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
               sizeof(timeout));
  std::string error;
  ASSERT_TRUE(client.send(
      R"({"id":1,"method":"analyze","params":{"paper":"6v","interval":1e999}})"));
  auto response = client.receive(&error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_FALSE(response->ok);
  EXPECT_NE(response->error->string_or("message", "").find("out of range"),
            std::string::npos);

  response = client.call(
      2, R"({"id":2,"method":"monitor","monitor":{"band":-1}})", &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_FALSE(response->ok);

  const auto pong = client.call(3, R"({"id":3,"method":"ping"})", &error);
  ASSERT_TRUE(pong.has_value()) << error;
  EXPECT_TRUE(pong->ok);
}

TEST_F(ServiceTest, OversizedFrameRejectedAndConnectionClosed) {
  service::Server::Options options;
  options.max_frame_bytes = 64;
  start(options);
  service::Client client = connect();
  std::string framed;
  service::append_frame(framed, std::string(1024, 'x'));
  ASSERT_TRUE(::send(client.fd(), framed.data(), framed.size(), 0) > 0);
  std::string error;
  const auto response = client.receive(&error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->id, 0u);
  // The stream is poisoned; the server hangs up after answering.
  EXPECT_FALSE(client.receive(&error).has_value());
}

TEST_F(ServiceTest, ConcurrentIdenticalRequestsCoalesceToOneSolve) {
  start();  // one worker
  service::Client blocker = connect();
  ASSERT_TRUE(blocker.send(blocker_request(100)));
  ASSERT_TRUE(wait_until_executing(1));

  // While the worker grinds through the cold sweep, pipeline N identical
  // analyze requests: the first becomes the queued leader, the rest attach.
  constexpr int kBurst = 32;
  service::Client client = connect();
  for (int i = 0; i < kBurst; ++i)
    ASSERT_TRUE(client.send(
        "{\"id\":" + std::to_string(200 + i) +
        ",\"method\":\"analyze\",\"params\":{\"paper\":\"4v\"}}"));

  std::string error;
  std::map<std::uint64_t, std::string> results;
  for (int i = 0; i < kBurst; ++i) {
    const auto response = client.receive(&error);
    ASSERT_TRUE(response.has_value()) << error;
    EXPECT_TRUE(response->ok);
    // Compare the spliced result bytes (the envelope differs by id).
    const std::size_t at = response->raw.find("\"result\"");
    ASSERT_NE(at, std::string::npos);
    results[response->id] = response->raw.substr(at);
  }
  ASSERT_EQ(results.size(), kBurst);
  for (const auto& [id, bytes] : results)
    EXPECT_EQ(bytes, results.begin()->second) << "id " << id;

  const auto blocked = blocker.receive(&error);
  ASSERT_TRUE(blocked.has_value()) << error;
  EXPECT_TRUE(blocked->ok);

  const auto after = service::service_stats();
  // Blocker + at most a handful of leader solves; the burst must have
  // overwhelmingly coalesced while the worker was busy.
  EXPECT_GE(after.coalesced, before_.coalesced + kBurst / 2);
  EXPECT_EQ((after.executed - before_.executed) +
                (after.coalesced - before_.coalesced),
            static_cast<std::uint64_t>(kBurst) + 1);
}

TEST_F(ServiceTest, ExpiredDeadlineSkipsTheSolve) {
  start();  // one worker
  service::Client blocker = connect();
  ASSERT_TRUE(blocker.send(blocker_request(100)));
  // Only once the worker is inside the blocker's solve is the deadline
  // request guaranteed to sit in the queue past its 1 ms budget.
  ASSERT_TRUE(wait_until_executing(1));

  service::Client client = connect();
  std::string error;
  const auto response = client.call(
      5,
      R"({"id":5,"method":"analyze","deadline_ms":1,
          "params":{"paper":"4v","interval":123.0}})",
      &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_FALSE(response->ok);
  EXPECT_EQ(response->error->string_or("category", ""), "deadline-exceeded");

  const auto blocked = blocker.receive(&error);
  ASSERT_TRUE(blocked.has_value()) << error;
  EXPECT_TRUE(blocked->ok);
  const auto after = service::service_stats();
  EXPECT_GE(after.deadline_missed, before_.deadline_missed + 1);
}

TEST_F(ServiceTest, FullQueueRejectsWithRetryHint) {
  service::Server::Options options;
  options.queue_capacity = 1;
  start(options);  // one worker, one queue slot
  service::Client client = connect();
  ASSERT_TRUE(client.send(blocker_request(100)));
  // Give the worker a moment to dequeue the blocker (frees the slot).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Occupies the single queue slot (distinct key, so no coalescing).
  ASSERT_TRUE(client.send(
      R"({"id":101,"method":"analyze","params":{"paper":"4v"}})"));
  // Overflows the queue.
  ASSERT_TRUE(client.send(
      R"({"id":102,"method":"analyze",
          "params":{"paper":"4v","interval":777.0}})"));

  std::string error;
  std::map<std::uint64_t, service::Response> responses;
  for (int i = 0; i < 3; ++i) {
    auto response = client.receive(&error);
    ASSERT_TRUE(response.has_value()) << error;
    const std::uint64_t id = response->id;
    responses.emplace(id, std::move(*response));
  }
  EXPECT_TRUE(responses.at(100).ok);
  EXPECT_TRUE(responses.at(101).ok);
  const auto& rejected = responses.at(102);
  ASSERT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error->string_or("category", ""), "resource");
  EXPECT_GT(rejected.error->number_or("retry_after_ms", 0.0), 0.0);
  const auto after = service::service_stats();
  EXPECT_GE(after.rejected, before_.rejected + 1);
}

TEST_F(ServiceTest, GracefulShutdownDeliversInFlightResponses) {
  start();  // one worker
  service::Client client = connect();
  ASSERT_TRUE(client.send(blocker_request(100)));
  // Ensure the request was admitted before shutting down.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  server_->shutdown();
  EXPECT_TRUE(server_->stopped());

  // The in-flight solve's response was flushed before the socket closed.
  std::string error;
  const auto response = client.receive(&error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->id, 100u);
  EXPECT_TRUE(response->ok);
}

TEST_F(ServiceTest, ProtocolShutdownRequestUnblocksWait) {
  start();
  service::Client client = connect();
  std::string error;
  const auto response =
      client.call(1, "{\"id\":1,\"method\":\"shutdown\"}", &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_TRUE(response->ok);
  EXPECT_TRUE(response->result->bool_or("shutting_down", false));
  server_->wait();  // must return promptly
  EXPECT_TRUE(server_->shutdown_requested());
  server_->shutdown();
  EXPECT_TRUE(server_->stopped());
}

}  // namespace
}  // namespace nvp
