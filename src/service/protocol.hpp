#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/core/analyzer.hpp"
#include "src/core/engine.hpp"
#include "src/core/params.hpp"
#include "src/fault/error.hpp"
#include "src/monitor/session.hpp"
#include "src/service/wire.hpp"
#include "src/util/cli.hpp"

namespace nvp::service {

/// nvpd wire format: length-prefixed JSON. Every message is one frame —
/// a 4-byte big-endian payload length followed by that many bytes of JSON.
/// Requests and responses share the framing; a connection carries any number
/// of frames, and responses may arrive out of order (match on `id`).
///
/// Request object:
///   { "id": <u64>, "method": "ping"|"analyze"|"sweep"|"simulate"|
///                            "monitor"|"stats"|"shutdown",
///     "deadline_ms": <ms, optional>,
///     "params":  { "paper": "4v"|"6v", ...numeric overrides...,
///                  "groups": [ { "count": ..., ...group overrides... } ] },
///     "options": { "convention": ..., "attachment": ...,
///                  "solver_config": "key=value,..." },
///     "sweep":    { "param": ..., "from": ..., "to": ..., "points": ... },
///     "simulate": { "horizon": ..., "reps": ..., "seed": ... },
///     "monitor":  { "schedule": ..., "horizon": ..., "multiplier": ...,
///                   "period": ..., "segment": ..., "policy": ...,
///                   "update_every": ..., "interval_lo": ...,
///                   "interval_hi": ..., "grid_points": ..., "band": ...,
///                   "seed": ... } }
///
/// A key left out takes the default of the field it fills (the paper
/// preset, core::Engine::SimulateOptions, monitor::SessionConfig). A key
/// the decoder does not read — at top level, in `params`, in a `groups`
/// entry, in `options` or in the method's section — is refused by name
/// ("unknown key params.intervall"); the removed `options.solver` and
/// `options.fallback` are refused with their replacement.
///
/// Response object:
///   { "id": <u64>, "ok": true,  "result": { ... } }
///   { "id": <u64>, "ok": false, "error": { "category": ..., "message": ...,
///       "site": ..., "retry_after_ms": <only on queue rejection> } }
///
/// Framing errors (oversized / truncated / non-JSON payloads) produce a
/// structured error response with id 0 and close the connection, since the
/// byte stream can no longer be trusted to be frame-aligned.

/// Upper bound a peer will accept for one frame payload. Large enough for a
/// wide sweep response, small enough that a hostile length prefix cannot
/// make the peer allocate gigabytes.
inline constexpr std::uint32_t kMaxFrameBytes = 8u << 20;

/// Outcome of reading one frame from a stream.
enum class FrameStatus {
  kOk,        ///< payload filled
  kEof,       ///< clean end of stream before a header byte
  kTooLarge,  ///< length prefix exceeds the limit; stream is poisoned
  kTruncated, ///< stream ended mid-header or mid-payload
  kIoError,   ///< read(2) failed
};
const char* to_string(FrameStatus status);

/// Appends the 4-byte header + payload to `out` (in-memory framing for
/// batched writes and tests).
void append_frame(std::string& out, std::string_view payload);

/// Blocking frame read from a file descriptor. Retries EINTR; returns
/// kEof only on a clean close at a frame boundary.
FrameStatus read_frame(int fd, std::string& payload,
                       std::uint32_t max_bytes = kMaxFrameBytes);

/// Blocking frame write (single writev-style buffer; retries EINTR and
/// short writes, suppresses SIGPIPE). False on any write failure.
bool write_frame(int fd, std::string_view payload);

// ---------------------------------------------------------------------------
// Typed requests.

enum class Method {
  kPing, kAnalyze, kSweep, kSimulate, kMonitor, kStats, kShutdown
};
const char* to_string(Method method);

/// One parsed protocol request: the one schema behind nvpd and nvpcli.
struct Request {
  std::uint64_t id = 0;
  Method method = Method::kPing;
  double deadline_ms = 0.0;  ///< 0 = no deadline

  core::SystemParameters params;
  /// Solver/reward options the solve runs with: the request's `options`
  /// keys overlay what the caller seeded (nvpd seeds its own defaults).
  core::ReliabilityAnalyzer::Options options;

  // sweep
  std::string sweep_param;
  double sweep_from = 0.0;
  double sweep_to = 0.0;
  std::size_t sweep_points = 0;

  core::Engine::SimulateOptions simulate;
  /// The whole session of a monitor request; its `params` are `params`.
  monitor::SessionConfig monitor;
};

/// Parses a decoded JSON payload into a Request. Every field but the
/// caller-seeded `options` is decoded afresh, so a reused Request carries
/// nothing over. On failure returns false and fills `*error` with a
/// one-line message (the caller wraps it in an invalid-request response;
/// the connection stays usable — the frame itself was well-formed).
bool parse_request(const wire::Value& payload, Request* request,
                   std::string* error);

/// nvpcli's flag-to-key map: the request JSON for `method` that carries
/// exactly the flags present in `args`, each under its wire key (`--groups`
/// spec fields become group objects). A flag left out stays out of the
/// JSON, so the decoder's default — or, for `options`, the daemon's own
/// setting — applies. Throws std::invalid_argument naming the flag on a
/// value that is not a finite number or whole count.
std::string cli_request_json(std::uint64_t id, const std::string& method,
                             const util::CliArgs& args);

/// True when cli_request_json maps the flag `--flag` into a `method`
/// request — the flags the decoder reads for that method.
bool cli_reads_flag(const std::string& method, std::string_view flag);

/// Canonical identity of a request for in-flight coalescing: requests with
/// equal keys are guaranteed to produce identical result payloads, so they
/// can share one solve. analyze keys reuse the staged pipeline's
/// rewards_stage_key; sweep keys extend it with the sweep spec. Returns 0
/// for methods that never coalesce (simulate and monitor are seed-dependent
/// stochastic work; ping/stats/shutdown are trivial).
std::uint64_t coalesce_key(const Request& request);

// ---------------------------------------------------------------------------
// Response rendering. Result payloads are built once per solve and spliced
// into each coalesced waiter's envelope, so identical requests receive
// byte-identical `result` objects by construction.

/// { "id": <id>, "ok": true, "result": <result_json> }
std::string ok_response(std::uint64_t id, std::string_view result_json);

/// { "id": <id>, "ok": false, "error": { ... } }. `retry_after_ms` > 0 adds
/// the queue-rejection retry hint.
std::string error_response(std::uint64_t id, const fault::ErrorInfo& error,
                           double retry_after_ms = 0.0);

/// Renders the analyze result payload for a RunResult's AnalysisResult.
std::string analyze_result_json(const core::AnalysisResult& analysis);

}  // namespace nvp::service
