#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/core/analyzer.hpp"
#include "src/core/params.hpp"
#include "src/fault/error.hpp"
#include "src/service/wire.hpp"

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
///     "params":  { "paper": "4v"|"6v", ...numeric overrides... },
///     "options": { "convention": ..., "attachment": ..., "solver": ...,
///                  "fallback": "stage,stage,..." },
///     "sweep":    { "param": ..., "from": ..., "to": ..., "points": ... },
///     "simulate": { "horizon": ..., "reps": ..., "seed": ... },
///     "monitor":  { "schedule": ..., "horizon": ..., "multiplier": ...,
///                   "period": ..., "segment": ..., "policy": ...,
///                   "update_every": ..., "interval_lo": ...,
///                   "interval_hi": ..., "grid_points": ..., "band": ...,
///                   "seed": ... } }
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

/// One parsed protocol request. Defaults mirror the CLI's.
struct Request {
  std::uint64_t id = 0;
  Method method = Method::kPing;
  double deadline_ms = 0.0;  ///< 0 = no deadline

  core::SystemParameters params;
  /// Solver/reward options the solve must run with. parse_request overlays
  /// only the keys present in the request's `options` object onto whatever
  /// the caller seeded here — the server seeds its own analyzer
  /// configuration, so absent keys inherit the daemon's defaults.
  core::ReliabilityAnalyzer::Options options;

  // sweep
  std::string sweep_param = "interval";
  double sweep_from = 0.0;
  double sweep_to = 0.0;
  std::size_t sweep_points = 0;

  // simulate
  double sim_horizon = 1.0e6;
  std::size_t sim_replications = 8;
  std::uint64_t sim_seed = 1;

  // monitor — kept as plain fields (not a monitor::SessionConfig) so the
  // protocol layer stays decoupled from the monitor subsystem; the server
  // assembles the session config at execution time.
  std::string mon_schedule = "step";
  double mon_horizon = 200000.0;
  double mon_multiplier = 8.0;
  double mon_period = 60000.0;
  double mon_segment = 2000.0;
  std::string mon_policy = "hysteresis";
  double mon_update_every = 2500.0;
  double mon_interval_lo = 60.0;
  double mon_interval_hi = 3000.0;
  std::size_t mon_grid_points = 10;
  double mon_band = 0.15;
  std::uint64_t mon_seed = 1;
};

/// Parses a decoded JSON payload into a Request. On failure returns false
/// and fills `*error` with a one-line message (the caller wraps it in an
/// invalid-request response; the connection stays usable — the frame itself
/// was well-formed).
bool parse_request(const wire::Value& payload, Request* request,
                   std::string* error);

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
