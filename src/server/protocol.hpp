// The htp_serve wire protocol: newline-delimited JSON, one request object
// per line, one response object per line (docs/server.md is the
// field-by-field handbook; docs/file-formats.md holds the format grammar).
//
// Requests carry schema "htp-serve-request", responses
// "htp-serve-response", both at schema_version 1 and versioned under the
// same policy as htp-run-report: additive fields keep the version,
// breaking changes bump it, consumers reject versions they do not know.
//
// Response layout is deliberate: the top-level "deterministic" key comes
// first and holds everything bit-identical across cache states and thread
// counts for a deadline-free request — meta, result, and the partition
// text — so obs::DeterministicSection() extracts the comparable slice
// directly (the warm-vs-cold byte-identity test does exactly that). The
// "cache" and "wall" sections sit outside it and may differ freely.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "server/json_parse.hpp"
#include "server/session.hpp"

namespace htp::serve {

inline constexpr std::string_view kServeRequestSchema = "htp-serve-request";
inline constexpr std::string_view kServeResponseSchema = "htp-serve-response";
inline constexpr int kServeSchemaVersion = 1;

/// One decoded request line.
struct ServeRequest {
  /// "partition" (default), "ping" (liveness probe), or "shutdown".
  std::string op = "partition";
  /// The request's `id` member re-rendered as a JSON fragment (string,
  /// number, or "null" when absent), echoed verbatim in the response so
  /// clients can match responses arriving in completion order.
  std::string id_json = "null";
  SessionRequest session;
  /// Per-request wall-clock SLA in milliseconds; 0 = none. Routed into
  /// Budget::time_budget_seconds — the same safepoint machinery as
  /// htp_cli --time-budget — armed when the request starts *running*
  /// (queue wait is excluded; serve.queue_wait observes it instead).
  double deadline_ms = 0.0;
  /// Embed the full RunReport under the top-level "report" key. Off by
  /// default: report counters are process-cumulative in a daemon, so the
  /// report is NOT part of the deterministic response section.
  bool want_report = false;
};

/// Decodes one parsed request document. Strict: unknown members, wrong
/// types, or an unsupported schema/schema_version throw htp::Error, so
/// client typos fail loudly instead of silently running defaults.
ServeRequest ParseServeRequest(const JsonValue& doc);

/// Renders the success response for a completed partition request.
std::string RenderServeResponse(const ServeRequest& request,
                                const SessionResult& result,
                                double queue_wait_ms);

/// Renders the response for "ping" and "shutdown" ops.
std::string RenderServeAck(const std::string& id_json, std::string_view op);

/// Renders an error response (parse failures, rejected requests, run
/// errors). `id_json` may be "null" when the id never decoded.
std::string RenderServeError(const std::string& id_json,
                             std::string_view message);

/// Longest request line the daemon buffers, newline excluded; far above
/// the measured request sizes docs/server.md lists.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{64} << 20;

/// Frames a connection's byte stream into lines, scanning each byte for the
/// newline once and buffering at most `max_line` bytes of an unfinished
/// line. A longer line is reported once as too_long, as soon as it crosses
/// the cap; its bytes are dropped through the next newline.
class LineFramer {
 public:
  struct Line {
    std::string text;  ///< newline excluded; empty when too_long
    bool too_long = false;
  };
  explicit LineFramer(std::size_t max_line = kMaxRequestLineBytes)
      : max_line_(max_line) {}
  void Append(std::string_view bytes);
  /// The next framed line, or nullopt until more bytes arrive.
  std::optional<Line> Next();

 private:
  std::size_t max_line_;
  std::string buffer_;
  std::size_t start_ = 0;    // first byte of the current line
  std::size_t scanned_ = 0;  // no newline in [start_, scanned_)
  bool discarding_ = false;  // dropping an overlong line's tail
};

}  // namespace htp::serve
