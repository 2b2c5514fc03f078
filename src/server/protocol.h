#ifndef CRSAT_SERVER_PROTOCOL_H_
#define CRSAT_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/base/resource_guard.h"

namespace crsat {
namespace server {

/// The crsatd wire protocol (DESIGN.md §15): length-prefixed binary
/// frames over a byte stream (TCP or AF_UNIX). One frame = one request
/// or one response; a connection is a *session* that carries state (the
/// parsed schema) between frames.
///
/// Frame layout, little-endian, 32-byte fixed header + payload:
///
///   offset  size  field
///   0       4     magic 0x44535243 ("CRSD")
///   4       1     protocol version (kProtocolVersion)
///   5       1     type (RequestType; responses set kResponseBit)
///   6       1     status (ResponseStatus on responses, 0 on requests)
///   7       1     reserved, must be 0
///   8       4     deadline_ms   (request budget; 0 = no request limit)
///   12      8     max_compounds (request budget; 0 = no request limit)
///   20      8     max_memory_bytes (request budget; 0 = no request limit)
///   28      4     payload size N (<= kMaxPayloadBytes)
///   32      N     payload bytes
///
/// The three budget fields become a per-request `ResourceGuard`, clamped
/// by the server-wide caps (`ClampBudget`); the CLI's 0/1/2/3 exit-code
/// contract is carried verbatim in the response status byte, extended
/// with the service-only statuses (protocol error, load shed, draining).
///
/// Response ordering: within one connection, admitted (session-level)
/// requests are answered in submission order — the scheduler runs at
/// most one per session at a time — but service-level requests
/// (`stats`, `shutdown`), protocol errors, and admission refusals are
/// answered directly from the connection's reader thread and may
/// overtake responses to earlier admitted requests still queued.
/// Strict request-reply usage (one outstanding request per connection,
/// as `Client::Call` enforces) always reads its own response next; a
/// pipelining peer must not assume global FIFO and would need its own
/// correlation scheme.

inline constexpr std::uint32_t kMagic = 0x44535243u;  // "CRSD"
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 32;
/// Hard cap on one frame's payload; a declared size beyond it is a
/// protocol error (a length-prefixed protocol must never trust the
/// prefix with its allocator).
inline constexpr std::uint32_t kMaxPayloadBytes = 16u << 20;

/// Set on the `type` byte of every response frame.
inline constexpr std::uint8_t kResponseBit = 0x80;

/// What the client asks the session to do.
enum class RequestType : std::uint8_t {
  /// Payload: "<display-name>\n<schema DSL text>". Parses and stores the
  /// schema on the session; every later request runs against it.
  kParse = 1,
  /// Payload empty. Class-satisfiability verdicts, byte-identical to
  /// `crsat_cli check <file>` stdout.
  kCheck = 2,
  /// Payload: "" or "json". Structural diagnostics, byte-identical to
  /// `crsat_cli lint <file> [--json]` stdout.
  kLint = 3,
  /// Payload: "isa <Sub> <Super>" or "card <Class> <Rel> <Role>",
  /// mirroring `crsat_cli implies`.
  kImplications = 4,
  /// Payload: "text", "json" or "dot" (empty = "text"): verdicts plus a
  /// certified witness, byte-identical to `crsat_cli check --witness=M`.
  kWitness = 5,
  /// Payload empty. Server/scheduler counters as JSON.
  kStats = 6,
  /// Payload empty. Begins graceful drain: in-flight requests finish,
  /// new ones are refused with kShuttingDown.
  kShutdown = 7,
};

/// True iff `type` (with kResponseBit stripped) names a request type.
bool IsKnownRequestType(std::uint8_t type);

/// Response status byte. Values 0..3 mirror the CLI exit-code contract
/// (0 ok, 1 findings, 2 bad request, 3 resource limit / honest UNKNOWN),
/// and kFailed is the CLI's other exit 1 (an error on stderr, nothing on
/// stdout); the rest are service-level outcomes with no one-shot
/// equivalent.
enum class ResponseStatus : std::uint8_t {
  kOk = 0,
  kFindings = 1,
  kBadRequest = 2,
  /// A ResourceGuard limit tripped (degradation-ladder rung 3): the
  /// payload carries the trip report, never a guessed verdict.
  kResource = 3,
  /// The peer broke the framing contract (bad magic/version/length).
  kProtocolError = 4,
  /// Admission control shed the request (queue bound reached). A
  /// resource-family refusal: retry later, nothing was computed.
  kOverloaded = 5,
  /// The server is draining and accepts no new work.
  kShuttingDown = 6,
  /// The command failed before printing a verdict (the CLI's exit 1 with
  /// only stderr): the payload is that stderr text.
  kFailed = 7,
};

/// Stable name for a status ("ok", "findings", "overloaded", ...).
const char* ResponseStatusToString(ResponseStatus status);

/// One decoded frame. Requests leave `status` 0; responses leave the
/// budget fields 0.
struct Frame {
  std::uint8_t version = kProtocolVersion;
  std::uint8_t type = 0;  ///< RequestType value; | kResponseBit on responses.
  std::uint8_t status = 0;
  std::uint32_t deadline_ms = 0;
  std::uint64_t max_compounds = 0;
  std::uint64_t max_memory_bytes = 0;
  std::string payload;

  bool is_response() const { return (type & kResponseBit) != 0; }
  RequestType request_type() const {
    return static_cast<RequestType>(type & ~kResponseBit);
  }
  ResponseStatus response_status() const {
    return static_cast<ResponseStatus>(status);
  }
};

/// Convenience factories.
Frame MakeRequest(RequestType type, std::string payload);
Frame MakeResponse(RequestType type, ResponseStatus status,
                   std::string payload);

/// Serializes `frame` into wire bytes (header + payload). The payload
/// must already respect `kMaxPayloadBytes` — encoding never truncates
/// (a silently clipped frame would decode "successfully" to the wrong
/// bytes). `Client::Call` refuses oversized request payloads up front
/// with a status; the server substitutes an explicit error response
/// for an oversized response payload.
std::string EncodeFrame(const Frame& frame);

/// Outcome of `DecodeFrame` over a reassembly buffer.
enum class DecodeResult {
  kFrame,     ///< One complete frame decoded; `*consumed` bytes eaten.
  kNeedMore,  ///< The buffer holds a valid prefix; read more bytes.
  kError,     ///< The buffer can never become a valid frame.
};

/// Decodes one frame from the front of `buffer`. On `kFrame` fills
/// `*frame` and `*consumed`; on `kError` fills `*error` with a
/// human-readable reason (bad magic, unsupported version, oversized
/// payload, nonzero reserved byte). `kNeedMore` means the caller should
/// append more bytes and retry — short reads are normal operation, not
/// errors (the `server/short-read` failpoint exercises exactly this).
DecodeResult DecodeFrame(std::string_view buffer, Frame* frame,
                         std::size_t* consumed, std::string* error);

/// The request-budget headers as `ResourceLimits`, clamped field-wise by
/// the server-wide caps: a request may always *tighten* a cap, never
/// exceed it (0 in a request field means "use the cap"; an unset cap
/// field means the request value passes through).
ResourceLimits ClampBudget(const Frame& request, const ResourceLimits& caps);

}  // namespace server
}  // namespace crsat

#endif  // CRSAT_SERVER_PROTOCOL_H_
