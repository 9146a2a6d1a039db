#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/request.hpp"

namespace lptsp {

/// The lptspd wire protocol: length-prefixed binary frames carrying the
/// batch labeling service's SolveRequest/SolveResponse across a socket.
///
/// Frame layout (all integers little-endian):
///
///   u32 payload_len | u8 message_type | body (payload_len - 1 bytes)
///
/// A connection opens with Hello/HelloAck (magic + version handshake);
/// afterwards the client pipelines Request frames and the server answers
/// with Response frames in completion order (matched by the u64 request
/// id), plus Error frames for protocol-level faults. Decoding never throws
/// across the boundary: every malformed input is reported as a typed
/// WireFault, and size limits are checked before any allocation so a
/// hostile length prefix cannot cause unbounded memory growth.

/// Bytes "LPTS" when the u32 is written little-endian.
inline constexpr std::uint32_t kWireMagic = 0x5354504CU;
/// The one protocol version. A Hello claiming any other version is
/// refused with a typed BadVersion Error frame; there is no negotiation.
inline constexpr std::uint16_t kWireVersion = 4;

enum class MessageType : std::uint8_t {
  Hello = 1,         ///< client -> server: magic + version
  HelloAck = 2,      ///< server -> client: magic + version
  Request = 3,       ///< client -> server: one SolveRequest
  Response = 4,      ///< server -> client: one SolveResponse (typed status)
  Error = 5,         ///< server -> client: protocol fault, connection closing
  Shutdown = 6,      ///< client -> server: flush pending responses and close
  StatsRequest = 7,  ///< client -> server: scrape the metrics snapshot
  StatsReply = 8,    ///< server -> client: rendered snapshot text
};

/// Compile-checked message-type names (no default + -Werror=switch: an
/// unnamed new enumerator fails the build, not the log line).
constexpr const char* message_type_name(MessageType type) noexcept {
  switch (type) {
    case MessageType::Hello: return "hello";
    case MessageType::HelloAck: return "hello-ack";
    case MessageType::Request: return "request";
    case MessageType::Response: return "response";
    case MessageType::Error: return "error";
    case MessageType::Shutdown: return "shutdown";
    case MessageType::StatsRequest: return "stats-request";
    case MessageType::StatsReply: return "stats-reply";
  }
  return "unknown";  // out-of-range cast, not a missing enumerator
}

/// Rendering a StatsRequest asks for; the reply carries the same byte so
/// a pipelined scraper can match formats without tracking order.
enum class StatsFormat : std::uint8_t {
  Json = 1,        ///< flat JSON snapshot (counters/gauges/histograms)
  Prometheus = 2,  ///< Prometheus text exposition
  Text = 3,        ///< human-readable aligned table
  Traces = 4,      ///< slow-trace ring as a JSON array
  Journal = 5,     ///< structured event journal as a JSON array
  Profile = 6,     ///< work-attribution profile as a JSON object
};

constexpr const char* stats_format_name(StatsFormat format) noexcept {
  switch (format) {
    case StatsFormat::Json: return "json";
    case StatsFormat::Prometheus: return "prometheus";
    case StatsFormat::Text: return "text";
    case StatsFormat::Traces: return "traces";
    case StatsFormat::Journal: return "journal";
    case StatsFormat::Profile: return "profile";
  }
  return "unknown";  // out-of-range cast, not a missing enumerator
}

/// Why a frame was refused. None means the frame decoded cleanly.
enum class WireFault : std::uint8_t {
  None = 0,
  Truncated,   ///< body shorter than its fields declare
  Oversized,   ///< frame or field length exceeds the configured limit
  BadMagic,    ///< handshake magic mismatch (not an lptspd peer)
  BadVersion,  ///< protocol version not supported
  BadType,     ///< unknown message type byte
  Malformed,   ///< field-level validation failed (see detail)
};

constexpr const char* wire_fault_name(WireFault fault) noexcept {
  switch (fault) {
    case WireFault::None: return "none";
    case WireFault::Truncated: return "truncated";
    case WireFault::Oversized: return "oversized";
    case WireFault::BadMagic: return "bad-magic";
    case WireFault::BadVersion: return "bad-version";
    case WireFault::BadType: return "bad-type";
    case WireFault::Malformed: return "malformed";
  }
  return "unknown";  // out-of-range cast, not a missing enumerator
}

/// Decode-side resource limits, all enforced before allocation.
struct WireLimits {
  std::size_t max_frame_bytes = std::size_t{16} << 20;  ///< payload cap
  int max_vertices = 1 << 20;                           ///< graph n cap
  int max_pvec_entries = 64;                            ///< p-vector k cap
};

/// One decoded message; `type` selects which fields are meaningful.
struct WireMessage {
  MessageType type = MessageType::Hello;
  SolveRequest request;          ///< Request
  SolveResponse response;        ///< Response
  std::uint64_t error_id = 0;    ///< Error: offending request id (0 = none)
  WireFault error_fault = WireFault::None;  ///< Error: fault being reported
  std::string error_message;     ///< Error: human-readable detail
  StatsFormat stats_format = StatsFormat::Json;  ///< StatsRequest / StatsReply
  /// StatsRequest: only events with seq > stats_since are wanted (Journal
  /// format; 0 = everything). Carried as an optional trailing u64.
  std::uint64_t stats_since = 0;
  std::string stats_payload;     ///< StatsReply: rendered snapshot
};

/// Outcome of decoding one payload: either a message or a typed fault.
struct DecodeResult {
  WireFault fault = WireFault::None;
  std::string detail;  ///< diagnostic when fault != None
  WireMessage message;

  [[nodiscard]] bool ok() const noexcept { return fault == WireFault::None; }
};

// Encoders append one complete frame (length prefix included) to `out`.
// Request/Response bodies are bit-exact round-trips: decode(encode(x))
// reproduces every field the wire carries (the fuzz test asserts this).
void encode_hello(std::vector<std::uint8_t>& out);
void encode_hello_ack(std::vector<std::uint8_t>& out);
/// The trace context (flag bits + trailing u64 id) is emitted only when
/// the request carries a nonzero trace id.
void encode_request(std::vector<std::uint8_t>& out, const SolveRequest& request);
/// Same frame, but with the trace context supplied out of band instead of
/// read from the request. The traced client path stamps a generated id on
/// every request; taking the override here means it never has to copy the
/// request (and its graph) just to set two fields.
void encode_request_traced(std::vector<std::uint8_t>& out, const SolveRequest& request,
                           std::uint64_t trace_id, bool trace_sampled);
/// The retry-after hint is emitted only when nonzero, and the
/// server-timing echo only when measured.
void encode_response(std::vector<std::uint8_t>& out, const SolveResponse& response);
void encode_error(std::vector<std::uint8_t>& out, std::uint64_t id, WireFault fault,
                  const std::string& message);
void encode_shutdown(std::vector<std::uint8_t>& out);
/// `since` (nonzero only for Journal scrapes) is appended as a trailing
/// u64 when set; without it the frame is the plain one-byte body.
void encode_stats_request(std::vector<std::uint8_t>& out, StatsFormat format,
                          std::uint64_t since = 0);
void encode_stats_reply(std::vector<std::uint8_t>& out, StatsFormat format,
                        const std::string& payload);

/// Decode one payload (the bytes after the length prefix). Never throws.
[[nodiscard]] DecodeResult decode_payload(const std::uint8_t* data, std::size_t size,
                                          const WireLimits& limits = {});

/// Incremental frame extraction over a byte stream: feed() whatever the
/// socket produced, then drain next() until it returns false. The first
/// framing or decode fault poisons the stream — every later next() reports
/// the same fault — because after a bad frame the length prefixes can no
/// longer be trusted; the connection must be closed.
class FrameReader {
 public:
  FrameReader() = default;
  explicit FrameReader(const WireLimits& limits) : limits_(limits) {}

  void feed(const std::uint8_t* data, std::size_t size);

  /// True when a frame (or the poisoning fault) was produced; false when
  /// more bytes are needed.
  [[nodiscard]] bool next(DecodeResult& result);

  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }
  [[nodiscard]] WireFault fault() const noexcept { return fault_; }
  [[nodiscard]] const std::string& fault_detail() const noexcept { return fault_detail_; }

  /// Bytes buffered but not yet decoded (monitoring / backpressure).
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  WireLimits limits_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  bool poisoned_ = false;
  WireFault fault_ = WireFault::None;
  std::string fault_detail_;
};

}  // namespace lptsp
