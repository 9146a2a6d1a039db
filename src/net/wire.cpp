#include "net/wire.hpp"

#include <bit>
#include <cstring>

#include "graph/io.hpp"
#include "util/check.hpp"
#include "util/endian.hpp"

namespace lptsp {

namespace {

// ---------------------------------------------------------------------------
// Little-endian primitives. The writers append to a byte vector; the
// reader is a bounds-checked cursor that flips `ok` instead of throwing,
// so one `if (!cursor.ok)` per field is the whole error-handling story.
// ---------------------------------------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t value) { out.push_back(value); }
using endian::put_u16;
using endian::put_u32;
using endian::put_u64;

struct Cursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t offset = 0;
  bool ok = true;

  [[nodiscard]] std::size_t remaining() const { return size - offset; }

  std::uint8_t u8() {
    if (!ok || remaining() < 1) {
      ok = false;
      return 0;
    }
    return data[offset++];
  }

  std::uint16_t u16() {
    if (!ok || remaining() < 2) {
      ok = false;
      return 0;
    }
    const std::uint16_t value = endian::get_u16(data + offset);
    offset += 2;
    return value;
  }

  std::uint32_t u32() {
    if (!ok || remaining() < 4) {
      ok = false;
      return 0;
    }
    const std::uint32_t value = endian::get_u32(data + offset);
    offset += 4;
    return value;
  }

  std::uint64_t u64() {
    if (!ok || remaining() < 8) {
      ok = false;
      return 0;
    }
    const std::uint64_t value = endian::get_u64(data + offset);
    offset += 8;
    return value;
  }

  /// Length-prefixed string; the length check against remaining() bounds
  /// the allocation by the actual frame size.
  std::string str() {
    const std::uint32_t length = u32();
    if (!ok || remaining() < length) {
      ok = false;
      return {};
    }
    std::string value(reinterpret_cast<const char*>(data + offset), length);
    offset += length;
    return value;
  }
};

/// Frame skeleton: reserve the 4-byte length slot, write the type byte,
/// and patch the payload length in close(). Encoders cannot produce
/// malformed frames by construction.
std::size_t open_frame(std::vector<std::uint8_t>& out, MessageType type) {
  const std::size_t length_slot = out.size();
  put_u32(out, 0);
  put_u8(out, static_cast<std::uint8_t>(type));
  return length_slot;
}

void close_frame(std::vector<std::uint8_t>& out, std::size_t length_slot) {
  const auto payload = static_cast<std::uint32_t>(out.size() - length_slot - 4);
  out[length_slot] = static_cast<std::uint8_t>(payload & 0xff);
  out[length_slot + 1] = static_cast<std::uint8_t>((payload >> 8) & 0xff);
  out[length_slot + 2] = static_cast<std::uint8_t>((payload >> 16) & 0xff);
  out[length_slot + 3] = static_cast<std::uint8_t>((payload >> 24) & 0xff);
}

constexpr std::uint8_t kResponseOptimalBit = 1;
constexpr std::uint8_t kResponseReductionCachedBit = 2;
/// A trailing u32 retry-after hint (milliseconds) follows the labels.
constexpr std::uint8_t kResponseRetryAfterBit = 4;
/// Two trailing u64s (server queue-wait ns, service ns) follow the
/// retry-after hint (when present).
constexpr std::uint8_t kResponseServerTimingBit = 8;

/// Request flag byte, read as a bit set; unknown bits are malformed.
constexpr std::uint8_t kRequestPinnedBit = 1;
/// A trailing u64 trace id follows the graph bytes.
constexpr std::uint8_t kRequestTraceContextBit = 2;
constexpr std::uint8_t kRequestTraceSampledBit = 4;

DecodeResult fail(WireFault fault, std::string detail) {
  DecodeResult result;
  result.fault = fault;
  result.detail = std::move(detail);
  return result;
}

DecodeResult decode_handshake(Cursor& cursor, MessageType type) {
  DecodeResult result;
  result.message.type = type;
  const std::uint32_t magic = cursor.u32();
  const std::uint16_t version = cursor.u16();
  if (!cursor.ok) return fail(WireFault::Truncated, "handshake body too short");
  if (magic != kWireMagic) return fail(WireFault::BadMagic, "handshake magic mismatch");
  if (version != kWireVersion) {
    return fail(WireFault::BadVersion,
                "protocol version " + std::to_string(version) + " not supported");
  }
  if (cursor.remaining() != 0) {
    return fail(WireFault::Malformed, "handshake: trailing bytes");
  }
  return result;
}

DecodeResult decode_request(Cursor& cursor, const WireLimits& limits) {
  DecodeResult result;
  result.message.type = MessageType::Request;
  SolveRequest& request = result.message.request;
  request.id = cursor.u64();
  const std::uint32_t deadline_ms = cursor.u32();
  const auto priority = static_cast<std::int32_t>(cursor.u32());
  const std::uint8_t flags = cursor.u8();
  const std::uint8_t engine_byte = cursor.u8();
  const std::uint8_t k = cursor.u8();
  if (!cursor.ok) return fail(WireFault::Truncated, "request header too short");
  request.deadline = std::chrono::milliseconds{deadline_ms};
  request.priority = priority;
  if (flags > (kRequestPinnedBit | kRequestTraceContextBit | kRequestTraceSampledBit)) {
    return fail(WireFault::Malformed, "request: unknown flag bits");
  }
  if ((flags & kRequestTraceSampledBit) != 0 && (flags & kRequestTraceContextBit) == 0) {
    return fail(WireFault::Malformed, "request: sampled bit without trace context");
  }
  if ((flags & kRequestPinnedBit) != 0) {
    if (engine_byte > static_cast<std::uint8_t>(Engine::BranchBound)) {
      return fail(WireFault::Malformed,
                  "request: unknown engine " + std::to_string(engine_byte));
    }
    request.engine = static_cast<Engine>(engine_byte);
  }
  if (k < 1 || k > limits.max_pvec_entries) {
    return fail(WireFault::Malformed, "request: p-vector length " + std::to_string(k) +
                                          " outside [1, " +
                                          std::to_string(limits.max_pvec_entries) + "]");
  }
  std::vector<int> entries(static_cast<std::size_t>(k));
  for (auto& entry : entries) {
    entry = static_cast<std::int32_t>(cursor.u32());
    if (entry < 0) return fail(WireFault::Malformed, "request: negative p-vector entry");
  }
  if (!cursor.ok) return fail(WireFault::Truncated, "request: truncated p-vector");
  request.p = PVec(std::move(entries));

  std::string graph_error;
  if (!decode_graph_binary(cursor.data, cursor.size, cursor.offset, request.graph, graph_error,
                           limits.max_vertices)) {
    return fail(WireFault::Malformed, "request: " + graph_error);
  }
  if ((flags & kRequestTraceContextBit) != 0) {
    request.trace_id = cursor.u64();
    if (!cursor.ok) return fail(WireFault::Truncated, "request: truncated trace context");
    request.trace_sampled = (flags & kRequestTraceSampledBit) != 0;
  }
  if (cursor.remaining() != 0) {
    return fail(WireFault::Malformed, "request: trailing bytes after graph");
  }
  return result;
}

DecodeResult decode_response(Cursor& cursor) {
  DecodeResult result;
  result.message.type = MessageType::Response;
  SolveResponse& response = result.message.response;
  response.id = cursor.u64();
  const std::uint8_t status = cursor.u8();
  const std::uint8_t source = cursor.u8();
  const std::uint8_t engine_byte = cursor.u8();
  const std::uint8_t flags = cursor.u8();
  const auto span = static_cast<std::int64_t>(cursor.u64());
  const std::uint64_t seconds_bits = cursor.u64();
  if (!cursor.ok) return fail(WireFault::Truncated, "response header too short");
  if (status > static_cast<std::uint8_t>(SolveStatus::TransportDisconnected)) {
    return fail(WireFault::Malformed, "response: unknown status " + std::to_string(status));
  }
  if (source > static_cast<std::uint8_t>(ResponseSource::Coalesced)) {
    return fail(WireFault::Malformed, "response: unknown source " + std::to_string(source));
  }
  if (engine_byte > static_cast<std::uint8_t>(Engine::BranchBound)) {
    return fail(WireFault::Malformed, "response: unknown engine " + std::to_string(engine_byte));
  }
  if (flags > (kResponseOptimalBit | kResponseReductionCachedBit | kResponseRetryAfterBit |
               kResponseServerTimingBit)) {
    return fail(WireFault::Malformed, "response: unknown flag bits");
  }
  response.status = static_cast<SolveStatus>(status);
  response.source = static_cast<ResponseSource>(source);
  response.engine = static_cast<Engine>(engine_byte);
  response.optimal = (flags & kResponseOptimalBit) != 0;
  response.reduction_cached = (flags & kResponseReductionCachedBit) != 0;
  response.span = span;
  response.seconds = std::bit_cast<double>(seconds_bits);
  response.message = cursor.str();
  const std::uint32_t label_count = cursor.u32();
  if (!cursor.ok) return fail(WireFault::Truncated, "response: truncated message");
  // Each label is 8 bytes: check the declared count against the bytes
  // actually present BEFORE allocating, so a hostile count cannot force
  // an oversized allocation.
  if (cursor.remaining() / 8 < label_count) {
    return fail(WireFault::Truncated, "response: truncated label vector");
  }
  response.labeling.labels.resize(label_count);
  for (auto& label : response.labeling.labels) {
    label = static_cast<std::int64_t>(cursor.u64());
  }
  if ((flags & kResponseRetryAfterBit) != 0) {
    response.retry_after_ms = cursor.u32();
    if (!cursor.ok) return fail(WireFault::Truncated, "response: truncated retry-after hint");
  }
  if ((flags & kResponseServerTimingBit) != 0) {
    response.server_queue_ns = cursor.u64();
    response.server_service_ns = cursor.u64();
    if (!cursor.ok) return fail(WireFault::Truncated, "response: truncated server timing");
  }
  if (cursor.remaining() != 0) {
    return fail(WireFault::Malformed, "response: trailing bytes after labels");
  }
  return result;
}

DecodeResult decode_stats_request(Cursor& cursor) {
  DecodeResult result;
  result.message.type = MessageType::StatsRequest;
  const std::uint8_t format = cursor.u8();
  if (!cursor.ok) return fail(WireFault::Truncated, "stats request too short");
  if (format < static_cast<std::uint8_t>(StatsFormat::Json) ||
      format > static_cast<std::uint8_t>(StatsFormat::Profile)) {
    return fail(WireFault::Malformed,
                "stats request: unknown format " + std::to_string(format));
  }
  // Optional trailing u64: the incremental-scrape cursor (--since). Either
  // absent (the one-byte frame) or exactly eight bytes — anything
  // else is malformed, so framing bugs cannot masquerade as a cursor.
  if (cursor.remaining() == 8) {
    result.message.stats_since = cursor.u64();
  } else if (cursor.remaining() != 0) {
    return fail(WireFault::Malformed, "stats request: trailing bytes");
  }
  result.message.stats_format = static_cast<StatsFormat>(format);
  return result;
}

DecodeResult decode_stats_reply(Cursor& cursor) {
  DecodeResult result;
  result.message.type = MessageType::StatsReply;
  const std::uint8_t format = cursor.u8();
  if (!cursor.ok) return fail(WireFault::Truncated, "stats reply too short");
  if (format < static_cast<std::uint8_t>(StatsFormat::Json) ||
      format > static_cast<std::uint8_t>(StatsFormat::Profile)) {
    return fail(WireFault::Malformed, "stats reply: unknown format " + std::to_string(format));
  }
  result.message.stats_format = static_cast<StatsFormat>(format);
  result.message.stats_payload = cursor.str();
  if (!cursor.ok) return fail(WireFault::Truncated, "stats reply: truncated payload");
  if (cursor.remaining() != 0) {
    return fail(WireFault::Malformed, "stats reply: trailing bytes");
  }
  return result;
}

DecodeResult decode_error(Cursor& cursor) {
  DecodeResult result;
  result.message.type = MessageType::Error;
  result.message.error_id = cursor.u64();
  const std::uint8_t fault_byte = cursor.u8();
  if (!cursor.ok) return fail(WireFault::Truncated, "error frame too short");
  if (fault_byte > static_cast<std::uint8_t>(WireFault::Malformed)) {
    return fail(WireFault::Malformed, "error frame: unknown fault " + std::to_string(fault_byte));
  }
  result.message.error_fault = static_cast<WireFault>(fault_byte);
  result.message.error_message = cursor.str();
  if (!cursor.ok) return fail(WireFault::Truncated, "error frame: truncated message");
  if (cursor.remaining() != 0) {
    return fail(WireFault::Malformed, "error frame: trailing bytes");
  }
  return result;
}

void encode_handshake(std::vector<std::uint8_t>& out, MessageType type) {
  const std::size_t slot = open_frame(out, type);
  put_u32(out, kWireMagic);
  put_u16(out, kWireVersion);
  close_frame(out, slot);
}

}  // namespace

void encode_hello(std::vector<std::uint8_t>& out) { encode_handshake(out, MessageType::Hello); }

void encode_hello_ack(std::vector<std::uint8_t>& out) {
  encode_handshake(out, MessageType::HelloAck);
}

void encode_request(std::vector<std::uint8_t>& out, const SolveRequest& request) {
  encode_request_traced(out, request, request.trace_id, request.trace_sampled);
}

void encode_request_traced(std::vector<std::uint8_t>& out, const SolveRequest& request,
                           std::uint64_t trace_id, bool trace_sampled) {
  // The wire carries k as one byte; emitting a frame whose declared
  // length disagrees with its payload would poison the whole pipelined
  // connection server-side, so refuse locally with a clear error.
  LPTSP_REQUIRE(request.p.k() <= 255, "wire format carries at most 255 p-vector entries");
  const bool carry_trace = trace_id != 0;
  std::uint8_t flags = request.engine.has_value() ? kRequestPinnedBit : 0;
  if (carry_trace) {
    flags |= kRequestTraceContextBit;
    if (trace_sampled) flags |= kRequestTraceSampledBit;
  }
  const std::size_t slot = open_frame(out, MessageType::Request);
  put_u64(out, request.id);
  const auto deadline = request.deadline.count();
  put_u32(out, deadline > 0 ? static_cast<std::uint32_t>(
                                  std::min<std::int64_t>(deadline, 0xffffffffLL))
                            : 0);
  put_u32(out, static_cast<std::uint32_t>(request.priority));
  put_u8(out, flags);
  put_u8(out, request.engine.has_value() ? static_cast<std::uint8_t>(*request.engine) : 0);
  put_u8(out, static_cast<std::uint8_t>(request.p.k()));
  for (const int entry : request.p.entries()) put_u32(out, static_cast<std::uint32_t>(entry));
  append_graph_binary(out, request.graph);
  if (carry_trace) put_u64(out, trace_id);
  close_frame(out, slot);
}

void encode_response(std::vector<std::uint8_t>& out, const SolveResponse& response) {
  const bool carry_retry_after = response.retry_after_ms != 0;
  const bool carry_server_timing =
      response.server_queue_ns != 0 || response.server_service_ns != 0;
  const std::size_t slot = open_frame(out, MessageType::Response);
  put_u64(out, response.id);
  put_u8(out, static_cast<std::uint8_t>(response.status));
  put_u8(out, static_cast<std::uint8_t>(response.source));
  put_u8(out, static_cast<std::uint8_t>(response.engine));
  put_u8(out, static_cast<std::uint8_t>((response.optimal ? kResponseOptimalBit : 0) |
                                        (response.reduction_cached
                                             ? kResponseReductionCachedBit
                                             : 0) |
                                        (carry_retry_after ? kResponseRetryAfterBit : 0) |
                                        (carry_server_timing ? kResponseServerTimingBit
                                                             : 0)));
  put_u64(out, static_cast<std::uint64_t>(response.span));
  put_u64(out, std::bit_cast<std::uint64_t>(response.seconds));
  put_u32(out, static_cast<std::uint32_t>(response.message.size()));
  out.insert(out.end(), response.message.begin(), response.message.end());
  put_u32(out, static_cast<std::uint32_t>(response.labeling.labels.size()));
  for (const Weight label : response.labeling.labels) {
    put_u64(out, static_cast<std::uint64_t>(label));
  }
  if (carry_retry_after) put_u32(out, response.retry_after_ms);
  if (carry_server_timing) {
    put_u64(out, response.server_queue_ns);
    put_u64(out, response.server_service_ns);
  }
  close_frame(out, slot);
}

void encode_error(std::vector<std::uint8_t>& out, std::uint64_t id, WireFault fault,
                  const std::string& message) {
  const std::size_t slot = open_frame(out, MessageType::Error);
  put_u64(out, id);
  put_u8(out, static_cast<std::uint8_t>(fault));
  put_u32(out, static_cast<std::uint32_t>(message.size()));
  out.insert(out.end(), message.begin(), message.end());
  close_frame(out, slot);
}

void encode_shutdown(std::vector<std::uint8_t>& out) {
  const std::size_t slot = open_frame(out, MessageType::Shutdown);
  close_frame(out, slot);
}

void encode_stats_request(std::vector<std::uint8_t>& out, StatsFormat format,
                          std::uint64_t since) {
  const std::size_t slot = open_frame(out, MessageType::StatsRequest);
  put_u8(out, static_cast<std::uint8_t>(format));
  if (since != 0) put_u64(out, since);
  close_frame(out, slot);
}

void encode_stats_reply(std::vector<std::uint8_t>& out, StatsFormat format,
                        const std::string& payload) {
  const std::size_t slot = open_frame(out, MessageType::StatsReply);
  put_u8(out, static_cast<std::uint8_t>(format));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  close_frame(out, slot);
}

DecodeResult decode_payload(const std::uint8_t* data, std::size_t size,
                            const WireLimits& limits) {
  Cursor cursor{data, size};
  const std::uint8_t type_byte = cursor.u8();
  if (!cursor.ok) return fail(WireFault::Truncated, "empty payload");
  if (type_byte < static_cast<std::uint8_t>(MessageType::Hello) ||
      type_byte > static_cast<std::uint8_t>(MessageType::StatsReply)) {
    return fail(WireFault::BadType, "unknown message type " + std::to_string(type_byte));
  }
  const auto type = static_cast<MessageType>(type_byte);
  switch (type) {
    case MessageType::Hello:
    case MessageType::HelloAck:
      return decode_handshake(cursor, type);
    case MessageType::Request:
      return decode_request(cursor, limits);
    case MessageType::Response:
      return decode_response(cursor);
    case MessageType::Error:
      return decode_error(cursor);
    case MessageType::Shutdown: {
      if (cursor.remaining() != 0) {
        return fail(WireFault::Malformed, "shutdown frame: trailing bytes");
      }
      DecodeResult result;
      result.message.type = MessageType::Shutdown;
      return result;
    }
    case MessageType::StatsRequest:
      return decode_stats_request(cursor);
    case MessageType::StatsReply:
      return decode_stats_reply(cursor);
  }
  return fail(WireFault::BadType, "unreachable");
}

void FrameReader::feed(const std::uint8_t* data, std::size_t size) {
  if (poisoned_) return;  // the stream is already dead; do not buffer more
  buffer_.insert(buffer_.end(), data, data + size);
}

bool FrameReader::next(DecodeResult& result) {
  if (poisoned_) return false;  // caller should have closed after the fault
  // Compact once the consumed prefix dominates, keeping feed() amortized
  // O(1) per byte instead of O(stream length).
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 4) return false;
  const std::uint8_t* head = buffer_.data() + consumed_;
  const std::uint32_t payload_length = endian::get_u32(head);
  if (payload_length > limits_.max_frame_bytes) {
    result = fail(WireFault::Oversized,
                  "frame payload " + std::to_string(payload_length) + " exceeds limit " +
                      std::to_string(limits_.max_frame_bytes));
  } else if (payload_length == 0) {
    result = fail(WireFault::Malformed, "empty frame payload");
  } else if (available - 4 < payload_length) {
    return false;  // whole frame not buffered yet
  } else {
    result = decode_payload(head + 4, payload_length, limits_);
    consumed_ += 4 + payload_length;
  }
  if (!result.ok()) {
    poisoned_ = true;
    fault_ = result.fault;
    fault_detail_ = result.detail;
    buffer_.clear();
    consumed_ = 0;
  }
  return true;
}

}  // namespace lptsp
