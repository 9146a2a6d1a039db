#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "net/wire.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace lptsp {
namespace {

// Fuzz-style coverage for the lptspd wire format: random messages must
// round-trip bit-exactly, and no truncation or byte corruption may ever
// crash, hang, or throw — only produce typed WireFaults. The Debug CI leg
// runs this with asserts live, which is the cheap stand-in for a real
// fuzzer in this toolchain.

SolveRequest random_request(Rng& rng, std::uint64_t id) {
  SolveRequest request;
  const int n = rng.uniform_int(0, 24);
  request.graph = n >= 2 ? erdos_renyi(n, rng.uniform01(), rng) : Graph(n);
  std::vector<int> entries(static_cast<std::size_t>(rng.uniform_int(1, 5)));
  for (int& entry : entries) entry = rng.uniform_int(0, 9);
  request.p = PVec(std::move(entries));
  request.deadline = std::chrono::milliseconds{rng.uniform_int(0, 100000)};
  request.priority = rng.uniform_int(-1000, 1000);
  if (rng.bernoulli(0.5)) {
    request.engine =
        static_cast<Engine>(rng.uniform_int(0, static_cast<int>(Engine::BranchBound)));
  }
  // Trace context on roughly half the requests (0 = absent on the wire,
  // so both encodings stay covered).
  if (rng.bernoulli(0.5)) {
    request.trace_id = rng.next() | 1;  // nonzero
    request.trace_sampled = rng.bernoulli(0.5);
  }
  request.id = id;
  return request;
}

SolveResponse random_response(Rng& rng, std::uint64_t id) {
  SolveResponse response;
  response.id = id;
  response.status = static_cast<SolveStatus>(
      rng.uniform_int(0, static_cast<int>(SolveStatus::TransportDisconnected)));
  response.source =
      static_cast<ResponseSource>(rng.uniform_int(0, static_cast<int>(ResponseSource::Coalesced)));
  response.engine =
      static_cast<Engine>(rng.uniform_int(0, static_cast<int>(Engine::BranchBound)));
  response.optimal = rng.bernoulli(0.5);
  response.reduction_cached = rng.bernoulli(0.5);
  response.span = rng.uniform_int(-5, 1000000);
  response.seconds = rng.uniform01() * 12.0;
  if (rng.bernoulli(0.5)) {
    response.message = std::string("detail with \0 byte and utf8 \xc3\xa9", 31);
    response.message.push_back(static_cast<char>(rng.uniform_int(0, 255)));
  }
  const int labels = rng.uniform_int(0, 40);
  for (int i = 0; i < labels; ++i) {
    response.labeling.labels.push_back(rng.uniform_int(0, 1000000));
  }
  // Retry-after hint on roughly half the responses (0 = absent on the
  // wire, so both encodings stay covered).
  if (rng.bernoulli(0.5)) {
    response.retry_after_ms = static_cast<std::uint32_t>(rng.uniform_int(1, 60000));
  }
  // The server-timing echo, also ~50/50.
  if (rng.bernoulli(0.5)) {
    response.server_queue_ns = rng.next() >> 8;
    response.server_service_ns = (rng.next() >> 8) | 1;  // at least one nonzero
  }
  return response;
}

/// Decode exactly one frame from a byte buffer.
DecodeResult decode_one(const std::vector<std::uint8_t>& bytes, const WireLimits& limits = {}) {
  FrameReader reader(limits);
  reader.feed(bytes.data(), bytes.size());
  DecodeResult result;
  EXPECT_TRUE(reader.next(result));
  return result;
}

TEST(WireFormat, HandshakeAndShutdownRoundTrip) {
  for (const bool ack : {false, true}) {
    std::vector<std::uint8_t> bytes;
    if (ack) {
      encode_hello_ack(bytes);
    } else {
      encode_hello(bytes);
    }
    const DecodeResult result = decode_one(bytes);
    ASSERT_TRUE(result.ok()) << result.detail;
    EXPECT_EQ(result.message.type, ack ? MessageType::HelloAck : MessageType::Hello);
    // len(4) type(1) magic(4), then the u16 version.
    EXPECT_EQ(bytes[9] | (bytes[10] << 8), kWireVersion);
  }
  std::vector<std::uint8_t> bytes;
  encode_shutdown(bytes);
  const DecodeResult result = decode_one(bytes);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.message.type, MessageType::Shutdown);
}

TEST(WireFormat, RandomRequestsRoundTripExactly) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const SolveRequest request = random_request(rng, static_cast<std::uint64_t>(trial) << 32);
    std::vector<std::uint8_t> bytes;
    encode_request(bytes, request);
    const DecodeResult result = decode_one(bytes);
    ASSERT_TRUE(result.ok()) << result.detail;
    ASSERT_EQ(result.message.type, MessageType::Request);
    const SolveRequest& decoded = result.message.request;
    EXPECT_EQ(decoded.id, request.id);
    EXPECT_EQ(decoded.graph, request.graph);
    EXPECT_EQ(decoded.p, request.p);
    EXPECT_EQ(decoded.deadline, request.deadline);
    EXPECT_EQ(decoded.priority, request.priority);
    EXPECT_EQ(decoded.engine, request.engine);
    EXPECT_EQ(decoded.trace_id, request.trace_id);
    EXPECT_EQ(decoded.trace_sampled, request.trace_sampled);
  }
}

TEST(WireFormat, RandomResponsesRoundTripExactly) {
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const SolveResponse response = random_response(rng, static_cast<std::uint64_t>(trial));
    std::vector<std::uint8_t> bytes;
    encode_response(bytes, response);
    const DecodeResult result = decode_one(bytes);
    ASSERT_TRUE(result.ok()) << result.detail;
    ASSERT_EQ(result.message.type, MessageType::Response);
    const SolveResponse& decoded = result.message.response;
    EXPECT_EQ(decoded.id, response.id);
    EXPECT_EQ(decoded.status, response.status);
    EXPECT_EQ(decoded.source, response.source);
    EXPECT_EQ(decoded.engine, response.engine);
    EXPECT_EQ(decoded.optimal, response.optimal);
    EXPECT_EQ(decoded.reduction_cached, response.reduction_cached);
    EXPECT_EQ(decoded.span, response.span);
    EXPECT_EQ(decoded.seconds, response.seconds);  // bit-exact via bit_cast
    EXPECT_EQ(decoded.message, response.message);
    EXPECT_EQ(decoded.labeling.labels, response.labeling.labels);
    EXPECT_EQ(decoded.retry_after_ms, response.retry_after_ms);
    EXPECT_EQ(decoded.server_queue_ns, response.server_queue_ns);
    EXPECT_EQ(decoded.server_service_ns, response.server_service_ns);
  }
}

/// Golden bytes: every optional field of the one wire version, pinned
/// byte for byte so no refactor of the encoders can change a frame.
TEST(WireFormat, FramesAreByteExact) {
  const auto expect_bytes = [](const std::vector<std::uint8_t>& got,
                               const std::vector<std::uint8_t>& want, const char* frame) {
    EXPECT_EQ(got, want) << frame;
  };
  std::vector<std::uint8_t> hello;
  encode_hello(hello);
  expect_bytes(hello, {0x07, 0x00, 0x00, 0x00, 0x01, 0x4c, 0x50, 0x54, 0x53, 0x04, 0x00}, "hello");

  SolveRequest request;
  request.graph = path_graph(3);
  request.p = PVec::L21();
  request.id = 0x0102030405060708ULL;
  request.deadline = std::chrono::milliseconds{250};
  request.priority = -2;
  request.engine = Engine::HeldKarp;
  // len, type, id, deadline, priority, flags, engine, k, p-vector, graph.
  const std::vector<std::uint8_t> request_body = {
      0x03, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0xfa, 0x00, 0x00, 0x00,
      0xfe, 0xff, 0xff, 0xff, 0x01, 0x01, 0x02, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00,
      0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  std::vector<std::uint8_t> untraced;
  encode_request(untraced, request);
  std::vector<std::uint8_t> want = {0x34, 0x00, 0x00, 0x00};
  want.insert(want.end(), request_body.begin(), request_body.end());
  expect_bytes(untraced, want, "untraced request");

  request.trace_id = 0xfeedfacecafef00dULL;
  request.trace_sampled = true;
  std::vector<std::uint8_t> traced;
  encode_request(traced, request);
  want = {0x3c, 0x00, 0x00, 0x00};
  want.insert(want.end(), request_body.begin(), request_body.end());
  want[4 + 17] = 0x07;  // flags: pinned | trace context | sampled
  want.insert(want.end(), {0x0d, 0xf0, 0xfe, 0xca, 0xce, 0xfa, 0xed, 0xfe});
  expect_bytes(traced, want, "traced request");
  const DecodeResult traced_decoded = decode_one(traced);
  ASSERT_TRUE(traced_decoded.ok()) << traced_decoded.detail;
  EXPECT_EQ(traced_decoded.message.request.trace_id, request.trace_id);
  EXPECT_TRUE(traced_decoded.message.request.trace_sampled);
  EXPECT_EQ(traced_decoded.message.request.graph, request.graph);

  // The out-of-band overload stamps the same layout as a stamped request.
  request.trace_id = 0;
  request.trace_sampled = false;
  std::vector<std::uint8_t> overridden;
  encode_request_traced(overridden, request, 0xfeedfacecafef00dULL, true);
  EXPECT_EQ(overridden, traced);

  SolveResponse response;
  response.id = 9;
  response.status = SolveStatus::RejectedOverload;
  response.source = ResponseSource::Solved;
  response.engine = Engine::ChainedLK;
  response.optimal = true;
  response.reduction_cached = true;
  response.span = 4;
  response.seconds = 0.5;
  response.message = "busy";
  response.labeling.labels = {0, 4, 2};
  response.retry_after_ms = 250;
  response.server_queue_ns = 1200;
  response.server_service_ns = 84000;
  std::vector<std::uint8_t> response_bytes;
  encode_response(response_bytes, response);
  expect_bytes(response_bytes,
               {0x55, 0x00, 0x00, 0x00, 0x04, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x06, 0x00, 0x08, 0x0f, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x04, 0x00, 0x00, 0x00, 0x62, 0x75,
                0x73, 0x79, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x00, 0xfa, 0x00, 0x00, 0x00, 0xb0, 0x04, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x20, 0x48, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00},
               "response with retry-after and server timing");
  const DecodeResult response_decoded = decode_one(response_bytes);
  ASSERT_TRUE(response_decoded.ok()) << response_decoded.detail;
  EXPECT_EQ(response_decoded.message.response.retry_after_ms, 250u);
  EXPECT_EQ(response_decoded.message.response.server_queue_ns, 1200u);
  EXPECT_EQ(response_decoded.message.response.server_service_ns, 84000u);

  std::vector<std::uint8_t> stats;
  encode_stats_request(stats, StatsFormat::Journal, 0xfeedfacecafe1234ULL);
  expect_bytes(stats, {0x0a, 0x00, 0x00, 0x00, 0x07, 0x05, 0x34, 0x12, 0xfe, 0xca, 0xce, 0xfa, 0xed,
                       0xfe},
               "stats request with since");
}

TEST(WireFormat, RequestFlagByteValidation) {
  SolveRequest request;
  request.graph = path_graph(3);
  request.p = PVec::L21();
  request.id = 5;
  std::vector<std::uint8_t> frame;
  encode_request(frame, request);
  // The flags byte sits right after: len(4) type(1) id(8) deadline(4)
  // priority(4).
  const std::size_t flags_at = 4 + 1 + 8 + 4 + 4;
  {
    std::vector<std::uint8_t> bad = frame;
    bad[flags_at] = 0x08;  // first undefined bit
    const DecodeResult result = decode_payload(bad.data() + 4, bad.size() - 4);
    EXPECT_EQ(result.fault, WireFault::Malformed);
    EXPECT_NE(result.detail.find("unknown flag bits"), std::string::npos) << result.detail;
  }
  {
    // Sampled without trace context is self-inconsistent: there is no id
    // for the sample bit to apply to.
    std::vector<std::uint8_t> bad = frame;
    bad[flags_at] = 0x04;
    const DecodeResult result = decode_payload(bad.data() + 4, bad.size() - 4);
    EXPECT_EQ(result.fault, WireFault::Malformed);
    EXPECT_NE(result.detail.find("sampled"), std::string::npos) << result.detail;
  }
  {
    // Trace-context bit without the trailing u64 is a truncation.
    std::vector<std::uint8_t> bad = frame;
    bad[flags_at] = 0x02;
    const DecodeResult result = decode_payload(bad.data() + 4, bad.size() - 4);
    EXPECT_EQ(result.fault, WireFault::Truncated);
  }
}

TEST(WireFormat, ErrorFramesRoundTrip) {
  std::vector<std::uint8_t> bytes;
  encode_error(bytes, 77, WireFault::Malformed, "bad p-vector");
  const DecodeResult result = decode_one(bytes);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.message.type, MessageType::Error);
  EXPECT_EQ(result.message.error_id, 77u);
  EXPECT_EQ(result.message.error_fault, WireFault::Malformed);
  EXPECT_EQ(result.message.error_message, "bad p-vector");
}

TEST(WireFormat, FrameReaderReassemblesArbitraryChunking) {
  Rng rng(17);
  std::vector<std::uint8_t> stream;
  encode_hello(stream);
  std::vector<SolveRequest> requests;
  for (int i = 0; i < 20; ++i) {
    requests.push_back(random_request(rng, static_cast<std::uint64_t>(i)));
    encode_request(stream, requests.back());
  }
  encode_shutdown(stream);

  FrameReader reader;
  std::size_t fed = 0;
  int frames = 0;
  int request_frames = 0;
  while (true) {
    DecodeResult result;
    while (reader.next(result)) {
      ASSERT_TRUE(result.ok()) << result.detail;
      ++frames;
      if (result.message.type == MessageType::Request) {
        EXPECT_EQ(result.message.request.graph,
                  requests[static_cast<std::size_t>(request_frames)].graph);
        ++request_frames;
      }
    }
    if (fed >= stream.size()) break;
    const std::size_t chunk = std::min<std::size_t>(
        static_cast<std::size_t>(rng.uniform_int(1, 37)), stream.size() - fed);
    reader.feed(stream.data() + fed, chunk);
    fed += chunk;
  }
  EXPECT_EQ(frames, 22);
  EXPECT_EQ(request_frames, 20);
}

TEST(WireFormat, TruncatedBodiesAreTypedFaultsNotCrashes) {
  Rng rng(23);
  const SolveRequest request = random_request(rng, 99);
  std::vector<std::uint8_t> frame;
  encode_request(frame, request);
  // Shrink the declared payload length to every possible smaller value:
  // the decoder must answer each with a typed fault (or, for a prefix that
  // happens to parse, a clean reject of trailing garbage) — never UB.
  const std::uint32_t full = static_cast<std::uint32_t>(frame.size() - 4);
  for (std::uint32_t declared = 1; declared < full; ++declared) {
    const DecodeResult result = decode_payload(frame.data() + 4, declared);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.fault, WireFault::None);
  }
}

TEST(WireFormat, SingleByteCorruptionNeverCrashes) {
  Rng rng(29);
  const SolveRequest request = random_request(rng, 7);
  std::vector<std::uint8_t> frame;
  encode_request(frame, request);
  // Flip bits byte by byte (skipping the frame length prefix, which the
  // oversized/short-read paths cover): the decoder must always return —
  // ok or typed fault — without crashing; run under Debug asserts in CI.
  for (std::size_t position = 4; position < frame.size(); ++position) {
    for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xff}}) {
      std::vector<std::uint8_t> corrupted = frame;
      corrupted[position] ^= flip;
      const DecodeResult result =
          decode_payload(corrupted.data() + 4, corrupted.size() - 4);
      // A flipped id/priority byte still decodes; a flipped structural
      // byte must produce a typed fault. Either way: return, don't crash.
      if (!result.ok()) {
        EXPECT_NE(result.fault, WireFault::None);
      }
    }
  }
}

TEST(WireFormat, RandomGarbageStreamsOnlyProduceTypedFaults) {
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> garbage(static_cast<std::size_t>(rng.uniform_int(0, 512)));
    for (auto& byte : garbage) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    FrameReader reader;
    reader.feed(garbage.data(), garbage.size());
    DecodeResult result;
    int produced = 0;
    while (reader.next(result)) {
      ++produced;
      ASSERT_LE(produced, 200);  // no infinite frame loops on garbage
      if (!result.ok()) {
        EXPECT_TRUE(reader.poisoned());
        break;
      }
    }
  }
}

TEST(WireFormat, OversizedAndEmptyFramesPoisonTheStream) {
  {
    WireLimits limits;
    limits.max_frame_bytes = 64;
    FrameReader reader(limits);
    const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0x7f};
    reader.feed(huge, sizeof(huge));
    DecodeResult result;
    ASSERT_TRUE(reader.next(result));
    EXPECT_EQ(result.fault, WireFault::Oversized);
    EXPECT_TRUE(reader.poisoned());
    // A poisoned reader reports once, then refuses (caller must close).
    EXPECT_FALSE(reader.next(result));
  }
  {
    FrameReader reader;
    const std::uint8_t empty[4] = {0, 0, 0, 0};
    reader.feed(empty, sizeof(empty));
    DecodeResult result;
    ASSERT_TRUE(reader.next(result));
    EXPECT_EQ(result.fault, WireFault::Malformed);
  }
}

TEST(WireFormat, HandshakeFaultsAreTyped) {
  std::vector<std::uint8_t> hello;
  encode_hello(hello);
  {
    std::vector<std::uint8_t> wrong_magic = hello;
    wrong_magic[5] ^= 0xff;  // first magic byte (after len + type)
    EXPECT_EQ(decode_one(wrong_magic).fault, WireFault::BadMagic);
  }
  {
    std::vector<std::uint8_t> wrong_version = hello;
    wrong_version[9] ^= 0xff;  // version low byte
    EXPECT_EQ(decode_one(wrong_version).fault, WireFault::BadVersion);
  }
  {
    std::vector<std::uint8_t> bad_type = hello;
    bad_type[4] = 0x7f;  // unknown message type
    EXPECT_EQ(decode_one(bad_type).fault, WireFault::BadType);
  }
}

TEST(WireFormat, RequestLimitsAreEnforcedBeforeAllocation) {
  // A request whose graph header declares more vertices than the limit
  // must be refused by the header check, not by an allocation attempt.
  SolveRequest request;
  request.graph = path_graph(8);
  request.p = PVec::L21();
  std::vector<std::uint8_t> frame;
  encode_request(frame, request);
  WireLimits limits;
  limits.max_vertices = 4;
  const DecodeResult result = decode_payload(frame.data() + 4, frame.size() - 4, limits);
  EXPECT_EQ(result.fault, WireFault::Malformed);
  EXPECT_NE(result.detail.find("exceeds limit"), std::string::npos);

  WireLimits tight_pvec;
  tight_pvec.max_pvec_entries = 1;
  const DecodeResult pvec_result =
      decode_payload(frame.data() + 4, frame.size() - 4, tight_pvec);
  EXPECT_EQ(pvec_result.fault, WireFault::Malformed);
}

TEST(WireFormat, EncodeRefusesPVectorsTheFormatCannotCarry) {
  // k travels as one byte; the encoder must reject oversized vectors
  // locally instead of emitting a self-inconsistent frame that would
  // poison the pipelined connection server-side.
  SolveRequest request;
  request.graph = path_graph(3);
  request.p = PVec(std::vector<int>(256, 1));
  std::vector<std::uint8_t> out;
  EXPECT_THROW(encode_request(out, request), precondition_error);
}

TEST(WireFormat, EveryMessageTypeAndFaultHasAName) {
  for (int raw = static_cast<int>(MessageType::Hello);
       raw <= static_cast<int>(MessageType::StatsReply); ++raw) {
    EXPECT_STRNE(message_type_name(static_cast<MessageType>(raw)), "unknown");
  }
  for (int raw = 0; raw <= static_cast<int>(WireFault::Malformed); ++raw) {
    EXPECT_STRNE(wire_fault_name(static_cast<WireFault>(raw)), "unknown");
  }
  static_assert(message_type_name(MessageType::Request)[0] == 'r');
  static_assert(wire_fault_name(WireFault::Oversized)[0] == 'o');
}

// ---------------------------------------------------- version + stats frames

TEST(WireFormat, HandshakeAcceptsOnlyTheWireVersion) {
  std::vector<std::uint8_t> hello;
  encode_hello(hello);
  ASSERT_TRUE(decode_one(hello).ok());
  // Every other version, older ones included, is a typed fault.
  for (const std::uint16_t version : {std::uint16_t{0}, std::uint16_t{1}, std::uint16_t{2},
                                      std::uint16_t{3},
                                      static_cast<std::uint16_t>(kWireVersion + 1)}) {
    std::vector<std::uint8_t> bytes = hello;
    bytes[9] = static_cast<std::uint8_t>(version & 0xff);
    bytes[10] = static_cast<std::uint8_t>(version >> 8);
    EXPECT_EQ(decode_one(bytes).fault, WireFault::BadVersion) << "version " << version;
  }
}

TEST(WireFormat, StatsFramesRoundTripEveryFormat) {
  for (const StatsFormat format : {StatsFormat::Json, StatsFormat::Prometheus, StatsFormat::Text,
                                   StatsFormat::Traces, StatsFormat::Journal,
                                   StatsFormat::Profile}) {
    std::vector<std::uint8_t> request_bytes;
    encode_stats_request(request_bytes, format);
    const DecodeResult request = decode_one(request_bytes);
    ASSERT_TRUE(request.ok()) << request.detail;
    ASSERT_EQ(request.message.type, MessageType::StatsRequest);
    EXPECT_EQ(request.message.stats_format, format);
    EXPECT_EQ(request.message.stats_since, 0u);

    const std::string payload =
        std::string("{\"counters\":{}} with \0 byte and utf8 \xc3\xa9", 40);
    std::vector<std::uint8_t> reply_bytes;
    encode_stats_reply(reply_bytes, format, payload);
    const DecodeResult reply = decode_one(reply_bytes);
    ASSERT_TRUE(reply.ok()) << reply.detail;
    ASSERT_EQ(reply.message.type, MessageType::StatsReply);
    EXPECT_EQ(reply.message.stats_format, format);
    EXPECT_EQ(reply.message.stats_payload, payload);
  }
}

TEST(WireFormat, StatsRequestSinceCursorRoundTrips) {
  // A nonzero cursor rides as a trailing u64; zero keeps the plain
  // one-byte request.
  std::vector<std::uint8_t> legacy;
  encode_stats_request(legacy, StatsFormat::Journal);
  std::vector<std::uint8_t> with_cursor;
  encode_stats_request(with_cursor, StatsFormat::Journal, 0xfeedfacecafe1234ULL);
  EXPECT_EQ(with_cursor.size(), legacy.size() + 8);

  const DecodeResult decoded = decode_one(with_cursor);
  ASSERT_TRUE(decoded.ok()) << decoded.detail;
  EXPECT_EQ(decoded.message.stats_format, StatsFormat::Journal);
  EXPECT_EQ(decoded.message.stats_since, 0xfeedfacecafe1234ULL);

  // A partial cursor (any trailing length other than 0 or 8) is malformed.
  std::vector<std::uint8_t> truncated = with_cursor;
  truncated.resize(truncated.size() - 3);
  // Fix up the (little-endian) frame length prefix for the shorter payload.
  const std::uint32_t new_len = static_cast<std::uint32_t>(truncated.size() - 4);
  truncated[0] = static_cast<std::uint8_t>(new_len & 0xff);
  truncated[1] = static_cast<std::uint8_t>((new_len >> 8) & 0xff);
  truncated[2] = static_cast<std::uint8_t>((new_len >> 16) & 0xff);
  truncated[3] = static_cast<std::uint8_t>((new_len >> 24) & 0xff);
  EXPECT_EQ(decode_one(truncated).fault, WireFault::Malformed);
}

TEST(WireFormat, StatsFramesRejectBadFormatBytes) {
  std::vector<std::uint8_t> request_bytes;
  encode_stats_request(request_bytes, StatsFormat::Json);
  // The format byte is the last payload byte of a StatsRequest.
  request_bytes.back() = 0;  // below the valid range
  EXPECT_EQ(decode_one(request_bytes).fault, WireFault::Malformed);
  request_bytes.back() = 99;  // above it
  EXPECT_EQ(decode_one(request_bytes).fault, WireFault::Malformed);
}

TEST(WireFormat, TruncatedStatsFramesAreTypedFaults) {
  std::vector<std::uint8_t> frame;
  encode_stats_reply(frame, StatsFormat::Json, "{\"counters\":{\"requests_total\":12}}");
  const std::uint32_t full = static_cast<std::uint32_t>(frame.size() - 4);
  for (std::uint32_t declared = 1; declared < full; ++declared) {
    const DecodeResult result = decode_payload(frame.data() + 4, declared);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.fault, WireFault::None);
  }
}

TEST(WireFormat, CorruptedStatsFramesNeverCrash) {
  std::vector<std::uint8_t> frame;
  encode_stats_reply(frame, StatsFormat::Prometheus, "lptsp_requests_total 12\n");
  for (std::size_t position = 4; position < frame.size(); ++position) {
    for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xff}}) {
      std::vector<std::uint8_t> corrupted = frame;
      corrupted[position] ^= flip;
      const DecodeResult result = decode_payload(corrupted.data() + 4, corrupted.size() - 4);
      if (!result.ok()) {
        EXPECT_NE(result.fault, WireFault::None);
      }
    }
  }
}

}  // namespace
}  // namespace lptsp
