#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/labeling.hpp"
#include "graph/generators.hpp"
#include "graph/operations.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace lptsp {
namespace {

// End-to-end coverage for the lptspd socket front-end: real TCP over
// loopback, one in-process server per fixture. The acceptance-critical
// properties — malformed frames and over-backpressure submissions produce
// typed responses, never a crash, hang, or unbounded buffering — are
// asserted here.

/// Raw blocking TCP socket for tests that must send bytes the
/// LabelingClient refuses to produce (malformed frames).
class RawSocket {
 public:
  explicit RawSocket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)), 0);
  }
  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t wrote = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
      ASSERT_GT(wrote, 0);
      sent += static_cast<std::size_t>(wrote);
    }
  }

  /// Half-close the write side (classic pipelined batch-then-drain).
  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  /// Read until EOF (the server closes after a protocol fault).
  std::vector<std::uint8_t> read_to_eof() {
    std::vector<std::uint8_t> bytes;
    std::uint8_t buffer[4096];
    while (true) {
      const ssize_t got = ::read(fd_, buffer, sizeof(buffer));
      if (got <= 0) break;
      bytes.insert(bytes.end(), buffer, buffer + got);
    }
    return bytes;
  }

 private:
  int fd_ = -1;
};

/// Holds the first engine race on its worker until release(): engine.stall
/// fires once with a stall far longer than any test, and disarming ends
/// it. Admission tests use it so nothing depends on how long a solve takes.
class HeldRace {
 public:
  HeldRace() { fault::arm(FaultSite::EngineStall, 1.0, 1, 1, 60'000); }
  ~HeldRace() { release(); }
  HeldRace(const HeldRace&) = delete;
  HeldRace& operator=(const HeldRace&) = delete;
  void release() { fault::disarm_all(); }
};

class NetServerTest : public ::testing::Test {
 protected:
  void start(LabelingServer::Options server_options = {},
             BatchSolver::Options solver_options = {}) {
    solver_ = std::make_unique<BatchSolver>(solver_options);
    server_ = std::make_unique<LabelingServer>(*solver_, server_options);
    server_->start();
  }

  SolveRequest request_for(const Graph& graph, std::uint64_t id,
                           const PVec& p = PVec::L21()) const {
    SolveRequest request;
    request.graph = graph;
    request.p = p;
    request.id = id;
    return request;
  }

  std::unique_ptr<BatchSolver> solver_;
  std::unique_ptr<LabelingServer> server_;
};

TEST_F(NetServerTest, SolvesOverLoopbackAndVerifies) {
  start();
  LabelingClient client;
  client.connect("127.0.0.1", server_->port());

  Rng rng(3);
  const Graph graph = random_with_diameter_at_most(14, 2, 0.3, rng);
  const SolveResponse response = client.solve(request_for(graph, 42));
  ASSERT_TRUE(response.ok()) << response.message;
  EXPECT_EQ(response.id, 42u);
  ASSERT_EQ(response.labeling.labels.size(), static_cast<std::size_t>(graph.n()));
  EXPECT_TRUE(is_valid_labeling(graph, PVec::L21(), response.labeling));
  EXPECT_EQ(response.labeling.span(), response.span);
  client.shutdown();
}

TEST_F(NetServerTest, PipelinedResponsesMatchRequestsOutOfOrder) {
  start();
  LabelingClient client;
  client.connect("127.0.0.1", server_->port());

  Rng rng(5);
  std::vector<Graph> graphs;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    graphs.push_back(random_with_diameter_at_most(10 + static_cast<int>(id), 2, 0.3, rng));
    client.submit(request_for(graphs.back(), id));
  }
  // Wait in reverse submission order: the client must match by id even
  // when the server completed in a different order.
  for (std::uint64_t id = 6; id >= 1; --id) {
    const SolveResponse response = client.wait(id);
    EXPECT_EQ(response.id, id);
    ASSERT_TRUE(response.ok()) << response.message;
    EXPECT_TRUE(is_valid_labeling(graphs[static_cast<std::size_t>(id - 1)], PVec::L21(),
                                  response.labeling));
  }
  client.shutdown();
}

TEST_F(NetServerTest, IsomorphicRepeatIsServedFromCacheOverTheWire) {
  start();
  LabelingClient client;
  client.connect("127.0.0.1", server_->port());

  Rng rng(7);
  const Graph graph = random_with_diameter_at_most(16, 2, 0.3, rng);
  const SolveResponse first = client.solve(request_for(graph, 1));
  ASSERT_TRUE(first.ok());
  const SolveResponse second =
      client.solve(request_for(relabel(graph, rng.permutation(graph.n())), 2));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.source, ResponseSource::ResultCache);
  EXPECT_EQ(second.span, first.span);
  EXPECT_EQ(solver_->engine_solves(), 1u);
  client.shutdown();
}

TEST_F(NetServerTest, InvalidRequestsGetTypedStatusesAndTheConnectionSurvives) {
  start();
  LabelingClient client;
  client.connect("127.0.0.1", server_->port());

  Graph disconnected(6);
  disconnected.add_edge(0, 1);
  const SolveResponse bad = client.solve(request_for(disconnected, 10));
  EXPECT_EQ(bad.status, SolveStatus::Disconnected);
  EXPECT_FALSE(bad.message.empty());

  const SolveResponse metric =
      client.solve(request_for(complete_graph(5), 11, PVec({3, 1})));
  EXPECT_EQ(metric.status, SolveStatus::MetricConditionViolated);

  // The same connection still serves good requests afterwards.
  const SolveResponse good = client.solve(request_for(complete_graph(5), 12));
  EXPECT_TRUE(good.ok());
  client.shutdown();
}

TEST_F(NetServerTest, MalformedFrameGetsTypedErrorThenClose) {
  start();
  RawSocket raw(server_->port());
  std::vector<std::uint8_t> bytes;
  encode_hello(bytes);
  // A frame with a valid length prefix but an unknown message type.
  bytes.insert(bytes.end(), {3, 0, 0, 0, 0x6f, 0xde, 0xad});
  raw.send(bytes);

  const std::vector<std::uint8_t> reply = raw.read_to_eof();  // server must close
  FrameReader reader;
  reader.feed(reply.data(), reply.size());
  DecodeResult result;
  ASSERT_TRUE(reader.next(result));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.message.type, MessageType::HelloAck);
  ASSERT_TRUE(reader.next(result));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.message.type, MessageType::Error);
  EXPECT_EQ(result.message.error_fault, WireFault::BadType);
  EXPECT_FALSE(result.message.error_message.empty());
  EXPECT_GE(server_->counters().protocol_errors, 1u);
}

TEST_F(NetServerTest, BadMagicIsRefusedBeforeAnySolving) {
  start();
  RawSocket raw(server_->port());
  std::vector<std::uint8_t> hello;
  encode_hello(hello);
  hello[5] ^= 0xff;  // corrupt the magic
  raw.send(hello);
  const std::vector<std::uint8_t> reply = raw.read_to_eof();
  FrameReader reader;
  reader.feed(reply.data(), reply.size());
  DecodeResult result;
  ASSERT_TRUE(reader.next(result));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.message.type, MessageType::Error);
  EXPECT_EQ(result.message.error_fault, WireFault::BadMagic);
  EXPECT_EQ(server_->counters().requests_submitted, 0u);
}

TEST_F(NetServerTest, TruncatedConnectionDoesNotHangTheServer) {
  start();
  {
    RawSocket raw(server_->port());
    std::vector<std::uint8_t> hello;
    encode_hello(hello);
    raw.send(hello);
    // Announce a large frame, send only half of it, then vanish.
    SolveRequest request = request_for(complete_graph(20), 5);
    std::vector<std::uint8_t> frame;
    encode_request(frame, request);
    frame.resize(frame.size() / 2);
    raw.send(frame);
  }  // destructor closes mid-frame
  // The server must shrug it off and keep serving new clients.
  LabelingClient client;
  client.connect("127.0.0.1", server_->port());
  const SolveResponse response = client.solve(request_for(complete_graph(6), 6));
  EXPECT_TRUE(response.ok());
  client.shutdown();
}

TEST_F(NetServerTest, HalfCloseStillDrainsPipelinedRequests) {
  start();
  RawSocket raw(server_->port());
  std::vector<std::uint8_t> bytes;
  encode_hello(bytes);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    SolveRequest request = request_for(complete_graph(5 + static_cast<int>(id)), id);
    encode_request(bytes, request);
  }
  raw.send(bytes);
  // EOF may arrive in the same readable batch as the frames; the server
  // must answer everything before closing, exactly as for a Shutdown
  // frame.
  raw.shutdown_write();
  const std::vector<std::uint8_t> reply = raw.read_to_eof();
  FrameReader reader;
  reader.feed(reply.data(), reply.size());
  DecodeResult result;
  ASSERT_TRUE(reader.next(result));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.message.type, MessageType::HelloAck);
  std::set<std::uint64_t> answered;
  while (reader.next(result)) {
    ASSERT_TRUE(result.ok()) << result.detail;
    ASSERT_EQ(result.message.type, MessageType::Response);
    EXPECT_TRUE(result.message.response.ok()) << result.message.response.message;
    answered.insert(result.message.response.id);
  }
  EXPECT_EQ(answered, (std::set<std::uint64_t>{1, 2, 3}));
}

TEST_F(NetServerTest, OverInflightLimitRequestsAreRejectedTyped) {
  LabelingServer::Options server_options;
  server_options.max_inflight_per_connection = 1;
  BatchSolver::Options solver_options;
  // Unique graphs, and the first race held on its worker: the pipelined
  // burst behind it is answered by admission control, never by the solver
  // getting there first.
  solver_options.portfolio.deadline = std::chrono::milliseconds{150};
  start(server_options, solver_options);
  HeldRace held;  // the first admitted request holds the slot until released

  LabelingClient client;
  client.connect("127.0.0.1", server_->port());
  Rng rng(11);
  constexpr std::uint64_t kBurst = 6;
  for (std::uint64_t id = 1; id <= kBurst; ++id) {
    client.submit(request_for(random_with_diameter_at_most(40, 2, 0.2, rng), id));
  }
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::vector<bool> seen(kBurst + 1, false);
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    // The held request cannot answer first, so the first reply is a
    // rejection; after it the slot may drain.
    if (i == 1) held.release();
    const SolveResponse response = client.next();
    ASSERT_GE(response.id, 1u);
    ASSERT_LE(response.id, kBurst);
    EXPECT_FALSE(seen[response.id]) << "duplicate response id";
    seen[response.id] = true;
    if (response.status == SolveStatus::RejectedOverload) {
      ++rejected;
      EXPECT_FALSE(response.ok());
      EXPECT_FALSE(response.message.empty());
    } else {
      EXPECT_TRUE(response.ok()) << response.message;
      ++ok;
    }
  }
  EXPECT_GE(ok, 1u);
  EXPECT_GE(rejected, 1u);
  EXPECT_EQ(ok + rejected, kBurst);
  EXPECT_EQ(server_->counters().rejected_inflight, rejected);
  client.shutdown();
}

TEST_F(NetServerTest, SolverLevelAdmissionControlAnswersTyped) {
  LabelingServer::Options server_options;
  BatchSolver::Options solver_options;
  solver_options.max_pending_requests = 1;
  solver_options.request_workers = 1;
  solver_options.portfolio.deadline = std::chrono::milliseconds{150};
  start(server_options, solver_options);
  HeldRace held;  // the one admitted request stays pending until released

  LabelingClient client;
  client.connect("127.0.0.1", server_->port());
  Rng rng(13);
  constexpr std::uint64_t kBurst = 5;
  for (std::uint64_t id = 1; id <= kBurst; ++id) {
    client.submit(request_for(random_with_diameter_at_most(40, 2, 0.2, rng), id));
  }
  std::uint64_t rejected = 0;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    if (i == 1) held.release();  // the first reply is necessarily a rejection
    const SolveResponse response = client.next();
    if (response.status == SolveStatus::RejectedOverload) ++rejected;
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_GE(solver_->rejected_overload(), rejected);
  client.shutdown();
}

TEST_F(NetServerTest, StatsScrapeReflectsTheWorkload) {
  start();
  LabelingClient client;
  client.connect("127.0.0.1", server_->port());

  Rng rng(17);
  const Graph graph = random_with_diameter_at_most(14, 2, 0.3, rng);
  ASSERT_TRUE(client.solve(request_for(graph, 1)).ok());  // cold: engine race
  const SolveResponse warm =
      client.solve(request_for(relabel(graph, rng.permutation(graph.n())), 2));
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm.source, ResponseSource::ResultCache);

  // The JSON view carries the counters the workload just produced.
  const std::string json = client.stats(StatsFormat::Json);
  EXPECT_NE(json.find("\"requests_total\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache_result_hits\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache_result_misses\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"engine_solves\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"net_requests_submitted\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"request_ns\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos) << json;

  // Engine-race latency histogram: present, one recorded race.
  const obs::MetricsSnapshot snap = solver_->metrics_registry().snapshot();
  ASSERT_NE(snap.histogram("engine_race_ns"), nullptr);
  EXPECT_EQ(snap.histogram("engine_race_ns")->count, 1u);
  EXPECT_GT(snap.histogram("engine_race_ns")->quantile(0.5), 0u);

  // The other render formats are served on the same connection, and the
  // traces view shows both requests with their distinguishing spans.
  EXPECT_NE(client.stats(StatsFormat::Prometheus).find("lptsp_requests_total 2"),
            std::string::npos);
  EXPECT_NE(client.stats(StatsFormat::Text).find("requests_total"), std::string::npos);
  const std::string traces = client.stats(StatsFormat::Traces);
  EXPECT_NE(traces.find("\"stage\":\"engine-race\""), std::string::npos) << traces;
  EXPECT_NE(traces.find("\"winner\":true"), std::string::npos) << traces;
  EXPECT_NE(traces.find("\"result\":\"result-cache\""), std::string::npos) << traces;

  EXPECT_EQ(server_->counters().stats_requests, 4u);
  client.shutdown();
}

TEST_F(NetServerTest, TracedClientAndServerShareOneTraceId) {
  start();
  ClientOptions options;
  options.trace = true;
  LabelingClient client(options);
  client.connect("127.0.0.1", server_->port());

  Rng rng(19);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  const SolveResponse response = client.solve(request_for(graph, 31));
  ASSERT_TRUE(response.ok()) << response.message;
  // The server echoes where its time went; the solve actually ran, so
  // service time is nonzero.
  EXPECT_GT(response.server_service_ns, 0u);

  // Client side: one trace, client-owned spans plus the nested echo.
  const std::vector<obs::Trace> client_traces = client.traces().snapshot();
  ASSERT_EQ(client_traces.size(), 1u);
  const obs::Trace& mine = client_traces[0];
  EXPECT_EQ(mine.request_id, 31u);
  EXPECT_NE(mine.trace_id, 0u);
  EXPECT_TRUE(mine.sampled);
  const auto has_stage = [](const obs::Trace& trace, obs::Stage stage) {
    for (const obs::Span& span : trace.spans) {
      if (span.stage == stage) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_stage(mine, obs::Stage::ClientConnect));
  EXPECT_TRUE(has_stage(mine, obs::Stage::ClientSerialize));
  EXPECT_TRUE(has_stage(mine, obs::Stage::ClientSend));
  EXPECT_TRUE(has_stage(mine, obs::Stage::ServerTurnaround));
  EXPECT_TRUE(has_stage(mine, obs::Stage::ClientDeserialize));
  EXPECT_TRUE(has_stage(mine, obs::Stage::ServerService));

  // Server side: its ring adopted the SAME id — the joined trace.
  const std::vector<obs::Trace> server_traces = solver_->traces().snapshot();
  ASSERT_EQ(server_traces.size(), 1u);
  EXPECT_EQ(server_traces[0].trace_id, mine.trace_id);
  EXPECT_TRUE(server_traces[0].sampled);
  EXPECT_EQ(server_traces[0].request_id, 31u);
  EXPECT_TRUE(has_stage(server_traces[0], obs::Stage::CacheLookup));

  // Both rings dump the shared id.
  const std::string expected = "\"trace_id\":" + std::to_string(mine.trace_id);
  EXPECT_NE(client.traces().dump_json().find(expected), std::string::npos);
  EXPECT_NE(client.stats(StatsFormat::Traces).find(expected), std::string::npos);
  client.shutdown();
}

TEST_F(NetServerTest, JournalIsScrapable) {
  start();
  obs::journal().clear();
  obs::journal().emit(obs::EventType::StoreHealed, obs::EventLevel::Info);
  LabelingClient client;
  client.connect("127.0.0.1", server_->port());
  const std::string journal = client.stats(StatsFormat::Journal);
  EXPECT_NE(journal.find("\"type\":\"store-healed\""), std::string::npos) << journal;
  client.shutdown();
}

TEST_F(NetServerTest, OlderHelloIsRefusedWithBadVersion) {
  // There is one wire version: a v3 peer's Hello gets the typed
  // bad-version Error instead of an ack, and nothing it sends after the
  // Hello is served.
  start();
  RawSocket raw(server_->port());
  std::vector<std::uint8_t> bytes;
  encode_hello(bytes);
  bytes[9] = 3;  // version low byte: len(4) type(1) magic(4)
  bytes[10] = 0;
  encode_stats_request(bytes, StatsFormat::Journal);
  raw.send(bytes);
  const std::vector<std::uint8_t> reply = raw.read_to_eof();  // server closes
  FrameReader reader;
  reader.feed(reply.data(), reply.size());
  DecodeResult result;
  ASSERT_TRUE(reader.next(result));
  ASSERT_TRUE(result.ok()) << result.detail;
  ASSERT_EQ(result.message.type, MessageType::Error);
  EXPECT_EQ(result.message.error_fault, WireFault::BadVersion);
  EXPECT_NE(result.message.error_message.find("version 3"), std::string::npos)
      << result.message.error_message;
  EXPECT_FALSE(reader.next(result)) << "nothing may follow the refusal";
  const obs::MetricsSnapshot snap = solver_->metrics_registry().snapshot();
  EXPECT_EQ(snap.counter_or("net_wire_fault_bad_version"), 1u);
  EXPECT_EQ(snap.counter_or("net_protocol_errors"), 1u);
  EXPECT_EQ(server_->counters().stats_requests, 0u);
}

TEST_F(NetServerTest, WireFaultCountersTickByKind) {
  start();
  {
    RawSocket raw(server_->port());
    std::vector<std::uint8_t> hello;
    encode_hello(hello);
    hello[5] ^= 0xff;  // BadMagic
    raw.send(hello);
    (void)raw.read_to_eof();
  }
  {
    RawSocket raw(server_->port());
    std::vector<std::uint8_t> bytes;
    encode_hello(bytes);
    bytes.insert(bytes.end(), {3, 0, 0, 0, 0x6f, 0xde, 0xad});  // BadType
    raw.send(bytes);
    (void)raw.read_to_eof();
  }
  const obs::MetricsSnapshot snap = solver_->metrics_registry().snapshot();
  EXPECT_EQ(snap.counter_or("net_wire_fault_bad_magic"), 1u);
  EXPECT_EQ(snap.counter_or("net_wire_fault_bad_type"), 1u);
  EXPECT_EQ(snap.counter_or("net_wire_fault_truncated"), 0u);
  EXPECT_EQ(snap.counter_or("net_protocol_errors"), 2u);
  EXPECT_EQ(server_->counters().protocol_errors, 2u);
}

TEST_F(NetServerTest, ServerTeardownFreesTheRegistryNames) {
  // The server deregisters its net_* metrics on destruction, so a second
  // server (same solver) can register the same names — the restart path.
  BatchSolver solver(BatchSolver::Options{});
  {
    LabelingServer first(solver);
    first.start();
    EXPECT_GE(solver.metrics_registry().snapshot().counters.size(), 1u);
  }
  LabelingServer second(solver);
  second.start();
  LabelingClient client;
  client.connect("127.0.0.1", second.port());
  EXPECT_TRUE(client.solve(request_for(complete_graph(5), 1)).ok());
  EXPECT_NE(client.stats(StatsFormat::Json).find("\"net_connections_accepted\":1"),
            std::string::npos);
  client.shutdown();
}

TEST_F(NetServerTest, CountersAndLifecycle) {
  start();
  {
    LabelingClient client;
    client.connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.solve(request_for(complete_graph(5), 1)).ok());
    client.shutdown();
  }
  const LabelingServer::Counters counters = server_->counters();
  EXPECT_EQ(counters.connections_accepted, 1u);
  EXPECT_GE(counters.frames_received, 2u);  // hello + request (+ shutdown)
  EXPECT_EQ(counters.requests_submitted, 1u);
  EXPECT_EQ(counters.responses_sent, 1u);
  EXPECT_EQ(counters.protocol_errors, 0u);

  server_->stop();
  server_->stop();  // idempotent
  EXPECT_FALSE(server_->running());
  LabelingClient late;
  EXPECT_THROW(late.connect("127.0.0.1", server_->port()), std::runtime_error);
}

}  // namespace
}  // namespace lptsp
