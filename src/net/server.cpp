#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/journal.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"

namespace lptsp {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  // Responses are small frames written as soon as they complete; Nagle
  // would batch them behind unacked data and serialize the pipeline.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

struct LabelingServer::Connection {
  explicit Connection(const WireLimits& limits) : reader(limits) {}

  std::uint64_t id = 0;
  int fd = -1;
  FrameReader reader;
  std::vector<std::uint8_t> out;  ///< encoded frames awaiting write
  std::size_t out_offset = 0;
  std::size_t inflight = 0;       ///< submitted to the solver, not yet answered
  bool handshaken = false;
  bool draining = false;  ///< client sent Shutdown: close once quiet
  bool closing = false;   ///< protocol fault: close once the Error frame flushes

  [[nodiscard]] std::size_t queued_bytes() const { return out.size() - out_offset; }
};

/// Solver completions cross thread boundaries here. Callbacks hold the
/// queue via shared_ptr, so a completion landing after the server died
/// finds wake_fd == -1 and is dropped instead of touching freed memory.
struct LabelingServer::CompletionQueue {
  std::mutex mutex;
  std::vector<std::pair<std::uint64_t, SolveResponse>> items;  ///< (connection id, response)
  int wake_fd = -1;
};

struct LabelingServer::LoopState {
  std::unordered_map<std::uint64_t, Connection> connections;
  std::uint64_t next_connection_id = 1;
  std::vector<pollfd> pollfds;
  std::vector<std::uint64_t> poll_ids;  ///< poll_ids[i] owns pollfds[i + 2]
  /// Poll cycles left during which the listener is NOT polled. Set after
  /// an unrecoverable accept() error (fd exhaustion): a pending
  /// connection we cannot accept would otherwise keep the listen fd
  /// POLLIN-ready and spin the loop at 100% CPU.
  int accept_backoff = 0;
};

LabelingServer::LabelingServer(BatchSolver& solver, const Options& options)
    : solver_(solver), options_(options) {
  register_metrics();
}

LabelingServer::~LabelingServer() {
  stop();
  // The net_* metrics point into this object; a snapshot taken after the
  // server is gone must not read freed storage.
  solver_.metrics_registry().deregister(this);
}

void LabelingServer::register_metrics() {
  obs::MetricRegistry& registry = solver_.metrics_registry();
  registry.register_counter("net_connections_accepted", &connections_accepted_, this);
  registry.register_counter("net_connections_refused", &connections_refused_, this);
  registry.register_counter("net_frames_received", &frames_received_, this);
  registry.register_counter("net_requests_submitted", &requests_submitted_, this);
  registry.register_counter("net_responses_sent", &responses_sent_, this);
  registry.register_counter("net_rejected_inflight", &rejected_inflight_, this);
  registry.register_counter("net_rejected_backlog", &rejected_backlog_, this);
  registry.register_counter("net_protocol_errors", &protocol_errors_, this);
  registry.register_counter("net_bytes_in", &bytes_in_, this);
  registry.register_counter("net_bytes_out", &bytes_out_, this);
  registry.register_counter("net_stats_requests", &stats_requests_, this);
  registry.register_gauge(
      "net_open_connections", [this] { return static_cast<std::int64_t>(open_connections()); },
      this);
  // One counter per fault kind, named from the enum (None excluded: a
  // clean decode is not an error to count).
  static_assert(static_cast<std::size_t>(WireFault::Malformed) + 1 ==
                    std::tuple_size<decltype(wire_faults_)>::value,
                "wire_faults_ must cover every WireFault");
  for (std::size_t fault = 1; fault < wire_faults_.size(); ++fault) {
    std::string name = std::string("net_wire_fault_") +
                       wire_fault_name(static_cast<WireFault>(fault));
    // "bad-magic" -> "bad_magic": metric names must stay Prometheus-legal.
    for (char& c : name) {
      if (c == '-') c = '_';
    }
    registry.register_counter(std::move(name), &wire_faults_[fault], this);
  }
}

void LabelingServer::start() {
  LPTSP_REQUIRE(!running_.load(), "server already running");
  stop_requested_.store(false);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  LPTSP_REQUIRE(listen_fd_ >= 0, "socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &address.sin_addr) != 1) {
    close_fd(listen_fd_);
    LPTSP_REQUIRE(false, "invalid bind address: " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    const std::string detail = std::strerror(errno);
    close_fd(listen_fd_);
    LPTSP_REQUIRE(false, "cannot listen on " + options_.bind_address + ": " + detail);
  }
  sockaddr_in bound{};
  socklen_t bound_size = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_size);
  port_ = ntohs(bound.sin_port);
  set_nonblocking(listen_fd_);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    close_fd(listen_fd_);
    LPTSP_REQUIRE(false, "pipe() failed");
  }
  set_nonblocking(pipe_fds[0]);
  set_nonblocking(pipe_fds[1]);
  wake_read_fd_ = pipe_fds[0];

  completions_ = std::make_shared<CompletionQueue>();
  completions_->wake_fd = pipe_fds[1];
  loop_ = std::make_unique<LoopState>();

  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { event_loop(); });
}

void LabelingServer::stop() {
  if (!running_.exchange(false)) return;
  stop_requested_.store(true);
  {
    const std::lock_guard lock(completions_->mutex);
    if (completions_->wake_fd >= 0) {
      const char byte = 'q';
      // Retry EINTR: losing this wake would leave the join below waiting
      // out a full poll timeout.
      while (::write(completions_->wake_fd, &byte, 1) < 0 && errno == EINTR) {
      }
    }
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    // Close the wake pipe's write end last: solver callbacks that are
    // still running keep the queue alive via shared_ptr and now see it
    // closed, dropping their completions.
    const std::lock_guard lock(completions_->mutex);
    close_fd(completions_->wake_fd);
    completions_->items.clear();
  }
  close_fd(wake_read_fd_);
  loop_.reset();
}

LabelingServer::Counters LabelingServer::counters() const {
  Counters counters;
  counters.connections_accepted = connections_accepted_.value();
  counters.connections_refused = connections_refused_.value();
  counters.frames_received = frames_received_.value();
  counters.requests_submitted = requests_submitted_.value();
  counters.responses_sent = responses_sent_.value();
  counters.rejected_inflight = rejected_inflight_.value();
  counters.rejected_backlog = rejected_backlog_.value();
  counters.protocol_errors = protocol_errors_.value();
  counters.bytes_in = bytes_in_.value();
  counters.bytes_out = bytes_out_.value();
  counters.stats_requests = stats_requests_.value();
  return counters;
}

void LabelingServer::event_loop() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    auto& pollfds = loop_->pollfds;
    auto& poll_ids = loop_->poll_ids;
    pollfds.clear();
    poll_ids.clear();
    if (loop_->accept_backoff > 0) --loop_->accept_backoff;
    pollfds.push_back({listen_fd_, loop_->accept_backoff > 0 ? short{0} : short{POLLIN}, 0});
    pollfds.push_back({wake_read_fd_, POLLIN, 0});
    for (auto& [id, connection] : loop_->connections) {
      short events = 0;
      // Reads pause while a fault is pending close, the client said
      // Shutdown, or the write backlog is past twice the reject threshold
      // (flow control: stop consuming what we cannot answer).
      if (!connection.closing && !connection.draining &&
          connection.queued_bytes() < 2 * options_.max_queued_bytes_per_connection) {
        events |= POLLIN;
      }
      if (connection.queued_bytes() > 0) events |= POLLOUT;
      pollfds.push_back({connection.fd, events, 0});
      poll_ids.push_back(id);
    }

    const int ready = ::poll(pollfds.data(), static_cast<nfds_t>(pollfds.size()), 250);
    if (ready < 0 && errno != EINTR) break;  // unrecoverable poll failure
    if (stop_requested_.load(std::memory_order_acquire)) break;
    if (ready <= 0) continue;

    if ((pollfds[0].revents & POLLIN) != 0) accept_new_connections();
    if ((pollfds[1].revents & POLLIN) != 0) {
      char scratch[256];
      while (true) {
        const ssize_t got = ::read(wake_read_fd_, scratch, sizeof(scratch));
        if (got > 0) continue;
        if (got < 0 && errno == EINTR) continue;  // signal: keep draining
        break;  // drained (EAGAIN) or pipe gone
      }
      drain_completions();
    }

    for (std::size_t i = 0; i < poll_ids.size(); ++i) {
      const std::uint64_t id = poll_ids[i];
      const short revents = pollfds[i + 2].revents;
      if (revents == 0) continue;
      const auto it = loop_->connections.find(id);
      if (it == loop_->connections.end()) continue;  // closed earlier this round
      Connection& connection = it->second;
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        close_connection(id);
        continue;
      }
      if ((revents & POLLIN) != 0) handle_readable(connection);
      // handle_readable may have closed the connection; re-find it.
      const auto again = loop_->connections.find(id);
      if (again == loop_->connections.end()) continue;
      if ((revents & (POLLOUT | POLLHUP)) != 0 || again->second.queued_bytes() > 0) {
        flush_writes(again->second);
      }
      const auto final_it = loop_->connections.find(id);
      if (final_it != loop_->connections.end() && (revents & POLLHUP) != 0 &&
          (revents & POLLIN) == 0) {
        close_connection(id);
      }
    }
  }

  // Loop teardown: close every connection and the listener. The wake pipe
  // write end stays open until stop() has joined us, so late completions
  // never write to a closed fd.
  std::vector<std::uint64_t> ids;
  ids.reserve(loop_->connections.size());
  for (const auto& [id, connection] : loop_->connections) ids.push_back(id);
  for (const std::uint64_t id : ids) close_connection(id);
  close_fd(listen_fd_);
}

void LabelingServer::accept_new_connections() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      if (errno == ECONNABORTED) continue;  // peer gave up while queued
      // Unrecoverable here and now (typically EMFILE/ENFILE fd
      // exhaustion): the queued connection cannot be accepted, and the
      // still-readable listener would spin the poll loop. Back off for a
      // few cycles and retry once other connections have released fds.
      loop_->accept_backoff = 8;
      connections_refused_.add();
      return;
    }
    if (loop_->connections.size() >= static_cast<std::size_t>(options_.max_connections)) {
      // Refusal IS the admission response at this level; accepting and
      // buffering would be the unbounded growth we are here to prevent.
      ::close(fd);
      connections_refused_.add();
      continue;
    }
    set_nonblocking(fd);
    set_nodelay(fd);
    const std::uint64_t id = loop_->next_connection_id++;
    Connection connection(options_.wire);
    connection.id = id;
    connection.fd = fd;
    loop_->connections.emplace(id, std::move(connection));
    connections_accepted_.add();
    open_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void LabelingServer::drain_completions() {
  std::vector<std::pair<std::uint64_t, SolveResponse>> ready;
  {
    const std::lock_guard lock(completions_->mutex);
    ready.swap(completions_->items);
  }
  for (auto& [connection_id, response] : ready) {
    const auto it = loop_->connections.find(connection_id);
    if (it == loop_->connections.end()) continue;  // connection died mid-solve
    Connection& connection = it->second;
    if (connection.inflight > 0) --connection.inflight;
    encode_response(connection.out, response);
    responses_sent_.add();
    flush_writes(connection);
  }
}

void LabelingServer::handle_readable(Connection& connection) {
  std::uint8_t buffer[64 * 1024];
  while (true) {
    if (fault::should_fail(FaultSite::NetDisconnect)) {
      // Injected peer reset: the connection dies exactly as if the client
      // vanished mid-frame.
      close_connection(connection.id);
      return;
    }
    std::size_t cap = sizeof(buffer);
    // Injected short read: one byte per syscall, as a trickling or
    // heavily fragmented peer would deliver — framing must reassemble.
    if (fault::should_fail(FaultSite::NetReadShort)) cap = 1;
    const ssize_t got = ::read(connection.fd, buffer, cap);
    if (got > 0) {
      bytes_in_.add(static_cast<std::uint64_t>(got));
      connection.reader.feed(buffer, static_cast<std::size_t>(got));
      if (got < static_cast<ssize_t>(cap)) break;
      continue;
    }
    if (got == 0) {
      // Orderly peer close. Frames that arrived in this same batch are
      // complete and valid — a client may legitimately write its whole
      // pipeline, shutdown(SHUT_WR), and block on the responses. Treat
      // EOF exactly like a Shutdown frame: decode what is buffered,
      // answer it, and close once quiet.
      connection.draining = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
    close_connection(connection.id);
    return;
  }

  DecodeResult result;
  while (!connection.closing && connection.reader.next(result)) {
    frames_received_.add();
    if (!result.ok()) {
      // Typed refusal, never a crash: tell the client what was wrong with
      // its bytes, then close — the stream's framing is untrustworthy.
      send_fault(connection, result.fault, result.detail);
      break;
    }
    handle_frame(connection, std::move(result.message));
  }
  flush_writes(connection);
}

void LabelingServer::send_fault(Connection& connection, WireFault fault,
                                const std::string& detail) {
  encode_error(connection.out, 0, fault, detail);
  protocol_errors_.add();
  // Peer attribution: counters say how many faults, the journal says
  // which connection sent them.
  obs::journal().emit(obs::EventType::WireFault, obs::EventLevel::Error,
                      wire_fault_name(fault), 0, connection.id);
  const auto index = static_cast<std::size_t>(fault);
  if (index > 0 && index < wire_faults_.size()) wire_faults_[index].add();
  connection.closing = true;
}

void LabelingServer::handle_frame(Connection& connection, WireMessage&& message) {
  if (!connection.handshaken) {
    if (message.type != MessageType::Hello) {
      send_fault(connection, WireFault::Malformed,
                 std::string("expected hello, got ") + message_type_name(message.type));
      return;
    }
    // decode_handshake already refused any version but kWireVersion.
    connection.handshaken = true;
    encode_hello_ack(connection.out);
    return;
  }
  switch (message.type) {
    case MessageType::Request:
      handle_request(connection, std::move(message.request));
      return;
    case MessageType::StatsRequest:
      handle_stats_request(connection, message.stats_format, message.stats_since);
      return;
    case MessageType::Shutdown:
      connection.draining = true;
      return;
    case MessageType::Hello:
    case MessageType::HelloAck:
    case MessageType::Response:
    case MessageType::Error:
    case MessageType::StatsReply:
      send_fault(connection, WireFault::Malformed,
                 std::string("unexpected ") + message_type_name(message.type) +
                     " frame from client");
      return;
  }
}

void LabelingServer::handle_stats_request(Connection& connection, StatsFormat format,
                                          std::uint64_t since) {
  stats_requests_.add();
  std::string payload;
  switch (format) {
    case StatsFormat::Json: payload = solver_.metrics_registry().snapshot().to_json(); break;
    case StatsFormat::Prometheus:
      payload = solver_.metrics_registry().snapshot().to_prometheus();
      break;
    case StatsFormat::Text: payload = solver_.metrics_registry().snapshot().to_text(); break;
    case StatsFormat::Traces: payload = solver_.traces().dump_json(); break;
    case StatsFormat::Journal: payload = obs::journal().dump_json(since); break;
    case StatsFormat::Profile: payload = solver_.profile_json(); break;
  }
  encode_stats_reply(connection.out, format, payload);
}

void LabelingServer::handle_request(Connection& connection, SolveRequest&& request) {
  const auto reject = [&](const char* detail, obs::Counter& counter) {
    SolveResponse response;
    response.id = request.id;
    response.status = SolveStatus::RejectedOverload;
    response.message = detail;
    response.retry_after_ms = solver_.retry_after_hint();
    encode_response(connection.out, response);
    counter.add();
    responses_sent_.add();
  };
  if (connection.inflight >= options_.max_inflight_per_connection) {
    reject("connection in-flight request limit reached, drain responses first",
           rejected_inflight_);
    return;
  }
  if (connection.queued_bytes() > options_.max_queued_bytes_per_connection) {
    reject("connection response backlog limit reached, read faster", rejected_backlog_);
    return;
  }
  ++connection.inflight;
  requests_submitted_.add();
  // The callback runs on a solver worker: it must only touch the shared
  // completion queue, never connection state (the event loop owns that).
  // The request is moved, not copied — the decoded graph already exists.
  solver_.submit_async(std::move(request),
                       [queue = completions_, connection_id = connection.id](SolveResponse response) {
                         const std::lock_guard lock(queue->mutex);
                         if (queue->wake_fd < 0) return;  // server is gone
                         queue->items.emplace_back(connection_id, std::move(response));
                         const char byte = 'c';
                         // Retry EINTR so a signal cannot swallow the wake
                         // and leave the completion parked until the next
                         // poll timeout.
                         while (::write(queue->wake_fd, &byte, 1) < 0 && errno == EINTR) {
                         }
                       });
}

void LabelingServer::flush_writes(Connection& connection) {
  while (connection.out_offset < connection.out.size()) {
    if (fault::should_fail(FaultSite::NetDisconnect)) {
      close_connection(connection.id);  // injected peer reset mid-write
      return;
    }
    std::size_t chunk = connection.out.size() - connection.out_offset;
    // Injected short write: the kernel "accepts" one byte, as a full
    // socket buffer would — the flush must resume where it left off.
    if (chunk > 1 && fault::should_fail(FaultSite::NetWriteShort)) chunk = 1;
    // MSG_NOSIGNAL: a client that resets mid-response must cost one
    // connection, not a SIGPIPE against the whole daemon.
    const ssize_t wrote =
        ::send(connection.fd, connection.out.data() + connection.out_offset,
               chunk, MSG_NOSIGNAL);
    if (wrote > 0) {
      bytes_out_.add(static_cast<std::uint64_t>(wrote));
      connection.out_offset += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return;
    close_connection(connection.id);  // broken pipe or similar
    return;
  }
  connection.out.clear();
  connection.out_offset = 0;
  if (connection.closing ||
      (connection.draining && connection.inflight == 0)) {
    close_connection(connection.id);
  }
}

void LabelingServer::close_connection(std::uint64_t connection_id) {
  const auto it = loop_->connections.find(connection_id);
  if (it == loop_->connections.end()) return;
  close_fd(it->second.fd);
  loop_->connections.erase(it);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace lptsp
