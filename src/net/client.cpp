#include "net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "core/solvers.hpp"
#include "util/fault.hpp"

namespace lptsp {

namespace {

[[noreturn]] void transport_error(const std::string& what) {
  throw std::runtime_error("lptspd client: " + what);
}

/// Remaining budget as a poll(2) timeout: -1 = no deadline, 0 = expired.
int remaining_poll_ms(const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  if (!deadline.has_value()) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        *deadline - std::chrono::steady_clock::now())
                        .count();
  if (left <= 0) return 0;
  return left > INT_MAX ? INT_MAX : static_cast<int>(left);
}

SolveResponse failure_response(std::uint64_t id, SolveStatus status, std::string message) {
  SolveResponse response;
  response.id = id;
  response.status = status;
  response.message = std::move(message);
  return response;
}

std::uint64_t splitmix64_step(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

LabelingClient::LabelingClient(const ClientOptions& options)
    : options_(options),
      limits_(options.wire),
      reader_(options.wire),
      jitter_rng_(options.jitter_seed),
      // A separate stream from jitter_rng_ keeps trace ids from
      // perturbing the backoff schedule tests pin.
      trace_id_state_(options.jitter_seed ^ 0x7472616365ULL),
      traces_(obs::TraceRing::Config{options.trace ? options.trace_capacity : 0, 0}) {}

LabelingClient::~LabelingClient() { close(); }

void LabelingClient::connect(const std::string& host, std::uint16_t port) {
  if (connected()) transport_error("already connected");
  const std::uint64_t connect_start = options_.trace ? obs::steady_now_ns() : 0;

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    // Not a literal address: resolve it (the daemon's --host flag takes
    // names like "localhost").
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* found = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &found) != 0 || found == nullptr) {
      transport_error("cannot resolve host " + host);
    }
    address.sin_addr = reinterpret_cast<sockaddr_in*>(found->ai_addr)->sin_addr;
    ::freeaddrinfo(found);
  }

  const Deadline deadline =
      options_.connect_timeout.count() > 0
          ? Deadline{std::chrono::steady_clock::now() + options_.connect_timeout}
          : Deadline{};

  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) transport_error("socket() failed");

  // Nonblocking connect so both the timeout and EINTR are handled
  // explicitly (a blocking connect interrupted by a signal leaves the
  // attempt in limbo; here poll() just resumes waiting on it).
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address));
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
    const std::string detail = std::strerror(errno);
    close();
    transport_error("connect to " + host + ":" + std::to_string(port) + " failed: " + detail);
  }
  if (rc != 0) {
    while (true) {
      pollfd pfd{fd_, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, remaining_poll_ms(deadline));
      if (ready < 0) {
        if (errno == EINTR) continue;
        const std::string detail = std::strerror(errno);
        close();
        transport_error("connect poll failed: " + detail);
      }
      if (ready == 0) {
        close();
        transport_error("connect to " + host + ":" + std::to_string(port) + " timed out");
      }
      break;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      const std::string detail = std::strerror(err);
      close();
      transport_error("connect to " + host + ":" + std::to_string(port) + " failed: " + detail);
    }
  }
  ::fcntl(fd_, F_SETFL, flags);  // back to blocking; reads go through poll()

  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::vector<std::uint8_t> hello;
  encode_hello(hello);
  write_all(hello.data(), hello.size());
  WireMessage ack;
  std::string detail;
  switch (try_read_message(ack, deadline, detail)) {
    case ReadOutcome::Ok:
      break;
    case ReadOutcome::TimedOut:
      close();
      transport_error("handshake with " + host + ":" + std::to_string(port) + " timed out");
    case ReadOutcome::Disconnected:
      transport_error("handshake failed: " + detail);
  }
  if (ack.type != MessageType::HelloAck) {
    close();
    transport_error(std::string("handshake expected hello-ack, got ") +
                    message_type_name(ack.type));
  }
  if (options_.trace) pending_connect_ns_ = obs::steady_now_ns() - connect_start;
  host_ = host;
  port_ = port;
}

bool LabelingClient::reconnect() {
  if (host_.empty()) return false;  // never connected; nowhere to go back to
  close();
  try {
    connect(host_, port_);
  } catch (const std::runtime_error&) {
    return false;
  }
  return true;
}

std::uint64_t LabelingClient::next_trace_id() {
  const std::uint64_t id = splitmix64_step(trace_id_state_);
  return id != 0 ? id : 1;  // 0 means "no context" on the wire
}

void LabelingClient::submit(const SolveRequest& request) {
  if (!connected()) transport_error("not connected");
  if (!options_.trace) {
    std::vector<std::uint8_t> frame;
    encode_request(frame, request);
    write_all(frame.data(), frame.size());
    return;
  }

  // A retry reuses the request id; the stale pending trace (whose reply
  // will never come) must not swallow the new attempt's response.
  for (auto it = pending_traces_.begin(); it != pending_traces_.end(); ++it) {
    if (it->id == request.id) {
      pending_traces_.erase(it);
      break;
    }
  }

  obs::Trace trace;
  trace.request_id = request.id;
  trace.sampled = true;
  trace.origin_ns = obs::steady_now_ns();
  trace.spans.reserve(8);
  if (pending_connect_ns_ != 0) {
    // The handshake predates any request; bill it to the first trace on
    // the connection as a span at origin.
    trace.spans.push_back(
        {obs::Stage::ClientConnect, nullptr, 0, pending_connect_ns_, false, false});
    pending_connect_ns_ = 0;
  }

  // Stamp a generated sampled id unless the caller pre-stamped one. The
  // override goes straight to the encoder — copying the request (and its
  // graph) per traced send would cost more than the tracing itself.
  std::uint64_t trace_id = request.trace_id;
  bool sampled = request.trace_sampled;
  if (trace_id == 0) {
    trace_id = next_trace_id();
    sampled = true;
  }
  std::vector<std::uint8_t> frame;
  {
    obs::SpanScope serialize(&trace, obs::Stage::ClientSerialize);
    encode_request_traced(frame, request, trace_id, sampled);
  }
  trace.trace_id = trace_id;
  {
    obs::SpanScope send(&trace, obs::Stage::ClientSend);
    write_all(frame.data(), frame.size());
  }
  pending_traces_.push_back({request.id, obs::steady_now_ns(), std::move(trace)});
}

void LabelingClient::finish_trace_for(const SolveResponse& response) {
  for (auto it = pending_traces_.begin(); it != pending_traces_.end(); ++it) {
    if (it->id != response.id) continue;
    PendingTrace pending = std::move(*it);
    pending_traces_.erase(it);
    obs::Trace& trace = pending.trace;
    const std::uint64_t now = obs::steady_now_ns();
    const std::uint64_t turnaround_start = pending.sent_ns - trace.origin_ns;
    trace.spans.push_back({obs::Stage::ServerTurnaround, nullptr, turnaround_start,
                           now - pending.sent_ns, false, false});
    // The echoed server timings and the measured decode cost nest inside
    // the turnaround: net transit = turnaround minus the nested spans.
    if (response.server_queue_ns != 0 || response.server_service_ns != 0) {
      trace.spans.push_back({obs::Stage::ServerQueue, nullptr, turnaround_start,
                             response.server_queue_ns, false, true});
      trace.spans.push_back({obs::Stage::ServerService, nullptr,
                             turnaround_start + response.server_queue_ns,
                             response.server_service_ns, false, true});
    }
    if (last_decode_ns_ != 0 && now - trace.origin_ns >= last_decode_ns_) {
      trace.spans.push_back({obs::Stage::ClientDeserialize, nullptr,
                             now - trace.origin_ns - last_decode_ns_, last_decode_ns_, false,
                             true});
    }
    trace.total_ns = now - trace.origin_ns;
    trace.result = response.ok() ? response_source_name_cstr(response.source) : "error";
    traces_.keep(std::move(trace));
    return;
  }
}

SolveResponse LabelingClient::next() {
  if (!buffered_.empty()) {
    SolveResponse response = std::move(buffered_.front());
    buffered_.pop_front();
    return response;
  }
  return read_response();
}

SolveResponse LabelingClient::wait(std::uint64_t id) {
  for (auto it = buffered_.begin(); it != buffered_.end(); ++it) {
    if (it->id == id) {
      SolveResponse response = std::move(*it);
      buffered_.erase(it);
      return response;
    }
  }
  while (true) {
    SolveResponse response = read_response();
    if (response.id == id) return response;
    buffered_.push_back(std::move(response));
  }
}

SolveResponse LabelingClient::wait_for(std::uint64_t id, std::chrono::milliseconds timeout) {
  for (auto it = buffered_.begin(); it != buffered_.end(); ++it) {
    if (it->id == id) {
      SolveResponse response = std::move(*it);
      buffered_.erase(it);
      return response;
    }
  }
  const Deadline deadline = timeout.count() > 0
                                ? Deadline{std::chrono::steady_clock::now() + timeout}
                                : Deadline{};
  while (true) {
    WireMessage message;
    std::string detail;
    switch (try_read_message(message, deadline, detail)) {
      case ReadOutcome::Ok:
        break;
      case ReadOutcome::TimedOut:
        // The connection stays open: if the reply lands later it is
        // buffered by the next read and drained via next().
        return failure_response(id, SolveStatus::TimedOut,
                                status_message(SolveStatus::TimedOut, 0, PVec({1})));
      case ReadOutcome::Disconnected:
        return failure_response(id, SolveStatus::TransportDisconnected, detail);
    }
    switch (message.type) {
      case MessageType::Response:
        finish_trace_for(message.response);
        if (message.response.id == id) return std::move(message.response);
        buffered_.push_back(std::move(message.response));
        continue;
      case MessageType::Error: {
        std::string error_detail = std::string("server reported ") +
                                   wire_fault_name(message.error_fault) + ": " +
                                   message.error_message;
        close();
        return failure_response(id, SolveStatus::TransportDisconnected,
                                std::move(error_detail));
      }
      case MessageType::Hello:
      case MessageType::HelloAck:
      case MessageType::Request:
      case MessageType::Shutdown:
      case MessageType::StatsRequest:
      case MessageType::StatsReply: {
        std::string frame_detail = std::string("unexpected ") +
                                   message_type_name(message.type) + " frame from server";
        close();
        return failure_response(id, SolveStatus::TransportDisconnected,
                                std::move(frame_detail));
      }
    }
  }
}

SolveResponse LabelingClient::solve(const SolveRequest& request) {
  submit(request);
  return wait(request.id);
}

SolveResponse LabelingClient::solve_retry(const SolveRequest& request) {
  const Deadline deadline =
      options_.request_timeout.count() > 0
          ? Deadline{std::chrono::steady_clock::now() + options_.request_timeout}
          : Deadline{};
  const int max_attempts = std::max(1, options_.retry.max_attempts);
  std::chrono::milliseconds backoff = options_.retry.initial_backoff;
  SolveResponse last =
      failure_response(request.id, SolveStatus::TransportDisconnected, "no attempt made");

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      // Backoff before the retry; the server's retry-after hint (on
      // RejectedOverload) sets a floor under the exponential schedule.
      std::chrono::milliseconds sleep = backoff;
      if (last.status == SolveStatus::RejectedOverload && last.retry_after_ms > 0) {
        sleep = std::max(sleep, std::chrono::milliseconds{last.retry_after_ms});
      }
      const double jitter = std::clamp(options_.retry.jitter, 0.0, 1.0);
      const double factor = 1.0 + jitter * (2.0 * jitter_rng_.uniform01() - 1.0);
      sleep = std::chrono::milliseconds{
          static_cast<std::int64_t>(static_cast<double>(sleep.count()) * factor)};
      if (deadline.has_value() &&
          std::chrono::steady_clock::now() + sleep >= *deadline) {
        return last;  // sleeping would spend the whole remaining budget
      }
      std::this_thread::sleep_for(sleep);
      backoff = std::min(
          std::chrono::milliseconds{static_cast<std::int64_t>(
              static_cast<double>(backoff.count()) * options_.retry.backoff_multiplier)},
          options_.retry.max_backoff);
    }

    if (!connected() && !reconnect()) {
      last = failure_response(request.id, SolveStatus::TransportDisconnected,
                              "reconnect to " + host_ + ":" + std::to_string(port_) +
                                  " failed");
      continue;
    }
    try {
      submit(request);
    } catch (const std::runtime_error& error) {
      last = failure_response(request.id, SolveStatus::TransportDisconnected, error.what());
      continue;
    }

    std::chrono::milliseconds remaining{0};  // 0 = wait forever (no budget)
    if (deadline.has_value()) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          *deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        return failure_response(request.id, SolveStatus::TimedOut,
                                status_message(SolveStatus::TimedOut, 0, request.p));
      }
      remaining = left;
    }
    SolveResponse response = wait_for(request.id, remaining);
    switch (response.status) {
      case SolveStatus::TimedOut:
        return response;  // the end-to-end budget is spent; retrying cannot help
      case SolveStatus::TransportDisconnected:
      case SolveStatus::RejectedOverload:
        last = std::move(response);
        continue;  // transient: back off and retry
      case SolveStatus::Ok:
      case SolveStatus::EmptyGraph:
      case SolveStatus::Disconnected:
      case SolveStatus::DiameterExceedsK:
      case SolveStatus::MetricConditionViolated:
      case SolveStatus::EngineFailure:
        return response;  // definitive answer (success or permanent rejection)
    }
  }
  return last;
}

std::string LabelingClient::stats(StatsFormat format, std::uint64_t journal_since) {
  if (!connected()) transport_error("not connected");
  std::vector<std::uint8_t> frame;
  encode_stats_request(frame, format, journal_since);
  write_all(frame.data(), frame.size());
  // Bound the scrape by the request budget: a wedged daemon must produce a
  // clean diagnostic, not a hung tool.
  const Deadline deadline =
      options_.request_timeout.count() > 0
          ? Deadline{std::chrono::steady_clock::now() + options_.request_timeout}
          : Deadline{};
  while (true) {
    WireMessage message;
    std::string detail;
    switch (try_read_message(message, deadline, detail)) {
      case ReadOutcome::Ok:
        break;
      case ReadOutcome::TimedOut:
        close();
        transport_error("stats request timed out");
      case ReadOutcome::Disconnected:
        transport_error(detail);
    }
    switch (message.type) {
      case MessageType::StatsReply:
        return std::move(message.stats_payload);
      case MessageType::Response:
        // A pipelined solve finishing ahead of the scrape; keep it for
        // next()/wait().
        finish_trace_for(message.response);
        buffered_.push_back(std::move(message.response));
        continue;
      case MessageType::Error: {
        const std::string reply_detail = message.error_message;
        const WireFault fault = message.error_fault;
        close();
        transport_error(std::string("server refused stats: ") + wire_fault_name(fault) + ": " +
                        reply_detail);
      }
      case MessageType::Hello:
      case MessageType::HelloAck:
      case MessageType::Request:
      case MessageType::Shutdown:
      case MessageType::StatsRequest:
        close();
        transport_error(std::string("unexpected ") + message_type_name(message.type) +
                        " frame from server");
    }
  }
}

void LabelingClient::shutdown() {
  if (!connected()) return;
  std::vector<std::uint8_t> frame;
  encode_shutdown(frame);
  try {
    write_all(frame.data(), frame.size());
  } catch (const std::runtime_error&) {
    // Goodbye is best-effort; the close below is what matters.
  }
  close();
}

void LabelingClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffered_.clear();
  reader_ = FrameReader(limits_);
  // In-flight traces will never get their responses on this connection.
  pending_traces_.clear();
  pending_connect_ns_ = 0;
}

void LabelingClient::write_all(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    if (fault::should_fail(FaultSite::NetDisconnect)) {
      close();
      transport_error("write failed: injected disconnect");
    }
    std::size_t chunk = size - sent;
    // Injected short write: hand the kernel one byte, exactly as a full
    // socket buffer would — the loop must finish the frame regardless.
    if (chunk > 1 && fault::should_fail(FaultSite::NetWriteShort)) chunk = 1;
    // MSG_NOSIGNAL: a peer reset must surface as the documented
    // runtime_error, not a process-killing SIGPIPE.
    const ssize_t wrote = ::send(fd_, data + sent, chunk, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      const std::string detail = std::strerror(errno);
      close();  // half-dead fd must not survive for a retry to trip over
      transport_error("write failed: " + detail);
    }
    sent += static_cast<std::size_t>(wrote);
  }
}

LabelingClient::ReadOutcome LabelingClient::try_read_message(WireMessage& out,
                                                             const Deadline& deadline,
                                                             std::string& detail) {
  if (!connected()) {
    detail = "not connected";
    return ReadOutcome::Disconnected;
  }
  DecodeResult result;
  // Time the successful decode for the ClientDeserialize span; the clock
  // is only read while a traced request is actually in flight.
  const bool measure_decode = !pending_traces_.empty();
  std::uint64_t decode_start = measure_decode ? obs::steady_now_ns() : 0;
  while (!reader_.next(result)) {
    pollfd pfd{fd_, POLLIN, 0};
    const int timeout_ms = remaining_poll_ms(deadline);
    if (timeout_ms == 0) return ReadOutcome::TimedOut;
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal, not a connection fault
      detail = std::string("poll failed: ") + std::strerror(errno);
      close();
      return ReadOutcome::Disconnected;
    }
    if (ready == 0) return ReadOutcome::TimedOut;
    if (fault::should_fail(FaultSite::NetDisconnect)) {
      close();
      detail = "injected disconnect";
      return ReadOutcome::Disconnected;
    }
    std::uint8_t buffer[64 * 1024];
    std::size_t cap = sizeof(buffer);
    // Injected short read: take one byte, as a trickling network would —
    // the frame reader must reassemble regardless.
    if (fault::should_fail(FaultSite::NetReadShort)) cap = 1;
    const ssize_t got = ::read(fd_, buffer, cap);
    if (got > 0) {
      reader_.feed(buffer, static_cast<std::size_t>(got));
      if (measure_decode) decode_start = obs::steady_now_ns();
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    detail = got == 0 ? "server closed the connection"
                      : std::string("read failed: ") + std::strerror(errno);
    close();
    return ReadOutcome::Disconnected;
  }
  if (measure_decode) last_decode_ns_ = obs::steady_now_ns() - decode_start;
  if (!result.ok()) {
    detail = std::string("protocol fault from server bytes: ") + wire_fault_name(result.fault) +
             " (" + result.detail + ")";
    close();
    return ReadOutcome::Disconnected;
  }
  out = std::move(result.message);
  return ReadOutcome::Ok;
}

WireMessage LabelingClient::read_message() {
  WireMessage message;
  std::string detail;
  // No deadline: this path blocks (solve, wait, next) and throws on
  // transport loss; TimedOut is unreachable without a deadline.
  const ReadOutcome outcome = try_read_message(message, Deadline{}, detail);
  if (outcome != ReadOutcome::Ok) transport_error(detail);
  return message;
}

SolveResponse LabelingClient::read_response() {
  while (true) {
    WireMessage message = read_message();
    switch (message.type) {
      case MessageType::Response:
        finish_trace_for(message.response);
        return std::move(message.response);
      case MessageType::Error: {
        const std::string detail = message.error_message;
        const WireFault fault = message.error_fault;
        close();
        transport_error(std::string("server reported ") + wire_fault_name(fault) + ": " +
                        detail);
      }
      case MessageType::Hello:
      case MessageType::HelloAck:
      case MessageType::Request:
      case MessageType::Shutdown:
      case MessageType::StatsRequest:
      case MessageType::StatsReply:
        close();
        transport_error(std::string("unexpected ") + message_type_name(message.type) +
                        " frame from server");
    }
  }
}

}  // namespace lptsp
