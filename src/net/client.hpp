#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace lptsp {

/// How solve_retry() behaves across transient failures: capped exponential
/// backoff with multiplicative jitter, bounded by both an attempt count and
/// the caller's end-to-end request timeout.
struct ClientRetryPolicy {
  int max_attempts = 4;                          ///< total tries (first + retries)
  std::chrono::milliseconds initial_backoff{50};
  std::chrono::milliseconds max_backoff{2000};
  double backoff_multiplier = 2.0;
  /// Each sleep is scaled by a uniform factor in [1-jitter, 1+jitter] so a
  /// fleet of clients does not retry in lockstep.
  double jitter = 0.2;
};

/// Client configuration. The defaults block: both timeouts are 0, so a
/// default-constructed client never gives up on a connect or a request —
/// callers that must not hang on a dead daemon set both budgets.
struct ClientOptions {
  WireLimits wire;
  /// TCP connect + handshake budget. 0 = block indefinitely.
  std::chrono::milliseconds connect_timeout{0};
  /// End-to-end budget for solve_retry() and stats scrapes, spanning every
  /// attempt, backoff sleep, and reconnect. 0 = no deadline (retries still
  /// capped by ClientRetryPolicy::max_attempts).
  std::chrono::milliseconds request_timeout{0};
  ClientRetryPolicy retry;
  /// Seed for the backoff jitter stream (deterministic for tests).
  std::uint64_t jitter_seed = 0x6c707473ULL;
  /// Client-side request tracing. When true, submit() stamps requests
  /// that carry no trace context with a generated sampled 64-bit trace
  /// id and records spans — connect, serialize, send, server-turnaround
  /// (with the server's echoed queue/service timings nested inside),
  /// deserialize — into a client-owned ring exposed via traces(). The
  /// server adopts the same id, so both rings dump one joined trace.
  bool trace = false;
  /// Retained client traces (ring capacity) when `trace` is on.
  std::size_t trace_capacity = 64;
};

/// Blocking lptspd client with a pipelined submit/wait split.
///
/// submit() writes a Request frame and returns immediately; the server
/// answers out of order, so wait(id) reads frames — buffering responses to
/// other ids — until the requested one arrives. solve() is the synchronous
/// convenience for one-at-a-time callers; a throughput-minded caller keeps
/// a window of submits outstanding and drains with next().
///
/// Service-level outcomes (including RejectedOverload backpressure) are
/// ordinary SolveResponse values. Transport and protocol failures — broken
/// connection, handshake mismatch, an Error frame from the server — throw
/// std::runtime_error from the blocking calls (solve, wait, next): once
/// framing is in doubt there is no response stream left to return typed
/// values on.
///
/// Given a budget (wait_for's timeout, ClientOptions::request_timeout),
/// the deadline-aware calls never block forever, and they never throw for
/// transport loss: wait_for() returns a typed SolveStatus::TimedOut or
/// SolveStatus::TransportDisconnected response, and solve_retry() wraps
/// submit + wait_for in reconnect + capped exponential backoff with jitter
/// under one end-to-end request_timeout budget, honouring the server's
/// retry-after hint on RejectedOverload.
class LabelingClient {
 public:
  explicit LabelingClient(const ClientOptions& options = {});
  ~LabelingClient();

  LabelingClient(const LabelingClient&) = delete;
  LabelingClient& operator=(const LabelingClient&) = delete;

  /// Connect and run the Hello/HelloAck handshake. Bounded by
  /// connect_timeout (nonblocking connect + poll); throws on failure.
  void connect(const std::string& host, std::uint16_t port);

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Close and re-connect to the endpoint of the last successful
  /// connect(). Returns false (instead of throwing) when the server is
  /// still unreachable; used by solve_retry between attempts.
  bool reconnect();

  /// Write one Request frame (blocking until the kernel accepts it).
  void submit(const SolveRequest& request);

  /// Next response in arrival order (responses already buffered by an
  /// id-specific wait() are served first, oldest first).
  SolveResponse next();

  /// The response to a specific request id, buffering any others that
  /// arrive before it. Blocks indefinitely; see wait_for for a deadline.
  SolveResponse wait(std::uint64_t id);

  /// wait() with a deadline and typed failure outcomes instead of blocking
  /// forever or throwing: on deadline expiry returns a response with
  /// status TimedOut (the connection stays open — a late reply is buffered
  /// for next() when it eventually arrives); on connection loss or a
  /// protocol fault returns TransportDisconnected (the connection is
  /// closed; reconnect() restores it). timeout <= 0 waits forever.
  SolveResponse wait_for(std::uint64_t id, std::chrono::milliseconds timeout);

  /// submit + wait in one call (blocking, throwing).
  SolveResponse solve(const SolveRequest& request);

  /// submit + wait_for with reconnect and capped exponential backoff with
  /// jitter, all under the end-to-end request_timeout budget. Transport
  /// loss and RejectedOverload (after honouring its retry-after hint) are
  /// retried up to ClientRetryPolicy::max_attempts; the final failure is
  /// returned as its typed response, never thrown.
  SolveResponse solve_retry(const SolveRequest& request);

  /// Scrape the server's metrics snapshot, rendered in
  /// `format`. Responses to still-pipelined requests that arrive first are
  /// buffered for later next()/wait() calls. Throws on transport faults
  /// and on servers that refuse stats frames. `journal_since` (Journal
  /// format only) asks for events with seq > journal_since — the
  /// incremental-scrape cursor.
  std::string stats(StatsFormat format = StatsFormat::Json, std::uint64_t journal_since = 0);

  /// Send a Shutdown frame (server flushes pending responses, then closes)
  /// and close this side. Safe to call with responses still unread —
  /// they are discarded.
  void shutdown();

  /// Close without the protocol goodbye.
  void close();

  /// Client-side trace ring (empty unless ClientOptions::trace is on).
  [[nodiscard]] const obs::TraceRing& traces() const noexcept { return traces_; }

 private:
  /// Typed outcome of one bounded read attempt.
  enum class ReadOutcome { Ok, TimedOut, Disconnected };
  using Deadline = std::optional<std::chrono::steady_clock::time_point>;

  /// Fresh nonzero trace id from a deterministic per-client stream.
  std::uint64_t next_trace_id();
  /// Close the pending client trace for `response` (if any): append the
  /// server-turnaround span, the echoed server timings, and the measured
  /// deserialize time, then retain it in traces_.
  void finish_trace_for(const SolveResponse& response);

  void write_all(const std::uint8_t* data, std::size_t size);
  /// Read until one decoded message is available; throws on EOF/fault.
  WireMessage read_message();
  /// Deadline-bounded read of one message. Never throws: expiry returns
  /// TimedOut (connection intact), EOF/IO/protocol faults close the
  /// connection and return Disconnected with `detail` set.
  ReadOutcome try_read_message(WireMessage& out, const Deadline& deadline, std::string& detail);
  /// Read until a Response frame arrives; Error frames throw.
  SolveResponse read_response();

  ClientOptions options_;
  WireLimits limits_;
  int fd_ = -1;
  FrameReader reader_;
  /// Endpoint of the last successful connect(), for reconnect().
  std::string host_;
  std::uint16_t port_ = 0;
  Rng jitter_rng_;
  /// Responses read while waiting for a different id, oldest first. Scans
  /// are linear; the deque is bounded by the caller's pipeline window.
  std::deque<SolveResponse> buffered_;

  // --- client-side tracing state ---
  std::uint64_t trace_id_state_ = 0;     ///< splitmix stream for next_trace_id()
  std::uint64_t pending_connect_ns_ = 0; ///< last connect duration, spent on the next trace
  std::uint64_t last_decode_ns_ = 0;     ///< duration of the last successful frame decode
  /// Traces for submitted-but-unanswered requests, submit order. Linear
  /// scans, bounded by the caller's pipeline window (like buffered_).
  struct PendingTrace {
    std::uint64_t id = 0;
    std::uint64_t sent_ns = 0;  ///< steady_now_ns() when the frame was fully written
    obs::Trace trace;
  };
  std::vector<PendingTrace> pending_traces_;
  obs::TraceRing traces_;
};

}  // namespace lptsp
