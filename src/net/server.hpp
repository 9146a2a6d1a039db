#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "service/batch_solver.hpp"

namespace lptsp {

/// lptspd: the batch labeling service behind a socket.
///
/// A poll(2)-based single-acceptor event loop owns every connection: it
/// parses length-prefixed wire frames, hands admitted requests to
/// BatchSolver::submit_async, and writes completions back in whatever
/// order the solver finishes them (clients match responses to requests by
/// id). The loop itself never solves anything and never blocks on the
/// solver, so one slow instance cannot stall the accept path.
///
/// The server enforces only per-connection backpressure: at most
/// `max_inflight_per_connection` requests submitted-but-unanswered, and at
/// most `max_queued_bytes_per_connection` of encoded responses waiting for
/// a slow reader, each answered with a typed SolveStatus::RejectedOverload
/// carrying the solver's retry_after_hint() instead of unbounded
/// buffering. Every service-wide overload decision (the pending-request
/// and work-priced gates, the heuristic-only brownout rung, the
/// retry-after hint) belongs to the BatchSolver passed in — configure it
/// there; its rejections reach the client untouched.
///
/// Protocol-level faults (bad magic, truncated or malformed frames) are
/// answered with an Error frame and the connection is closed — the length
/// prefixes of a stream that produced one bad frame cannot be trusted.
/// Wire decoding is exception-free by construction, so no client bytes
/// can unwind the event loop.
class LabelingServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; read the chosen one via port()
    int backlog = 64;
    int max_connections = 64;
    std::size_t max_inflight_per_connection = 64;
    std::size_t max_queued_bytes_per_connection = std::size_t{4} << 20;
    WireLimits wire;
  };

  /// Monotonic observability counters (queue depth lives on the solver:
  /// BatchSolver::pending_requests / rejected_overload). The same values
  /// are published as net_* metrics in the solver's registry; this struct
  /// remains the in-process accessor.
  struct Counters {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_refused = 0;  ///< over max_connections
    std::uint64_t frames_received = 0;
    std::uint64_t requests_submitted = 0;
    std::uint64_t responses_sent = 0;
    std::uint64_t rejected_inflight = 0;    ///< per-connection in-flight cap
    std::uint64_t rejected_backlog = 0;     ///< per-connection output-bytes cap
    std::uint64_t protocol_errors = 0;      ///< Error frames sent
    std::uint64_t bytes_in = 0;             ///< raw socket bytes read
    std::uint64_t bytes_out = 0;            ///< raw socket bytes written
    std::uint64_t stats_requests = 0;       ///< StatsRequest frames served
  };

  /// The solver must outlive the server.
  explicit LabelingServer(BatchSolver& solver) : LabelingServer(solver, Options{}) {}
  LabelingServer(BatchSolver& solver, const Options& options);
  ~LabelingServer();

  LabelingServer(const LabelingServer&) = delete;
  LabelingServer& operator=(const LabelingServer&) = delete;

  /// Bind, listen, and run the event loop on a background thread. Throws
  /// precondition_error when the address cannot be bound (local
  /// configuration error, not wire input).
  void start();

  /// Stop accepting, close every connection, join the loop thread.
  /// In-flight solves finish on the solver's pools; their completions are
  /// dropped. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_.load(std::memory_order_acquire); }

  /// Port actually bound (after start(); useful with port = 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] Counters counters() const;

  /// Connections currently open (gauge).
  [[nodiscard]] std::size_t open_connections() const noexcept {
    return open_connections_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection;
  struct CompletionQueue;

  void event_loop();
  void accept_new_connections();
  void drain_completions();
  void handle_readable(Connection& connection);
  void handle_frame(Connection& connection, WireMessage&& message);
  void handle_request(Connection& connection, SolveRequest&& request);
  void handle_stats_request(Connection& connection, StatsFormat format, std::uint64_t since);
  /// Encode an Error frame, bump protocol_errors_ + the per-fault counter,
  /// and mark the connection closing.
  void send_fault(Connection& connection, WireFault fault, const std::string& detail);
  void flush_writes(Connection& connection);
  void close_connection(std::uint64_t connection_id);
  /// Publish net_* counters and the open-connections gauge into the
  /// solver's registry (constructor; the destructor deregisters).
  void register_metrics();

  BatchSolver& solver_;
  Options options_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread loop_thread_;

  // Completions cross from solver worker threads into the event loop via
  // this queue + a wake pipe. It is shared_ptr-owned because solver
  // callbacks may still fire after the server object is destroyed; they
  // hold the queue alive and find it closed.
  std::shared_ptr<CompletionQueue> completions_;

  // Event-loop-owned state (only touched by loop_thread_ once started).
  struct LoopState;
  std::unique_ptr<LoopState> loop_;

  std::atomic<std::size_t> open_connections_{0};
  // obs::Counter storage backs both counters() and the registry's net_*
  // metrics — one set of numbers, two consumers.
  obs::Counter connections_accepted_;
  obs::Counter connections_refused_;
  obs::Counter frames_received_;
  obs::Counter requests_submitted_;
  obs::Counter responses_sent_;
  obs::Counter rejected_inflight_;
  obs::Counter rejected_backlog_;
  obs::Counter protocol_errors_;
  obs::Counter bytes_in_;
  obs::Counter bytes_out_;
  obs::Counter stats_requests_;
  /// Error frames sent, by WireFault (index = fault value; the None slot
  /// is never incremented but keeps indexing trivial).
  std::array<obs::Counter, 7> wire_faults_;
};

}  // namespace lptsp
