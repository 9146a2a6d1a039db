#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

/// Per-request stage tracing for the batch labeling service.
///
/// A Trace is a flat list of spans over one request's lifetime:
/// queue-wait -> canonicalize -> cache-lookup -> reduction -> engine-race
/// (plus one nested span per racing engine, tagged with the winner) ->
/// verify -> store write-through. Spans are produced by RAII SpanScope
/// over steady_clock; the solver retains traces slower than a configured
/// threshold in a bounded ring, dumpable as JSON for slow-request
/// forensics. Span names are static strings (stage enum + engine names),
/// so building a span never allocates; the spans vector itself is
/// reserved once per request.
namespace lptsp::obs {

/// Pipeline stage a span measures. Names feed both the trace JSON and the
/// per-stage registry histograms.
enum class Stage : std::uint8_t {
  QueueWait,      ///< submit() admission -> worker picks the task up
  Canonicalize,   ///< WL refinement canonical form
  CacheLookup,    ///< result-cache probe
  Reduction,      ///< reduction-cache probe + all-pairs BFS on a miss
  EngineRace,     ///< portfolio race (or pinned-engine run)
  EngineAttempt,  ///< one engine inside the race (nested under EngineRace)
  Verify,         ///< labeling reconstruction + validity check
  StoreWrite,     ///< cache insert + durable write-through
  CoalescedWait,  ///< joined an identical in-flight solve
  // Client-side stages (LabelingClient): one joined trace spans both
  // processes when the wire carries the trace context.
  ClientConnect,      ///< TCP connect + Hello/HelloAck handshake
  ClientSerialize,    ///< request encode into the wire frame
  ClientSend,         ///< write_all of the encoded frame
  ServerTurnaround,   ///< send complete -> response frame decoded
  ClientDeserialize,  ///< response frame decode
  // Server-reported stages, synthesized on the client from the timings
  // the Response echoes back (nested under ServerTurnaround).
  ServerQueue,    ///< server-side queue wait (echoed)
  ServerService,  ///< server-side service time (echoed)
};

/// Compile-checked stage names (no default + -Werror=switch: an unnamed
/// new enumerator fails the build, not the trace dump).
constexpr const char* stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::QueueWait: return "queue-wait";
    case Stage::Canonicalize: return "canonicalize";
    case Stage::CacheLookup: return "cache-lookup";
    case Stage::Reduction: return "reduction";
    case Stage::EngineRace: return "engine-race";
    case Stage::EngineAttempt: return "engine";
    case Stage::Verify: return "verify";
    case Stage::StoreWrite: return "store-write";
    case Stage::CoalescedWait: return "coalesced-wait";
    case Stage::ClientConnect: return "client-connect";
    case Stage::ClientSerialize: return "client-serialize";
    case Stage::ClientSend: return "client-send";
    case Stage::ServerTurnaround: return "server-turnaround";
    case Stage::ClientDeserialize: return "client-deserialize";
    case Stage::ServerQueue: return "server-queue";
    case Stage::ServerService: return "server-service";
  }
  return "unknown";  // out-of-range cast, not a missing enumerator
}

/// One timed interval. `start_ns` is relative to the trace origin.
struct Span {
  Stage stage = Stage::Canonicalize;
  const char* detail = nullptr;  ///< engine name on EngineAttempt spans
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  bool winner = false;  ///< EngineAttempt: this engine won the race
  /// Nested spans (per-engine attempts) run concurrently inside their
  /// EngineRace parent; "stage spans sum to ~wall time" only holds over
  /// non-nested spans.
  bool nested = false;
};

/// Monotonic nanoseconds (steady_clock since its epoch).
[[nodiscard]] inline std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// One request's spans. Plain data; the solver fills request_id/origin up
/// front and total/result when the response is built.
struct Trace {
  std::uint64_t request_id = 0;
  /// Cross-process trace id (0 = none). Carried on wire Requests so
  /// the client-side and server-side rings can be joined on one id.
  std::uint64_t trace_id = 0;
  /// Sampled traces bypass the ring's slow threshold: a client that set
  /// the sampled bit asked for this trace to be retained end to end.
  bool sampled = false;
  std::uint64_t origin_ns = 0;  ///< steady_now_ns() at request start
  std::uint64_t total_ns = 0;
  const char* result = "";  ///< response source, or the failure status
  std::vector<Span> spans;
};

/// RAII span: measures construction -> destruction (or finish()) and
/// appends to the trace. A null trace disables the scope entirely —
/// including the clock reads, which is what makes the metrics-off
/// configuration genuinely free.
class SpanScope {
 public:
  SpanScope(Trace* trace, Stage stage, const char* detail = nullptr) noexcept
      : trace_(trace), stage_(stage), detail_(detail),
        start_ns_(trace != nullptr ? steady_now_ns() : 0) {}

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  ~SpanScope() { finish(); }

  /// Close the span early (idempotent).
  void finish() {
    if (trace_ == nullptr) return;
    const std::uint64_t end = steady_now_ns();
    trace_->spans.push_back(
        {stage_, detail_, start_ns_ - trace_->origin_ns, end - start_ns_, false, false});
    trace_ = nullptr;
  }

 private:
  Trace* trace_;
  Stage stage_;
  const char* detail_;
  std::uint64_t start_ns_;
};

/// Bounded ring of the most recent traces at least `threshold_ns` slow.
/// keep() runs once per request *after* the response is built (off the
/// latency-critical path) and under a mutex — contention is bounded by
/// how many traces actually clear the threshold.
class TraceRing {
 public:
  struct Config {
    std::size_t capacity = 64;       ///< retained traces (0 disables retention)
    std::uint64_t threshold_ns = 0;  ///< keep traces with total_ns >= this
  };

  TraceRing() : TraceRing(Config{}) {}
  explicit TraceRing(const Config& config) : config_(config) {}

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Retain `trace` if it clears the threshold (sampled traces always
  /// clear it), evicting the oldest retained trace past capacity.
  void keep(Trace&& trace);

  [[nodiscard]] std::size_t size() const;

  /// Copies of the retained traces, oldest first.
  [[nodiscard]] std::vector<Trace> snapshot() const;

  /// JSON array of the retained traces, oldest first:
  /// [{"id":..,"total_ns":..,"result":"..","spans":[{"stage":"..",
  ///   "detail":"..","start_ns":..,"duration_ns":..,"winner":..,
  ///   "nested":..},...]},...]
  [[nodiscard]] std::string dump_json() const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  Config config_;
  mutable std::mutex mutex_;
  std::deque<Trace> ring_;
};

}  // namespace lptsp::obs
