#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "core/labeling.hpp"
#include "core/pvec.hpp"
#include "core/solvers.hpp"
#include "graph/graph.hpp"

namespace lptsp {

/// One labeling request submitted to the batch solver: a graph, the
/// constraint vector, and per-request quality-of-service knobs.
struct SolveRequest {
  Graph graph{0};
  PVec p = PVec::L21();
  /// Soft wall-clock budget for the engine race; 0 = use the service
  /// default. The portfolio cancels cancellable engines at the deadline
  /// and returns the best verified result found so far.
  std::chrono::milliseconds deadline{0};
  /// Pin a specific engine instead of racing the portfolio (e.g. for
  /// reproducing a paper experiment through the service front-end).
  std::optional<Engine> engine;
  /// Higher-priority requests are scheduled earlier within a batch.
  int priority = 0;
  /// Caller correlation tag, echoed back verbatim in the response.
  std::uint64_t id = 0;
  /// Cross-process trace context: a client-generated id joining the
  /// client's and server's trace rings. 0 = no context.
  std::uint64_t trace_id = 0;
  /// The client asked for this trace to be retained end to end (bypasses
  /// the server ring's slow threshold).
  bool trace_sampled = false;
};

/// How a response was produced, for observability and cache accounting.
enum class ResponseSource {
  Solved,       ///< a fresh engine run produced the labeling
  ResultCache,  ///< served from the solve cache (no engine ran)
  Coalesced,    ///< deduplicated onto another in-flight identical request
};

/// Compile-checked source names (no default + -Werror=switch: an unnamed
/// new enumerator fails the build, not the log line).
constexpr const char* response_source_name_cstr(ResponseSource source) noexcept {
  switch (source) {
    case ResponseSource::Solved: return "solved";
    case ResponseSource::ResultCache: return "result-cache";
    case ResponseSource::Coalesced: return "coalesced";
  }
  return "unknown";  // out-of-range cast, not a missing enumerator
}

std::string response_source_name(ResponseSource source);

/// Outcome of one SolveRequest. Invalid requests come back with a typed
/// status and message instead of an exception, so one bad graph cannot
/// poison a batch.
struct SolveResponse {
  std::uint64_t id = 0;
  SolveStatus status = SolveStatus::EngineFailure;
  std::string message;            ///< detail when !ok()
  Labeling labeling;              ///< verified L(p)-labeling (when ok())
  Weight span = 0;
  bool optimal = false;           ///< certified optimal by an exact engine
  Engine engine = Engine::ChainedLK;  ///< engine that produced the labels
  ResponseSource source = ResponseSource::Solved;
  bool reduction_cached = false;  ///< the all-pairs BFS was skipped
  double seconds = 0;             ///< wall time spent on this request
  /// RejectedOverload hint: how long the client should back off before
  /// retrying, in milliseconds. 0 = no hint.
  std::uint32_t retry_after_ms = 0;
  /// Server-side timing echo: queue wait and service time in
  /// nanoseconds, so the client can split its observed turnaround into
  /// transit vs server work. 0 = not measured.
  std::uint64_t server_queue_ns = 0;
  std::uint64_t server_service_ns = 0;

  [[nodiscard]] bool ok() const noexcept { return status == SolveStatus::Ok; }
};

inline std::string response_source_name(ResponseSource source) {
  return response_source_name_cstr(source);
}

}  // namespace lptsp
