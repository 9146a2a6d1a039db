#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/canonical_key.hpp"
#include "service/portfolio.hpp"
#include "service/request.hpp"
#include "service/solve_cache.hpp"
#include "service/tuner.hpp"
#include "util/thread_pool.hpp"

namespace lptsp {

/// The batch labeling service: the library's single-shot
/// `solve_labeling` grown into a serving layer.
///
/// Pipeline per request:
///   1. canonicalize the graph (WL refinement) — order-insensitive, so
///      isomorphic relabelings of the same instance share one identity;
///   2. result cache probe — a hit skips reduction AND engine, only a
///      label permutation remains;
///   3. reduction cache probe — a hit skips the O(nm) all-pairs BFS;
///   4. precondition classification — bad requests get a typed status,
///      they never throw across the service boundary;
///   5. engine portfolio race (or the request's pinned engine) under the
///      request deadline;
///   6. verified result is cached in canonical space and mapped back to
///      the caller's vertex numbering.
///
/// Batches are deduplicated up front (N isomorphic requests -> 1 solve);
/// single requests submitted through submit() coalesce against identical
/// in-flight work. Two pools keep the pipeline deadlock-free: request
/// tasks run on one, engine races on another, and neither ever blocks on
/// its own pool.
class BatchSolver {
 public:
  struct Options {
    SolveCache::Config cache;
    PortfolioOptions portfolio;
    CanonicalFormOptions canonical;
    unsigned request_workers = 0;  ///< 0 = hardware concurrency
    unsigned engine_workers = 0;   ///< 0 = hardware concurrency
    bool use_cache = true;         ///< false = every request solves fresh
    std::uint64_t seed = 1;        ///< seed for pinned-engine solves
    /// Admission control for the streaming front-ends (submit /
    /// submit_async): when this many requests are already admitted and
    /// not yet answered (pending_requests()), new submissions are answered
    /// immediately with SolveStatus::RejectedOverload instead of growing
    /// the backlog without bound. 0 = unlimited (solve_batch is never
    /// gated: its caller already bounded the batch).
    std::size_t max_pending_requests = 0;
    /// Work-priced admission for the same front-ends: when > 0, a new
    /// submission is priced by the tuner (predicted engine nanoseconds
    /// for its size bucket and deadline) and rejected when the predicted
    /// work already admitted-but-unfinished would exceed this budget.
    /// Expensive requests stop fitting before cheap ones do, so overload
    /// rejects heavies first instead of starving cache-hit traffic. A
    /// request arriving at an empty queue is always admitted (nothing may
    /// be priced out of an idle service). 0 = count-based admission only.
    std::uint64_t max_pending_work_ns = 0;
    /// The learning layer (see src/service/tuner.hpp): decayed exact-skip
    /// pre-trim with re-probe, per-bucket effort tuning, and the
    /// admission cost predictor. tuner.enabled = false leaves the tuner
    /// detached: every race launches the exact engine at 100% effort.
    TunerOptions tuner;
    /// Durable store file (see src/store/): when non-empty, verified solve
    /// results are written through to this append-only log, reloaded and
    /// re-verified on the next start (a restart keeps its hit ratio), and
    /// the tuner's learned state is checkpointed across runs. Created if
    /// absent; opening an existing file with a corrupt header throws
    /// precondition_error (torn tails and bad records are repaired/skipped
    /// silently — they are expected crash debris). With use_cache false
    /// only the tuner state is persisted (results would never be served).
    std::string store_path;
    /// fsync the store after every persisted result. Off by default:
    /// results are re-derivable, so the OS page-cache durability window is
    /// an acceptable trade against paying an fsync per solve.
    bool store_sync_every_put = false;
    /// Consecutive store write failures before the backend flips into
    /// read-only degraded mode (cache-only serving continues; the
    /// store_degraded gauge reports it). <= 0 disables the ladder.
    int store_degraded_after_failures = 3;
    /// While degraded, attempt a reopen/heal at most this often.
    std::chrono::milliseconds store_reopen_probe_interval{1000};
    /// Stage timing and request tracing. Counters are always maintained
    /// (one relaxed add each, unmeasurable); this flag gates only the
    /// steady_clock reads — per-request traces, stage histograms, the
    /// request-latency histogram — which is what the overhead bench
    /// toggles. Off: the slow-trace ring stays empty and latency
    /// histograms stay at zero, but every counter keeps counting.
    bool metrics = true;
    /// Work-attribution profiling: the per-canonical-key hot-graph table
    /// and deadline SLO tracking (see src/obs/profile.hpp). Gates only
    /// the per-request record calls (one shard-mutex touch per engine
    /// race, one slack record per deadline-bounded request); the
    /// engine-work counters themselves are always maintained — counters
    /// always count, same rule as `metrics`.
    bool profile = true;
    /// Slow-trace retention: keep the most recent `trace_capacity` traces
    /// whose end-to-end latency (queue wait included) was at least
    /// `trace_threshold`. Capacity 0 disables retention; threshold 0
    /// retains every request (up to capacity).
    std::size_t trace_capacity = 64;
    std::chrono::milliseconds trace_threshold{0};
  };

  BatchSolver() : BatchSolver(Options{}) {}
  explicit BatchSolver(const Options& options);

  /// Checkpoints the tuner state to the durable store (when one is
  /// configured) before tearing the pipeline down.
  ~BatchSolver();

  BatchSolver(const BatchSolver&) = delete;
  BatchSolver& operator=(const BatchSolver&) = delete;

  /// Solve a batch: dedupe by canonical key, schedule unique instances
  /// across the request pool (higher max-priority groups first), fan the
  /// shared results back out. responses[i] answers requests[i].
  std::vector<SolveResponse> solve_batch(const std::vector<SolveRequest>& requests);

  /// Async front-end for streaming traffic: returns immediately; the
  /// future resolves when the request is served. Identical requests that
  /// are already in flight are coalesced onto the same solve. Subject to
  /// max_pending_requests admission control (a rejected request's future
  /// resolves immediately with RejectedOverload).
  std::future<SolveResponse> submit(SolveRequest request);

  /// Callback flavor of submit() for event-loop front-ends (the socket
  /// server) that cannot block on a future: `done` is invoked exactly once
  /// with the response, on a request-pool worker — or inline, before
  /// submit_async returns, when admission control rejects the request.
  /// `done` must not block on this BatchSolver's own request pool.
  void submit_async(SolveRequest request, std::function<void(SolveResponse)> done);

  /// Convenience synchronous single-request entry point.
  SolveResponse solve_one(const SolveRequest& request);

  [[nodiscard]] const SolveCache& cache() const noexcept { return cache_; }
  [[nodiscard]] EnginePortfolio& portfolio() noexcept { return portfolio_; }
  [[nodiscard]] const EngineTuner& tuner() const noexcept { return tuner_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// The shared metric registry every pipeline component publishes into
  /// (cache, portfolio, store, and this solver's own stage histograms).
  /// Front-ends register their transport counters here too, so one
  /// snapshot() covers the whole process.
  [[nodiscard]] obs::MetricRegistry& metrics_registry() noexcept { return registry_; }

  /// The slow-trace ring (see Options::trace_capacity/trace_threshold).
  [[nodiscard]] const obs::TraceRing& traces() const noexcept { return traces_; }

  /// The per-canonical-key hot-graph table and deadline SLO tracker (see
  /// Options::profile), exposed for tests and monitoring.
  [[nodiscard]] const obs::KeyProfileTable& key_profile() const noexcept { return key_profile_; }
  [[nodiscard]] const obs::SloTracker& slo() const noexcept { return slo_; }

  /// The work-attribution profile as one JSON object — the payload behind
  /// StatsFormat::Profile and lptspd's --profile-json dump:
  /// {"uptime_ns":..,"work":{per-engine totals + rates},
  ///  "top_keys":[hottest canonical keys],"slo":{deadline summary}}.
  /// The schema is a contract (README "Profiling & SLO").
  [[nodiscard]] std::string profile_json() const;

  /// Number of actual engine runs performed (excludes cache hits and
  /// coalesced/deduplicated requests) — the denominator of every
  /// amortization claim, and what the dedupe tests assert on.
  [[nodiscard]] std::uint64_t engine_solves() const noexcept { return engine_solves_.value(); }

  /// Streaming submissions (submit / submit_async) admitted and not yet
  /// answered — the queue-depth gauge admission control reads, exported
  /// for monitoring. A request leaves it before its response is
  /// published, so a caller holding the response never still counts.
  [[nodiscard]] std::size_t pending_requests() const noexcept {
    return pending_requests_.load(std::memory_order_relaxed);
  }

  /// Submissions turned away by admission control since construction.
  [[nodiscard]] std::uint64_t rejected_overload() const noexcept {
    return rejected_overload_.value();
  }

  /// The subset of rejected_overload turned away by the work-priced gate
  /// (max_pending_work_ns), as opposed to the request-count gate.
  [[nodiscard]] std::uint64_t rejected_work_priced() const noexcept {
    return rejected_work_priced_.value();
  }

  /// Predicted engine nanoseconds admitted but not yet finished — the
  /// backlog gauge work-priced admission and the server's retry-after
  /// hint read. Maintained whenever the tuner is enabled (priced at
  /// admission, released on completion), 0 otherwise.
  [[nodiscard]] std::uint64_t pending_work_ns() const noexcept {
    return pending_work_ns_.load(std::memory_order_relaxed);
  }

  /// Outcome of the startup warm load from the durable store (all zeros
  /// when no store is configured).
  [[nodiscard]] const SolveCache::WarmStats& warm_stats() const noexcept { return warm_stats_; }

  /// The durable store backend, or nullptr when persistence is off.
  [[nodiscard]] const std::shared_ptr<PersistentBackend>& store() const noexcept {
    return backend_;
  }

  /// Persist the tuner's learned state now (also done on destruction).
  /// Safe to call while traffic is in flight; no-op without a store,
  /// while the tuner is disabled (so a --no-learn run never overwrites
  /// what an earlier run learned), or when the state equals the one last
  /// written or restored.
  void checkpoint_tuner();

 private:
  /// Result of solving one canonical instance, shareable across all
  /// requests that mapped to it.
  struct CanonicalOutcome {
    SolveStatus status = SolveStatus::EngineFailure;
    std::string message;
    std::shared_ptr<const ResultEntry> entry;  ///< set when status == Ok
    bool reduction_cached = false;
    bool result_cached = false;
    bool coalesced = false;  ///< joined an identical in-flight solve
  };

  CanonicalOutcome solve_canonical(const Graph& graph, const CanonicalForm& form, const PVec& p,
                                   const std::optional<Engine>& engine,
                                   std::chrono::milliseconds deadline, obs::Trace* trace);
  CanonicalOutcome solve_canonical_coalesced(const Graph& graph, const CanonicalForm& form,
                                             const PVec& p, const std::optional<Engine>& engine,
                                             std::chrono::milliseconds deadline,
                                             obs::Trace* trace);
  SolveResponse respond(const SolveRequest& request, const CanonicalForm& form,
                        const CanonicalOutcome& outcome, ResponseSource fallback_source,
                        double seconds) const;

  /// solve_one with queue provenance: `enqueued_ns` (steady_now_ns() at
  /// admission, 0 = not queued / metrics off) becomes the trace origin, so
  /// queue wait is part of the recorded end-to-end latency.
  SolveResponse solve_one_timed(const SolveRequest& request, std::uint64_t enqueued_ns);

  /// Stamp total/result, feed the per-stage histograms, hand the trace to
  /// the slow ring. Only called when metrics are on.
  void finish_trace(obs::Trace&& trace, const char* result);

  /// Publish this solver's own metrics plus every owned component's into
  /// registry_ (constructor tail).
  void register_metrics();

  /// True when the request has admission headroom under BOTH gates (the
  /// request-count bound and, when configured, the work-price budget);
  /// false increments the rejection counters. On admission,
  /// `admitted_work_ns` is the predicted cost charged to the pending-work
  /// gauge — the completion path must release exactly that amount. The
  /// check is racy by design (two concurrent submits may both pass at the
  /// boundary) — the bounds are backpressure valves, not exact
  /// semaphores.
  bool admit(const SolveRequest& request, std::uint64_t& admitted_work_ns);
  /// Undo one admission's charges; runs before the response is published.
  void release(std::uint64_t admitted_work_ns) noexcept;

  // Declaration order doubles as teardown order (reversed): request_pool_
  // is declared LAST so its destructor — which drains still-queued request
  // tasks — runs first, while the engine pool, portfolio, cache, and
  // coalescing state those tasks use are all still alive.
  Options options_;
  // Every registered metric points into members of this object (or the
  // backend it shares), so "metrics outlive snapshots" holds by
  // construction; shorter-lived publishers (the socket server) deregister
  // in their destructors.
  obs::MetricRegistry registry_;
  obs::TraceRing traces_;
  SolveCache cache_;
  std::shared_ptr<PersistentBackend> backend_;  ///< shared with cache_
  /// The tuner state last written to or restored from backend_.
  std::mutex checkpoint_mutex_;
  std::optional<TunerState> checkpointed_;  ///< guarded by checkpoint_mutex_
  SolveCache::WarmStats warm_stats_;
  // Declared before the pools and the portfolio: races finishing during
  // teardown still report into the tuner, so it must be destroyed after
  // them (i.e. constructed before).
  EngineTuner tuner_;
  TaskPool engine_pool_;
  EnginePortfolio portfolio_;
  obs::Counter requests_total_;
  obs::Counter requests_coalesced_;
  obs::Counter engine_solves_;
  obs::Counter rejected_overload_;
  obs::Counter rejected_work_priced_;
  /// Admitted but unanswered requests (see pending_requests()).
  std::atomic<std::size_t> pending_requests_{0};
  /// Predicted ns admitted but not finished (see pending_work_ns()).
  std::atomic<std::uint64_t> pending_work_ns_{0};
  // Per-stage latency histograms, fed from completed traces (metrics on
  // only). request_ns_ is end-to-end including queue wait.
  obs::LatencyHistogram request_ns_;
  obs::LatencyHistogram queue_wait_ns_;
  obs::LatencyHistogram canonical_ns_;
  obs::LatencyHistogram cache_lookup_ns_;
  obs::LatencyHistogram reduction_ns_;
  obs::LatencyHistogram engine_race_ns_;
  obs::LatencyHistogram verify_ns_;
  obs::LatencyHistogram store_put_ns_;
  obs::LatencyHistogram coalesced_wait_ns_;
  // Work-attribution profiling (Options::profile): which canonical graphs
  // eat the engine time, and how the per-request deadlines fared.
  obs::KeyProfileTable key_profile_;
  obs::SloTracker slo_;

  // In-flight coalescing for submit(): maps a result key to the shared
  // outcome of the request currently computing it.
  std::mutex inflight_mutex_;
  std::unordered_map<std::string, std::shared_future<CanonicalOutcome>> inflight_;

  TaskPool request_pool_;
};

}  // namespace lptsp
