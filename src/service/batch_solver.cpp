#include "service/batch_solver.hpp"

#include <algorithm>
#include <utility>

#include "core/order_labeling.hpp"
#include "core/reduction.hpp"
#include "graph/operations.hpp"
#include "obs/journal.hpp"
#include "store/backend.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace lptsp {

namespace {

/// Requests pinning an engine live in their own cache/coalescing
/// namespace: "run Held-Karp" must not be answered with a cached
/// ChainedLK labeling (or vice versa), even though both label the same
/// instance. Portfolio requests (no pin) share the '\0' namespace.
void append_engine_tag(std::string& key, const std::optional<Engine>& engine) {
  key.push_back('E');
  key.push_back(engine.has_value() ? static_cast<char>(1 + static_cast<int>(*engine)) : '\0');
}

/// Join every future before letting the first exception escape: the tasks
/// write into the caller's frame, so abandoning one on unwind would leave
/// it racing a destroyed stack.
void join_all(std::vector<std::future<void>>& tasks) {
  std::exception_ptr first_error;
  for (auto& task : tasks) {
    try {
      task.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

BatchSolver::BatchSolver(const Options& options)
    : options_(options),
      traces_(obs::TraceRing::Config{
          options.trace_capacity,
          static_cast<std::uint64_t>(options.trace_threshold.count()) * 1'000'000}),
      cache_(options.cache),
      tuner_(options.tuner),
      engine_pool_(options.engine_workers),
      portfolio_(engine_pool_, options.portfolio),
      request_pool_(options.request_workers) {
  tuner_.attach_key_profile(&key_profile_);
  if (options_.tuner.enabled) portfolio_.attach_tuner(&tuner_);
  if (!options_.store_path.empty()) {
    PersistentBackend::Options store_options;
    store_options.path = options_.store_path;
    store_options.sync_every_put = options_.store_sync_every_put;
    store_options.degraded_after_failures = options_.store_degraded_after_failures;
    store_options.reopen_probe_interval = options_.store_reopen_probe_interval;
    std::string error;
    backend_ = PersistentBackend::open(store_options, error);
    LPTSP_REQUIRE(backend_ != nullptr, "cannot open durable store: " + error);
    // With the cache disabled, results are neither written through nor
    // served, so skip attaching and the per-record re-verification of a
    // warm load — the store still carries the tuner state (engine-choice
    // learning is independent of result caching).
    if (options_.use_cache) {
      cache_.attach_backend(backend_);
      warm_stats_ = cache_.warm_from_disk();
    }
    // Pre-trim and effort resume where the last process left off; restore()
    // caps the scores, so a heuristic-heavy record decays away.
    if (auto state = backend_->load_tuner_state()) {
      tuner_.restore(*state);
      checkpointed_ = std::move(state);
    }
  }
  register_metrics();
}

void BatchSolver::register_metrics() {
  registry_.register_counter("requests_total", &requests_total_, this);
  registry_.register_counter("requests_coalesced", &requests_coalesced_, this);
  registry_.register_counter("engine_solves", &engine_solves_, this);
  registry_.register_counter("rejected_overload", &rejected_overload_, this);
  registry_.register_counter("rejected_work_priced", &rejected_work_priced_, this);
  registry_.register_counter("brownout_sheds", &brownout_sheds_, this);
  registry_.register_gauge(
      "brownout_level", [this] { return static_cast<std::int64_t>(portfolio_.heuristic_only()); },
      this);
  registry_.register_gauge(
      "pending_requests", [this] { return static_cast<std::int64_t>(pending_requests()); }, this);
  registry_.register_gauge(
      "pending_work_ns", [this] { return static_cast<std::int64_t>(pending_work_ns()); }, this);
  // Warm-load outcome as gauges: fixed after construction, but gauges keep
  // them out of rate() queries where a counter would mislead.
  registry_.register_gauge(
      "warm_loaded", [this] { return static_cast<std::int64_t>(warm_stats_.loaded); }, this);
  registry_.register_gauge(
      "warm_rejected", [this] { return static_cast<std::int64_t>(warm_stats_.rejected); }, this);
  registry_.register_histogram("request_ns", &request_ns_, this);
  registry_.register_histogram("queue_wait_ns", &queue_wait_ns_, this);
  registry_.register_histogram("canonical_ns", &canonical_ns_, this);
  registry_.register_histogram("cache_lookup_ns", &cache_lookup_ns_, this);
  registry_.register_histogram("reduction_ns", &reduction_ns_, this);
  registry_.register_histogram("engine_race_ns", &engine_race_ns_, this);
  registry_.register_histogram("verify_ns", &verify_ns_, this);
  registry_.register_histogram("store_put_ns", &store_put_ns_, this);
  registry_.register_histogram("coalesced_wait_ns", &coalesced_wait_ns_, this);
  cache_.register_metrics(registry_);
  portfolio_.register_metrics(registry_);
  tuner_.register_metrics(registry_, this);
  slo_.register_into(registry_, this);
  registry_.register_gauge(
      "profile_keys_tracked", [this] { return static_cast<std::int64_t>(key_profile_.size()); },
      this);
  registry_.register_counter("profile_key_evictions", &key_profile_.evictions_counter(), this);
  if (backend_ != nullptr) backend_->register_metrics(registry_);
}

BatchSolver::~BatchSolver() {
  // Drain in-flight requests BEFORE checkpointing: a race finishing during
  // shutdown still reports to the tuner, and with the pool quiesced the
  // checkpoint captures every observation. (Member destruction then
  // re-drains a by-now-empty pool — request_pool_ is declared last for
  // that reason.)
  if (backend_ != nullptr) {
    request_pool_.drain();
    checkpoint_tuner();
  }
}

void BatchSolver::checkpoint_tuner() {
  // A disabled tuner holds defaults, not what an earlier run learned.
  if (backend_ == nullptr || !tuner_.enabled()) return;
  // Snapshot under the lock, so racing checkpoints never write an older
  // state over a newer one. An unchanged state appends nothing; a refused
  // or failed write leaves checkpointed_ as it was, so the next call retries.
  const std::lock_guard lock(checkpoint_mutex_);
  TunerState state = tuner_.snapshot();
  if (state == checkpointed_) return;
  if (backend_->put_tuner_state(state)) checkpointed_ = std::move(state);
}

std::int64_t BatchSolver::race_budget_ms(const SolveRequest& request) const noexcept {
  if (request.engine.has_value()) return 0;
  return request.deadline.count() > 0 ? request.deadline.count()
                                      : options_.portfolio.deadline.count();
}

BatchSolver::CanonicalOutcome BatchSolver::solve_canonical(
    const Graph& graph, const CanonicalForm& form, const PVec& p,
    const std::optional<Engine>& engine, std::int64_t budget_ms, obs::Trace* trace) {
  CanonicalOutcome out;
  if (graph.n() == 0) {
    out.status = SolveStatus::EmptyGraph;
    out.message = status_message(out.status, 0, p);
    return out;
  }

  // Inexact canonical forms (individualization budget exhausted) are valid
  // relabelings of THIS graph but not cross-request invariants, so they
  // must never touch the shared cache.
  const bool cacheable = options_.use_cache && form.exact;
  std::string rkey;
  if (cacheable) {
    rkey = result_key(form, p);
    append_engine_tag(rkey, engine);
  }
  // A deadline-truncated non-optimal hit is kept as `floor` rather than
  // served when this request brings strictly more budget: the re-solve may
  // upgrade it, but the cached result remains the fallback and the
  // quality floor — an unluckier re-race can never degrade the cache.
  std::shared_ptr<const ResultEntry> floor;
  if (cacheable) {
    const obs::SpanScope span(trace, obs::Stage::CacheLookup);
    if (auto entry = cache_.find_result(rkey)) {
      const bool upgradeable = !entry->optimal && entry->deadline_ms != 0 &&
                               (budget_ms == 0 || budget_ms > entry->deadline_ms);
      if (!upgradeable) {
        out.status = SolveStatus::Ok;
        out.entry = std::move(entry);
        out.result_cached = true;
        // A deadline-bounded request served from cache met its deadline
        // with (essentially) the full budget as slack.
        if (options_.profile && budget_ms > 0) slo_.record_cache_hit(budget_ms);
        return out;
      }
      floor = std::move(entry);
    }
  }

  obs::SpanScope reduction_span(trace, obs::Stage::Reduction);
  const Graph canon = relabel(graph, form.to_canonical);
  std::shared_ptr<const ReductionEntry> reduction;
  if (cacheable) {
    reduction = cache_.find_reduction(graph_key(form));
    out.reduction_cached = reduction != nullptr;
  }
  if (!reduction) {
    DistanceMatrix dist = all_pairs_distances(canon, 1);
    const bool connected = dist.all_finite();
    const int diameter = connected ? dist.max_finite() : 0;
    reduction = std::make_shared<const ReductionEntry>(
        ReductionEntry{std::move(dist), diameter, connected});
    if (cacheable) cache_.put_reduction(graph_key(form), reduction);
  }
  reduction_span.finish();

  // Classify off the entry's cached connected/diameter fields: a reduction
  // hit must not pay classify_labeling_request's O(n^2) matrix re-scans.
  out.status = !reduction->connected          ? SolveStatus::Disconnected
               : reduction->diameter > p.k()  ? SolveStatus::DiameterExceedsK
               : !p.satisfies_reduction_condition() ? SolveStatus::MetricConditionViolated
                                                    : SolveStatus::Ok;
  if (out.status != SolveStatus::Ok) {
    out.message = status_message(out.status, reduction->diameter, p);
    return out;
  }

  MetricInstance instance = instance_from_distances(reduction->dist, p);
  engine_solves_.add();

  std::shared_ptr<const ResultEntry> entry;
  if (engine.has_value()) {
    // Pinned engine: run the classic single-engine pipeline on the cached
    // reduction (borrowed, not copied).
    SolveOptions solve_options;
    solve_options.engine = *engine;
    solve_options.seed = options_.seed;
    const obs::SpanScope race_span(trace, obs::Stage::EngineRace, engine_name_cstr(*engine));
    try {
      SolveResult result = solve_labeling_injected(canon, p, instance, reduction->dist,
                                                   solve_options);
      entry = std::make_shared<const ResultEntry>(ResultEntry{
          std::move(result.labeling.labels), result.span, result.optimal, *engine, 0});
    } catch (const precondition_error& e) {
      out.status = SolveStatus::EngineFailure;
      out.message = e.what();
      return out;
    }
  } else {
    const std::uint64_t race_begin = trace != nullptr ? obs::steady_now_ns() : 0;
    PortfolioOutcome raced = portfolio_.race(instance, std::chrono::milliseconds{budget_ms});
    if (options_.profile) {
      // race() times itself unconditionally, so attribution adds no clock
      // reads — one shard-mutex touch for the key table, relaxed adds and
      // (rarely) the ring mutex for the SLO.
      const auto race_ns = static_cast<std::uint64_t>(raced.seconds * 1e9);
      const bool had_deadline = budget_ms > 0;
      const bool deadline_hit =
          !had_deadline || race_ns <= static_cast<std::uint64_t>(budget_ms) * 1'000'000ULL;
      key_profile_.record(form.hash, form.n, race_ns, engine_name_cstr(raced.winner),
                          had_deadline, deadline_hit);
      if (had_deadline) slo_.record(race_ns, budget_ms);
    }
    if (trace != nullptr) {
      const std::uint64_t race_start = race_begin - trace->origin_ns;
      trace->spans.push_back({obs::Stage::EngineRace, nullptr, race_start,
                              obs::steady_now_ns() - race_begin, false, false});
      // One nested span per racing engine, synthesized from the attempt
      // records (the engines themselves run on pool workers and never see
      // the trace). They overlap their EngineRace parent, hence `nested`.
      for (const EngineAttempt& attempt : raced.attempts) {
        trace->spans.push_back({obs::Stage::EngineAttempt, engine_name_cstr(attempt.engine),
                                race_start,
                                static_cast<std::uint64_t>(attempt.seconds * 1e9),
                                raced.solution.cost >= 0 && attempt.engine == raced.winner,
                                true});
      }
    }
    if (raced.solution.cost < 0) {
      if (floor) {
        out.status = SolveStatus::Ok;
        out.entry = std::move(floor);
        out.result_cached = true;
        return out;
      }
      out.status = SolveStatus::EngineFailure;
      out.message = "no portfolio engine produced a verified solution";
      return out;
    }
    obs::SpanScope verify_span(trace, obs::Stage::Verify);
    Labeling labeling = labeling_from_order(instance, raced.solution.order);
    const bool verified = labeling.span() == raced.solution.cost &&
                          is_valid_labeling(canon, reduction->dist, p, labeling);
    verify_span.finish();
    if (!verified) {
      if (floor) {
        out.status = SolveStatus::Ok;
        out.entry = std::move(floor);
        out.result_cached = true;
        return out;
      }
      out.status = SolveStatus::EngineFailure;
      out.message = "portfolio result failed verification";
      return out;
    }
    if (floor && floor->span < raced.solution.cost) {
      // The bigger budget lost the race to the cached incumbent; keep the
      // cached labeling, but record the larger budget so identical
      // requests stop retrying a hopeless upgrade.
      entry = std::make_shared<const ResultEntry>(
          ResultEntry{floor->labels, floor->span, floor->optimal, floor->engine, budget_ms});
    } else {
      entry = std::make_shared<const ResultEntry>(ResultEntry{std::move(labeling.labels),
                                                              raced.solution.cost, raced.optimal,
                                                              raced.winner, budget_ms});
    }
  }

  out.status = SolveStatus::Ok;
  out.entry = entry;
  // The durable overload writes the entry through to the store (when one
  // is attached) with its canonical graph and p, making the persisted
  // record self-verifying on the next start.
  if (cacheable) {
    const obs::SpanScope span(trace, obs::Stage::StoreWrite);
    cache_.put_result(rkey, canon, p, std::move(entry));
  }
  return out;
}

BatchSolver::CanonicalOutcome BatchSolver::solve_canonical_coalesced(
    const Graph& graph, const CanonicalForm& form, const PVec& p,
    const std::optional<Engine>& engine, std::int64_t budget_ms, obs::Trace* trace) {
  const bool cacheable = options_.use_cache && form.exact;
  if (!cacheable) return solve_canonical(graph, form, p, engine, budget_ms, trace);

  // Pinned-engine requests only coalesce with requests pinning the same
  // engine (a portfolio answer is not a substitute for "run Held-Karp"),
  // and requests only coalesce within the same race budget — a 50ms
  // request must not block on an in-flight unlimited solve.
  std::string key = result_key(form, p);
  append_engine_tag(key, engine);
  key.push_back('D');
  key += std::to_string(budget_ms);

  std::promise<CanonicalOutcome> promise;
  std::shared_future<CanonicalOutcome> shared;
  bool leader = false;
  {
    const std::lock_guard lock(inflight_mutex_);
    const auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      shared = it->second;
    } else {
      shared = promise.get_future().share();
      inflight_.emplace(key, shared);
      leader = true;
    }
  }

  if (!leader) {
    // The registrant is currently running on some worker and never blocks
    // on this pool, so waiting here cannot deadlock.
    const obs::SpanScope span(trace, obs::Stage::CoalescedWait);
    requests_coalesced_.add();
    CanonicalOutcome out = shared.get();
    out.coalesced = true;
    return out;
  }

  CanonicalOutcome out;
  try {
    out = solve_canonical(graph, form, p, engine, budget_ms, trace);
  } catch (...) {
    promise.set_exception(std::current_exception());
    const std::lock_guard lock(inflight_mutex_);
    inflight_.erase(key);
    throw;
  }
  promise.set_value(out);
  {
    const std::lock_guard lock(inflight_mutex_);
    inflight_.erase(key);
  }
  return out;
}

SolveResponse BatchSolver::respond(const SolveRequest& request, const CanonicalForm& form,
                                   const CanonicalOutcome& outcome,
                                   ResponseSource fallback_source, double seconds) const {
  SolveResponse response;
  response.id = request.id;
  response.status = outcome.status;
  response.message = outcome.message;
  response.reduction_cached = outcome.reduction_cached;
  response.seconds = seconds;
  if (outcome.result_cached) {
    response.source = ResponseSource::ResultCache;
  } else if (outcome.coalesced) {
    response.source = ResponseSource::Coalesced;
  } else {
    response.source = fallback_source;
  }
  if (outcome.status == SolveStatus::Ok) {
    response.labeling.labels = map_labels_from_canonical(form, outcome.entry->labels);
    response.span = outcome.entry->span;
    response.optimal = outcome.entry->optimal;
    response.engine = outcome.entry->engine;
  }
  return response;
}

SolveResponse BatchSolver::solve_one(const SolveRequest& request) {
  return solve_one_timed(request, 0);
}

SolveResponse BatchSolver::solve_one_timed(const SolveRequest& request,
                                           std::uint64_t enqueued_ns) {
  const Timer timer;
  requests_total_.add();
  obs::Trace trace;
  obs::Trace* tp = nullptr;
  std::uint64_t queue_ns = 0;
  if (options_.metrics) {
    tp = &trace;
    trace.request_id = request.id;
    // Adopt the client's trace context: the ring then holds the server
    // half of a joined cross-process trace, and a sampled id
    // bypasses the slow threshold so the client's ask is honored.
    trace.trace_id = request.trace_id;
    trace.sampled = request.trace_sampled;
    trace.spans.reserve(8);
    const std::uint64_t now = obs::steady_now_ns();
    // The trace origin is the ADMISSION time when the request was queued:
    // queue wait is part of what the caller experienced, so it belongs in
    // total_ns (and in the slow-trace threshold).
    trace.origin_ns = enqueued_ns != 0 && enqueued_ns < now ? enqueued_ns : now;
    if (trace.origin_ns != now) {
      queue_ns = now - trace.origin_ns;
      trace.spans.push_back({obs::Stage::QueueWait, nullptr, 0, queue_ns, false, false});
    }
  }
  CanonicalForm form;
  {
    const obs::SpanScope span(tp, obs::Stage::Canonicalize);
    form = canonical_form(request.graph, options_.canonical);
  }
  const CanonicalOutcome outcome = solve_canonical_coalesced(
      request.graph, form, request.p, request.engine, race_budget_ms(request), tp);
  SolveResponse response =
      respond(request, form, outcome, ResponseSource::Solved, timer.seconds());
  if (tp != nullptr) {
    // Echo the split the client cannot see: how long its request sat in
    // the queue vs how long the pipeline worked on it.
    response.server_queue_ns = queue_ns;
    response.server_service_ns = obs::steady_now_ns() - trace.origin_ns - queue_ns;
    finish_trace(std::move(trace), response.status == SolveStatus::Ok
                                       ? response_source_name_cstr(response.source)
                                       : status_name_cstr(response.status));
  }
  return response;
}

void BatchSolver::finish_trace(obs::Trace&& trace, const char* result) {
  trace.total_ns = obs::steady_now_ns() - trace.origin_ns;
  trace.result = result;
  request_ns_.record(trace.total_ns);
  for (const obs::Span& span : trace.spans) {
    // Exhaustive by -Werror=switch: adding a Stage forces a routing
    // decision here. Nested engine attempts are routed per-engine by the
    // portfolio's own histograms, not double-counted here.
    switch (span.stage) {
      case obs::Stage::QueueWait: queue_wait_ns_.record(span.duration_ns); break;
      case obs::Stage::Canonicalize: canonical_ns_.record(span.duration_ns); break;
      case obs::Stage::CacheLookup: cache_lookup_ns_.record(span.duration_ns); break;
      case obs::Stage::Reduction: reduction_ns_.record(span.duration_ns); break;
      case obs::Stage::EngineRace: engine_race_ns_.record(span.duration_ns); break;
      case obs::Stage::EngineAttempt: break;
      case obs::Stage::Verify: verify_ns_.record(span.duration_ns); break;
      case obs::Stage::StoreWrite: store_put_ns_.record(span.duration_ns); break;
      case obs::Stage::CoalescedWait: coalesced_wait_ns_.record(span.duration_ns); break;
      // Client-side stages never appear in server-built traces; routing
      // them nowhere (rather than a default) keeps the switch exhaustive.
      case obs::Stage::ClientConnect:
      case obs::Stage::ClientSerialize:
      case obs::Stage::ClientSend:
      case obs::Stage::ServerTurnaround:
      case obs::Stage::ClientDeserialize:
      case obs::Stage::ServerQueue:
      case obs::Stage::ServerService:
        break;
    }
  }
  traces_.keep(std::move(trace));
}

bool BatchSolver::admit(const SolveRequest& request, std::uint64_t& admitted_work_ns) {
  admitted_work_ns = 0;
  const auto reject = [&](const char* gate) {
    // Rejected submissions still count toward requests_total (they got a
    // response), so rejected/total is a meaningful rejection ratio.
    requests_total_.add();
    rejected_overload_.add();
    // Trace-correlated: an incident read can tie "this client's request
    // was refused" to the client-side trace carrying the same id.
    obs::journal().emit(obs::EventType::OverloadReject, obs::EventLevel::Error, gate,
                        request.trace_id);
    return false;
  };
  if (options_.max_pending_requests != 0 &&
      pending_requests_.load(std::memory_order_relaxed) >= options_.max_pending_requests) {
    return reject("pending-requests");
  }
  if (options_.max_pending_work_ns != 0 || options_.tuner.enabled) {
    // Price the request by its size bucket and budget. The canonical key
    // is unknown this early (canonicalization happens on a worker), so the
    // prediction is per-size, not per-key — the hot-key table still feeds
    // it through the tuner's bucket aggregation.
    const std::uint64_t predicted =
        tuner_.predicted_work_ns(request.graph.n(), race_budget_ms(request));
    const std::uint64_t pending = pending_work_ns_.load(std::memory_order_relaxed);
    // An empty queue always admits: one request can never be priced out
    // of an idle service, however expensive it looks.
    if (options_.max_pending_work_ns != 0 && pending != 0 &&
        pending + predicted > options_.max_pending_work_ns) {
      rejected_work_priced_.add();
      return reject("pending-work");
    }
    // Charge the gauge even when only counting (tuner on, work gate off):
    // the retry-after hint reads it either way.
    pending_work_ns_.fetch_add(predicted, std::memory_order_relaxed);
    admitted_work_ns = predicted;
  }
  const std::size_t already = pending_requests_.fetch_add(1, std::memory_order_relaxed);
  // Engaging before the request is queued means its own release() runs
  // after the flip, so an engage racing a drain is always re-evaluated.
  if (options_.brownout_heuristic_pending != 0 && already >= options_.brownout_heuristic_pending) {
    set_brownout(true);
  }
  return true;
}

void BatchSolver::release(std::uint64_t admitted_work_ns) noexcept {
  pending_work_ns_.fetch_sub(admitted_work_ns, std::memory_order_relaxed);
  const std::size_t left = pending_requests_.fetch_sub(1, std::memory_order_relaxed) - 1;
  // Hysteresis: release at half the engage threshold, truncated, so a
  // threshold of 1 holds the rung until the queue is empty.
  if (options_.brownout_heuristic_pending != 0 && left <= options_.brownout_heuristic_pending / 2) {
    set_brownout(false);
  }
}

void BatchSolver::set_brownout(bool engaged) noexcept {
  // The portfolio's flag is the rung's only state; its exchange hands each
  // flip to exactly one of the threads racing to make it.
  if (portfolio_.force_heuristic_only(engaged) == engaged) return;
  if (engaged) brownout_sheds_.add();
  // Rung flips are the incident timeline's backbone: the journal answers
  // "when did we start shedding, and when did we recover".
  obs::journal().emit(obs::EventType::BrownoutRung,
                      engaged ? obs::EventLevel::Warn : obs::EventLevel::Info, nullptr, 0, 0,
                      engaged ? 0 : 1, engaged ? 1 : 0);
}

std::uint32_t BatchSolver::retry_after_hint() const noexcept {
  const std::uint32_t base = options_.retry_after_ms;
  if (base == 0) return 0;  // hints disabled
  // Price the hint off the predicted pending work: a client told to retry
  // in `base` ms against a 5-second heavy backlog would only bounce off
  // the gate again. Capped at 60s so one mispredicted monster request
  // cannot park clients for minutes.
  const std::uint64_t work_ms = pending_work_ns() / 1'000'000;
  return static_cast<std::uint32_t>(
      std::max<std::uint64_t>(base, std::min<std::uint64_t>(work_ms, 60'000)));
}

namespace {

SolveResponse overload_response(const SolveRequest& request, std::uint32_t retry_after_ms) {
  SolveResponse response;
  response.id = request.id;
  response.status = SolveStatus::RejectedOverload;
  response.message = status_message(response.status, 0, request.p);
  response.retry_after_ms = retry_after_ms;
  return response;
}

}  // namespace

std::future<SolveResponse> BatchSolver::submit(SolveRequest request) {
  std::uint64_t admitted_work_ns = 0;
  if (!admit(request, admitted_work_ns)) {
    std::promise<SolveResponse> rejected;
    rejected.set_value(overload_response(request, retry_after_hint()));
    return rejected.get_future();
  }
  const std::uint64_t enqueued_ns = options_.metrics ? obs::steady_now_ns() : 0;
  return request_pool_.submit(
      [this, request = std::move(request), enqueued_ns, admitted_work_ns]() -> SolveResponse {
        // Release exactly what admission charged, on every exit path and
        // before the future is ready — a leaked charge would ratchet the
        // gauges up until admission rejected everything.
        try {
          SolveResponse response = solve_one_timed(request, enqueued_ns);
          release(admitted_work_ns);
          return response;
        } catch (...) {
          release(admitted_work_ns);
          throw;
        }
      });
}

void BatchSolver::submit_async(SolveRequest request, std::function<void(SolveResponse)> done) {
  std::uint64_t admitted_work_ns = 0;
  if (!admit(request, admitted_work_ns)) {
    done(overload_response(request, retry_after_hint()));
    return;
  }
  const std::uint64_t enqueued_ns = options_.metrics ? obs::steady_now_ns() : 0;
  request_pool_.submit([this, request = std::move(request), done = std::move(done), enqueued_ns,
                        admitted_work_ns] {
    // The callback must fire exactly once even if the pipeline throws —
    // an event-loop front-end that never hears back would leak an
    // in-flight slot forever.
    SolveResponse response;
    try {
      response = solve_one_timed(request, enqueued_ns);
    } catch (const std::exception& e) {
      response.id = request.id;
      response.status = SolveStatus::EngineFailure;
      response.message = e.what();
    }
    release(admitted_work_ns);
    done(std::move(response));
  });
}

std::string BatchSolver::profile_json() const {
  // Top-K width of the rendered table: enough to dominate any realistic
  // Zipf head while keeping the reply frame small.
  constexpr std::size_t kTopKeys = 16;
  const std::uint64_t uptime_ns = obs::steady_now_ns() - obs::process_start_ns();
  std::string out = "{\"uptime_ns\":" + std::to_string(uptime_ns);
  out += ",\"work\":";
  out += portfolio_.work().to_json(uptime_ns);
  out += ",\"top_keys\":";
  out += key_profile_.to_json(kTopKeys);
  out += ",\"slo\":";
  out += slo_.to_json();
  out += ",\"tuner\":";
  out += tuner_.to_json();
  out.push_back('}');
  return out;
}

std::vector<SolveResponse> BatchSolver::solve_batch(const std::vector<SolveRequest>& requests) {
  const std::size_t count = requests.size();
  std::vector<SolveResponse> responses(count);
  if (count == 0) return responses;
  requests_total_.add(count);

  // Stage 1: canonicalize every request in parallel — this is the
  // order-insensitive identity the dedupe below groups on.
  std::vector<CanonicalForm> forms(count);
  {
    std::vector<std::future<void>> canonical_tasks;
    canonical_tasks.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      canonical_tasks.push_back(request_pool_.submit([this, &requests, &forms, i] {
        forms[i] = canonical_form(requests[i].graph, options_.canonical);
      }));
    }
    join_all(canonical_tasks);
  }

  // Stage 2: group identical (canonical graph, p, pinned engine) requests.
  // Inexact forms get a per-request key, i.e. no grouping.
  struct Group {
    std::vector<std::size_t> members;
    int max_priority = 0;
  };
  std::unordered_map<std::string, std::size_t> group_of;
  std::vector<Group> groups;
  for (std::size_t i = 0; i < count; ++i) {
    std::string key;
    if (forms[i].exact) {
      key = result_key(forms[i], requests[i].p);
      append_engine_tag(key, requests[i].engine);
    } else {
      key = "U";
      key += std::to_string(i);
    }
    const auto [it, inserted] = group_of.emplace(std::move(key), groups.size());
    if (inserted) groups.push_back({});
    Group& group = groups[it->second];
    group.members.push_back(i);
    group.max_priority = group.members.size() == 1
                             ? requests[i].priority
                             : std::max(group.max_priority, requests[i].priority);
  }

  // Stage 3: schedule one solve per group, highest priority first (the
  // request pool is FIFO, so submission order is start order).
  std::vector<std::size_t> schedule(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) schedule[g] = g;
  std::stable_sort(schedule.begin(), schedule.end(), [&](std::size_t a, std::size_t b) {
    return groups[a].max_priority > groups[b].max_priority;
  });

  std::vector<std::future<void>> solve_tasks;
  solve_tasks.reserve(groups.size());
  for (const std::size_t g : schedule) {
    const std::uint64_t enqueued_ns = options_.metrics ? obs::steady_now_ns() : 0;
    solve_tasks.push_back(request_pool_.submit([this, &requests, &forms, &responses, &groups, g,
                                                enqueued_ns] {
      const Timer timer;
      const Group& group = groups[g];
      const std::size_t leader = group.members.front();
      // One trace per group (the group shares one solve). Canonicalization
      // ran batched in stage 1, so these traces start at the solve.
      obs::Trace trace;
      obs::Trace* tp = nullptr;
      if (options_.metrics) {
        tp = &trace;
        trace.request_id = requests[leader].id;
        trace.trace_id = requests[leader].trace_id;
        trace.sampled = requests[leader].trace_sampled;
        trace.spans.reserve(8);
        const std::uint64_t now = obs::steady_now_ns();
        trace.origin_ns = enqueued_ns != 0 && enqueued_ns < now ? enqueued_ns : now;
        if (trace.origin_ns != now) {
          trace.spans.push_back({obs::Stage::QueueWait, nullptr, 0, now - trace.origin_ns, false,
                                 false});
        }
      }
      // The group shares one solve; give it the most generous budget any
      // member resolves to: unlimited (0) if any member's is, else the max.
      std::int64_t budget_ms = 0;
      for (const std::size_t m : group.members) {
        const std::int64_t member = race_budget_ms(requests[m]);
        if (member == 0) {
          budget_ms = 0;
          break;
        }
        budget_ms = std::max(budget_ms, member);
      }
      const CanonicalOutcome outcome = solve_canonical_coalesced(
          requests[leader].graph, forms[leader], requests[leader].p, requests[leader].engine,
          budget_ms, tp);
      const double seconds = timer.seconds();
      for (const std::size_t m : group.members) {
        responses[m] = respond(requests[m], forms[m], outcome,
                               m == leader ? ResponseSource::Solved : ResponseSource::Coalesced,
                               seconds);
      }
      // Deduplicated members share the leader's solve without ever waiting
      // on the in-flight map — count them as coalesced all the same.
      if (group.members.size() > 1) requests_coalesced_.add(group.members.size() - 1);
      if (tp != nullptr) {
        finish_trace(std::move(trace), responses[leader].status == SolveStatus::Ok
                                           ? response_source_name_cstr(responses[leader].source)
                                           : status_name_cstr(responses[leader].status));
      }
    }));
  }
  join_all(solve_tasks);
  return responses;
}

}  // namespace lptsp
