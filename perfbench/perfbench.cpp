/// The lptsp repository benchmark: three closed-loop workloads, each kept
/// inside one portfolio size bucket (bucket = bit_width(n)) so its latency
/// distribution has a single mode.
///
///   warm_loopback  2 connections over TCP loopback, n=60, every request a
///                  cache hit (half fresh relabelings, half byte-identical
///                  resends): net + canonical_key do the work.
///   cold_race      1 connection over loopback, never-seen n=60 graphs:
///                  reduction + portfolio dispatch/cancel dominate.
///   cold_exact     1 in-process caller (BatchSolver::submit().get()),
///                  never-seen n=17 graphs: the Held-Karp DP dominates.
///
/// A run is a few rounds. Each round builds a fresh service (the timed
/// set-up: solver, server, connections, and cache priming or a tuner
/// warm-up on distinct inputs), then sends the run's request sequence in
/// segments; its length depends only on the workload and --seconds. Every
/// input is generated from --seed before the first round. Pooling several
/// fresh services per run keeps a per-service mode (thread placement, the
/// late race cancel) from deciding a whole run.
///
/// --trace 0 prints the end-to-end metrics: the median latency and the rate
/// of the median segment (of the best one on cold_exact, whose latency has
/// two modes set by the host), and p99 as the median over 1000-request
/// windows (see README.md).
/// --trace 1 alternates untraced
/// and traced rounds: in a traced round the benchmark records spans around
/// each call into a layer's public entry point (the real request, then
/// canonical_form / reduce_to_path_tsp / portfolio race / a standalone
/// exact engine on the same input), prints each layer's self time, writes
/// the spans to --spans, and prints the per-layer metrics. No span comes
/// from inside the program; server queue/service time and engine attempt
/// durations are the program's own echoed measurements.
///
/// The last stdout line is one JSON object:
///   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/labeling.hpp"
#include "core/reduction.hpp"
#include "graph/generators.hpp"
#include "graph/operations.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/batch_solver.hpp"
#include "service/canonical_key.hpp"
#include "tsp/branch_bound.hpp"
#include "tsp/held_karp.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

using namespace lptsp;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Workload { WarmLoopback, ColdRace, ColdExact };

/// Which segment gives a run's median latency and rate (see README.md,
/// "Which segment").
enum class Pick { Median, Best };

struct Spec {
  const char* name;
  Workload kind;
  int n;         ///< vertices of every request graph
  int clients;   ///< closed-loop clients (connections or caller threads)
  int rounds;    ///< fresh set-ups per run
  int segments;  ///< timed segments per round at --seconds kReferenceSeconds
  int segment;   ///< requests per segment, all clients together
  Pick pick;
};

/// p99 is taken over windows of this many consecutive requests of one
/// round, so at least 10 samples lie beyond it.
constexpr int kWindow = 1000;
/// The run length the segment counts below are sized for.
constexpr int kReferenceSeconds = 15;

// Request counts are fixed by --seconds, never by the clock, so the tuner
// sees the same history on every run. A segment is 1000 requests, except
// on cold_exact, where a request takes milliseconds, its latency has two
// modes set by the host, and the fast phases often last only a few dozen
// requests: there the run reports its best segment.
constexpr Spec kSpecs[] = {
    {"warm_loopback", Workload::WarmLoopback, 60, 2, 12, 6, 1000, Pick::Median},
    {"cold_race", Workload::ColdRace, 60, 1, 8, 3, 1000, Pick::Median},
    {"cold_exact", Workload::ColdExact, 17, 1, 3, 60, 25, Pick::Best},
};

/// Generator parameters shared by every workload: the paper's target class
/// (diameter <= 2) at the density the service benches use.
constexpr int kMaxDiameter = 2;
constexpr double kEdgeProb = 0.15;
/// warm_loopback: base graphs primed into the cache during set-up.
constexpr int kWarmBases = 8;
/// Cold set-up: the tuner re-evaluates a bucket's effort once per window
/// of deadline-bounded races; 12 windows take it from 100% to its 400%
/// cap, and the warm-up gives up after kMaxWarmupWindows.
const int kTunerWindow = static_cast<int>(TunerOptions{}.effort_update_every);
constexpr int kMaxWarmupWindows = 16;

bool loopback(const Spec& spec) { return spec.kind != Workload::ColdExact; }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return seed * 0x9e3779b97f4a7c15ULL + a * 0xbf58476d1ce4e5b9ULL + b * 0x94d049bb133111ebULL + 1;
}

SolveRequest make_request(Graph graph, std::uint64_t id) {
  SolveRequest request;
  request.graph = std::move(graph);
  request.p = PVec::L21();
  request.id = id;
  return request;
}

/// One client's timed sequence: indices into `requests`. Resends repeat an
/// index, so the resent request is byte-identical to the earlier one.
struct ClientStream {
  std::vector<SolveRequest> requests;
  std::vector<int> order;
  std::vector<int> base;  ///< warm: base graph of requests[i]; else empty
};

struct Inputs {
  std::vector<SolveRequest> warmup;   ///< cold: distinct set-up inputs
  std::vector<ClientStream> clients;  ///< timed sequences, one per client
};

/// warm_loopback's base pool: the same for every round of a run.
struct WarmBases {
  std::vector<SolveRequest> requests;
  std::vector<Weight> optimum;  ///< certified span of each base
};

WarmBases make_warm_bases(const Spec& spec, std::uint64_t seed) {
  WarmBases bases;
  Rng rng(mix_seed(seed, 0, 0));
  for (int b = 0; b < kWarmBases; ++b) {
    Graph graph = random_with_diameter_at_most(spec.n, kMaxDiameter, kEdgeProb, rng);
    const ReducedInstance reduced = reduce_to_path_tsp(graph, PVec::L21());
    const BranchBoundRun exact = branch_bound_path_run(reduced.instance);
    LPTSP_REQUIRE(exact.completed, "warm base graph could not be certified");
    bases.optimum.push_back(exact.solution.cost);
    bases.requests.push_back(make_request(std::move(graph), static_cast<std::uint64_t>(b) + 1));
  }
  return bases;
}

/// The run's inputs. Every round replays them on a fresh service, so they
/// are never-seen inputs for that service.
Inputs make_inputs(const Spec& spec, const WarmBases& bases, std::uint64_t seed, int per_round) {
  Inputs inputs;
  Rng rng(mix_seed(seed, 1, static_cast<std::uint64_t>(spec.kind) + 1));
  std::uint64_t next_id = 1000;
  if (spec.kind == Workload::WarmLoopback) {
    // Even positions send a fresh relabeling of a random base; odd
    // positions resend one of this client's earlier requests verbatim.
    const int per_client = per_round / spec.clients;
    for (int c = 0; c < spec.clients; ++c) {
      ClientStream stream;
      for (int i = 0; i < per_client; ++i) {
        if (i % 2 == 0) {
          const auto b = rng.uniform_index(bases.requests.size());
          const Graph& base = bases.requests[b].graph;
          stream.requests.push_back(
              make_request(relabel(base, rng.permutation(base.n())), next_id++));
          stream.base.push_back(static_cast<int>(b));
          stream.order.push_back(static_cast<int>(stream.requests.size()) - 1);
        } else {
          stream.order.push_back(static_cast<int>(rng.uniform_index(stream.requests.size())));
        }
      }
      inputs.clients.push_back(std::move(stream));
    }
    return inputs;
  }
  for (int i = 0; i < kMaxWarmupWindows * std::max(1, kTunerWindow); ++i) {
    inputs.warmup.push_back(make_request(
        random_with_diameter_at_most(spec.n, kMaxDiameter, kEdgeProb, rng), next_id++));
  }
  ClientStream stream;
  for (int i = 0; i < per_round; ++i) {
    stream.requests.push_back(make_request(
        random_with_diameter_at_most(spec.n, kMaxDiameter, kEdgeProb, rng), next_id++));
    stream.order.push_back(i);
  }
  inputs.clients.push_back(std::move(stream));
  return inputs;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

enum class Layer : std::uint8_t {
  Net,
  BatchSolver,
  CanonicalKey,
  Reduction,
  Portfolio,
  HeldKarp,
  BranchBound,
  ChainedLk,
};
constexpr int kLayers = 8;
constexpr const char* kLayerNames[kLayers] = {"net",       "batch_solver", "canonical_key",
                                              "reduction", "portfolio",    "held_karp",
                                              "branch_bound", "chained_lk"};

/// How the benchmark obtained a span's interval.
enum class SpanKind : std::uint8_t {
  Call,    ///< timed around a call the request really made
  Echo,    ///< a duration the program reported, placed inside its parent
  Replay,  ///< the layer's entry point called again on the request's input,
           ///< attributed under the pipeline stage that runs it
  Check,   ///< output verification, off the request path
};
constexpr const char* kKindNames[] = {"call", "echo", "replay", "check"};

struct Span {
  const char* name;
  Layer layer;
  SpanKind kind;
  bool blocking;  ///< the request's result waited on this span
  int parent;     ///< index in the same log, -1 = root
  std::uint64_t request;
  std::int64_t start_ns;
  std::int64_t end_ns;

  [[nodiscard]] std::int64_t duration() const { return end_ns - start_ns; }
};

/// Spans recorded by one client thread, kept in memory until the run ends.
struct SpanLog {
  std::vector<Span> spans;

  int add(const char* name, Layer layer, SpanKind kind, bool blocking, int parent,
          std::uint64_t request, std::int64_t start_ns, std::int64_t end_ns) {
    spans.push_back({name, layer, kind, blocking, parent, request, start_ns, end_ns});
    return static_cast<int>(spans.size()) - 1;
  }
};

Layer engine_layer(Engine engine) {
  switch (engine) {
    case Engine::HeldKarp: return Layer::HeldKarp;
    case Engine::BranchBound: return Layer::BranchBound;
    default: return Layer::ChainedLk;
  }
}

// ---------------------------------------------------------------------------
// One round
// ---------------------------------------------------------------------------

/// What a traced request measured besides its real call.
struct TraceRecord {
  std::int64_t canonical_ns = 0;
  std::int64_t reduce_ns = 0;   ///< 0 on cache hits (not on the path)
  std::int64_t race_ns = 0;     ///< 0 on cache hits
  std::int64_t race_overhead_ns = 0;
  std::int64_t hk_in_race_ns = -1;
  std::int64_t hk_alone_ns = -1;
  bool raced = false;
  bool exact_won = false;
  obs::EngineWork work;
  bool checked_optimal = false;  ///< an optimal span was compared against a standalone exact run
  bool wrong_optimal = false;
};

struct Sample {
  std::int64_t latency_ns = 0;
  const SolveRequest* request = nullptr;
  int base = -1;
  SolveResponse response;
  int segment = 0;
  bool traced = false;
  TraceRecord trace;
};

struct RoundResult {
  bool traced = false;
  double setup_s = 0;
  double timed_s = 0;
  int warmup_races = 0;
  int warmup_failures = 0;
  bool warmup_settled = true;
  std::vector<Sample> samples;
  std::vector<double> segment_s;  ///< wall time of each timed segment
  std::uint64_t net_bytes = 0;
  std::uint64_t cache_hits = 0;  ///< result-cache hits while timed
  std::uint64_t cache_misses = 0;
  std::uint64_t effort_changes_timed = 0;
  std::uint64_t pretrim_skips_timed = 0;
  int effort_percent = 0;
  double peak_rss_mb = 0;  ///< the process's resident high-water mark during the round
};

/// The service one round stands up: solver, and for loopback workloads a
/// server on an ephemeral port with one connection per client.
class Service {
 public:
  explicit Service(const Spec& spec) : solver_(std::make_unique<BatchSolver>()) {
    if (loopback(spec)) {
      server_ = std::make_unique<LabelingServer>(*solver_);
      server_->start();
      for (int c = 0; c < spec.clients; ++c) {
        clients_.push_back(std::make_unique<LabelingClient>());
        clients_.back()->connect("127.0.0.1", server_->port());
      }
    }
  }

  ~Service() {
    for (auto& client : clients_) {
      try {
        client->shutdown();
      } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: client shutdown: %s\n", error.what());
      }
    }
    if (server_) server_->stop();
  }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  SolveResponse call(int client, const SolveRequest& request) {
    if (server_) return clients_[static_cast<std::size_t>(client)]->solve(request);
    return solver_->submit(request).get();
  }

  BatchSolver& solver() { return *solver_; }

  [[nodiscard]] std::uint64_t net_bytes() const {
    if (!server_) return 0;
    const LabelingServer::Counters counters = server_->counters();
    return counters.bytes_in + counters.bytes_out;
  }

 private:
  std::unique_ptr<BatchSolver> solver_;
  std::unique_ptr<LabelingServer> server_;
  std::vector<std::unique_ptr<LabelingClient>> clients_;
};

int bucket_of(int n) { return static_cast<int>(std::bit_width(static_cast<unsigned>(n))); }

/// Record one traced request: the real call's span with the server's echoed
/// queue/service split inside it, then the replays of the layers the
/// request went through, then the optimal-span check.
void trace_request(const Spec& spec, BatchSolver& solver, Sample& sample, std::int64_t call_start,
                   SpanLog& log, std::uint64_t request_id) {
  const SolveRequest& request = *sample.request;
  const SolveResponse& response = sample.response;
  TraceRecord& record = sample.trace;
  const std::int64_t call_end = call_start + sample.latency_ns;
  const bool net = loopback(spec);
  const int root = log.add(net ? "client.solve" : "batch_solver.submit",
                           net ? Layer::Net : Layer::BatchSolver, SpanKind::Call, true, -1,
                           request_id, call_start, call_end);
  const auto queue = static_cast<std::int64_t>(response.server_queue_ns);
  const auto service = static_cast<std::int64_t>(response.server_service_ns);
  // The client cannot see where inside its call the server's interval
  // lies; centre it, so transit splits evenly between the two directions.
  const std::int64_t slack = std::max<std::int64_t>(0, sample.latency_ns - queue - service);
  const std::int64_t queue_start = call_start + (net ? slack / 2 : 0);
  log.add("batch_solver.queue", Layer::BatchSolver, SpanKind::Echo, true, root, request_id,
          queue_start, queue_start + queue);
  const int service_span =
      log.add("batch_solver.service", Layer::BatchSolver, SpanKind::Echo, true, root, request_id,
              queue_start + queue, queue_start + queue + service);

  std::int64_t t0 = now_ns();
  (void)canonical_form(request.graph);
  std::int64_t t1 = now_ns();
  record.canonical_ns = t1 - t0;
  log.add("canonical_form", Layer::CanonicalKey, SpanKind::Replay, true, service_span, request_id,
          t0, t1);

  // A cache hit never reaches the reduction or the engines.
  if (response.source == ResponseSource::ResultCache) return;

  t0 = now_ns();
  const ReducedInstance reduced = reduce_to_path_tsp(request.graph, request.p);
  t1 = now_ns();
  record.reduce_ns = t1 - t0;
  log.add("reduce_to_path_tsp", Layer::Reduction, SpanKind::Replay, true, service_span,
          request_id, t0, t1);

  t0 = now_ns();
  const PortfolioOutcome outcome = solver.portfolio().race(reduced.instance);
  t1 = now_ns();
  record.raced = true;
  record.race_ns = t1 - t0;
  record.work = outcome.work;
  record.exact_won = outcome.winner == Engine::HeldKarp || outcome.winner == Engine::BranchBound;
  const int race_span = log.add("portfolio.race", Layer::Portfolio, SpanKind::Replay, true,
                                service_span, request_id, t0, t1);
  std::int64_t winner_ns = 0;
  for (const EngineAttempt& attempt : outcome.attempts) {
    const auto attempt_ns = static_cast<std::int64_t>(attempt.seconds * 1e9);
    const bool winner = attempt.engine == outcome.winner;
    if (winner) winner_ns = attempt_ns;
    if (attempt.engine == Engine::HeldKarp) record.hk_in_race_ns = attempt_ns;
    log.add(engine_name_cstr(attempt.engine), engine_layer(attempt.engine), SpanKind::Echo,
            winner, race_span, request_id, t0, t0 + attempt_ns);
  }
  record.race_overhead_ns = record.race_ns - winner_ns;

  // The standalone exact engine the race would use: the optimal-span
  // check, and for Held-Karp the engine's uncontended time on the same
  // instance.
  const bool use_hk = spec.n <= std::min(solver.portfolio().options().exact_max_n,
                                         EnginePortfolio::kHeldKarpMemoryCapN);
  t0 = now_ns();
  Weight exact_cost = -1;
  if (use_hk) {
    const HeldKarpRun run = held_karp_path_run(reduced.instance);
    if (run.completed) exact_cost = run.solution.cost;
  } else {
    try {
      const BranchBoundRun run = branch_bound_path_run(reduced.instance);
      if (run.completed) exact_cost = run.solution.cost;
    } catch (const precondition_error&) {
      // Node limit: this span stays unchecked (counted in the report).
    }
  }
  t1 = now_ns();
  if (use_hk) record.hk_alone_ns = t1 - t0;
  log.add(use_hk ? "held_karp_path_run" : "branch_bound_path_run",
          use_hk ? Layer::HeldKarp : Layer::BranchBound, SpanKind::Check, false, -1, request_id,
          t0, t1);
  if (response.optimal && exact_cost >= 0) {
    record.checked_optimal = true;
    record.wrong_optimal = response.span != exact_cost;
  }
}

RoundResult run_round(const Spec& spec, const WarmBases& bases, const Inputs& inputs, int segments,
                      bool traced, std::vector<SpanLog>& logs, std::uint64_t& next_request_id) {
  RoundResult result;
  result.traced = traced;

  const auto setup_start = Clock::now();
  auto service = std::make_unique<Service>(spec);
  if (spec.kind == Workload::WarmLoopback) {
    for (const SolveRequest& base : bases.requests) {
      const SolveResponse primed = service->call(0, base);
      LPTSP_REQUIRE(primed.ok(), "priming the cache failed");
    }
  } else {
    // Warm up on distinct inputs, one tuner effort window at a time, until
    // a whole window passes without the bucket's effort moving.
    const EngineTuner& tuner = service->solver().tuner();
    const int window = std::max(1, kTunerWindow);
    const int max_races = static_cast<int>(inputs.warmup.size());
    result.warmup_settled = false;
    while (result.warmup_races + window <= max_races) {
      const std::uint64_t before = tuner.effort_changes();
      for (int i = 0; i < window; ++i) {
        const SolveResponse response =
            service->call(0, inputs.warmup[static_cast<std::size_t>(result.warmup_races++)]);
        if (!response.ok()) ++result.warmup_failures;
      }
      if (tuner.effort_changes() == before) {
        result.warmup_settled = true;
        break;
      }
    }
  }
  result.setup_s = std::chrono::duration<double>(Clock::now() - setup_start).count();

  BatchSolver& solver = service->solver();
  const int bucket = bucket_of(spec.n);
  const std::uint64_t bytes_before = service->net_bytes();
  const CacheStats cache_before = solver.cache().stats();
  const std::uint64_t effort_before = solver.tuner().effort_changes();
  const std::uint64_t skips_before = solver.tuner().pretrim_skips();

  const int clients = static_cast<int>(inputs.clients.size());
  std::vector<std::vector<Sample>> per_client(static_cast<std::size_t>(clients));
  std::vector<std::uint64_t> first_id(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    first_id[static_cast<std::size_t>(c)] = next_request_id;
    next_request_id += inputs.clients[static_cast<std::size_t>(c)].order.size();
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(clients));
  // The clients meet at every segment boundary; the barrier's completion
  // step stamps the boundary, so a segment's wall time spans all clients.
  std::vector<std::int64_t> boundaries;
  boundaries.reserve(static_cast<std::size_t>(segments) + 1);
  auto stamp = [&boundaries]() noexcept { boundaries.push_back(now_ns()); };
  std::barrier sync(clients, stamp);
  auto client_loop = [&](int c) {
    try {
      const ClientStream& stream = inputs.clients[static_cast<std::size_t>(c)];
      std::vector<Sample>& samples = per_client[static_cast<std::size_t>(c)];
      SpanLog& log = logs[static_cast<std::size_t>(c)];
      samples.reserve(stream.order.size());
      const std::size_t per_segment = stream.order.size() / static_cast<std::size_t>(segments);
      std::uint64_t request_id = first_id[static_cast<std::size_t>(c)];
      sync.arrive_and_wait();
      for (std::size_t i = 0; i < stream.order.size(); ++i) {
        if (i > 0 && i % per_segment == 0) sync.arrive_and_wait();
        const int index = stream.order[i];
        Sample sample;
        sample.segment = static_cast<int>(i / per_segment);
        sample.request = &stream.requests[static_cast<std::size_t>(index)];
        if (!stream.base.empty()) sample.base = stream.base[static_cast<std::size_t>(index)];
        const std::int64_t t0 = now_ns();
        sample.response = service->call(c, *sample.request);
        sample.latency_ns = now_ns() - t0;
        if (traced) {
          sample.traced = true;
          trace_request(spec, solver, sample, t0, log, request_id);
        }
        ++request_id;
        samples.push_back(std::move(sample));
      }
      sync.arrive_and_wait();
    } catch (...) {
      errors[static_cast<std::size_t>(c)] = std::current_exception();
      sync.arrive_and_drop();
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(client_loop, c);
  client_loop(0);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  for (std::size_t k = 1; k < boundaries.size(); ++k) {
    result.segment_s.push_back(static_cast<double>(boundaries[k] - boundaries[k - 1]) / 1e9);
  }
  result.timed_s = static_cast<double>(boundaries.back() - boundaries.front()) / 1e9;

  result.net_bytes = service->net_bytes() - bytes_before;
  const CacheStats cache_after = solver.cache().stats();
  result.cache_hits = cache_after.result_hits - cache_before.result_hits;
  result.cache_misses = cache_after.result_misses - cache_before.result_misses;
  result.effort_changes_timed = solver.tuner().effort_changes() - effort_before;
  result.pretrim_skips_timed = solver.tuner().pretrim_skips() - skips_before;
  result.effort_percent = solver.tuner().effort(bucket).percent;
  service.reset();

  for (auto& samples : per_client) {
    for (Sample& sample : samples) result.samples.push_back(std::move(sample));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (q in (0,1]) of unsorted values; 0 when empty.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

std::string format_number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t ok_valid = 0;
  std::uint64_t optimal = 0;
  std::uint64_t invalid = 0;        ///< ok() but the labeling or its span is wrong
  std::uint64_t wrong_optimal = 0;  ///< certified optimal, but not the optimum
  std::uint64_t optimal_checked = 0;
  std::uint64_t optimal_unchecked = 0;
};

/// Check every response of a round, then drop the labelings, which only
/// the check needs.
void check_round(RoundResult& round, const WarmBases& bases, Verdict& verdict) {
  for (Sample& sample : round.samples) {
    ++verdict.attempted;
    SolveResponse& response = sample.response;
    if (response.ok()) {
      const Graph& graph = sample.request->graph;
      const bool valid = static_cast<int>(response.labeling.labels.size()) == graph.n() &&
                         is_valid_labeling(graph, sample.request->p, response.labeling) &&
                         response.labeling.span() == response.span;
      if (!valid) ++verdict.invalid;
      if (valid) ++verdict.ok_valid;
      if (valid && response.optimal) {
        ++verdict.optimal;
        // Warm responses are checked against their base's certified
        // optimum in every run, cold ones against a standalone exact
        // engine in traced rounds.
        if (sample.base >= 0) {
          ++verdict.optimal_checked;
          if (response.span != bases.optimum[static_cast<std::size_t>(sample.base)]) {
            ++verdict.wrong_optimal;
          }
        } else if (sample.trace.checked_optimal) {
          ++verdict.optimal_checked;
          if (sample.trace.wrong_optimal) ++verdict.wrong_optimal;
        } else if (sample.traced) {
          ++verdict.optimal_unchecked;
        }
      }
    }
    response.labeling.labels = {};
  }
}

/// Reset the kernel's resident high-water mark (VmHWM) of this process,
/// so each round's peak is measured on its own.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The timing figures of a run (see README.md, "Which segment").
struct Timing {
  double p50_us = 0;  ///< the median or the lowest of the segment medians
  double p99_us = 0;  ///< median over windows of kWindow consecutive requests of their p99
  double rps = 0;     ///< the median or the highest segment rate of ok responses
};

Timing timing(const Spec& spec, const std::vector<RoundResult>& rounds) {
  std::vector<double> segment_p50;
  std::vector<double> segment_rps;
  std::vector<double> window_p99;
  for (const RoundResult& round : rounds) {
    const std::size_t segments = round.segment_s.size();
    std::vector<std::vector<double>> latencies(segments);
    std::vector<double> ok(segments, 0);
    for (const Sample& sample : round.samples) {
      const auto k = static_cast<std::size_t>(sample.segment);
      latencies[k].push_back(static_cast<double>(sample.latency_ns) / 1e3);
      if (sample.response.ok()) ok[k] += 1;
    }
    for (std::size_t k = 0; k < segments; ++k) {
      segment_p50.push_back(percentile(latencies[k], 0.5));
      segment_rps.push_back(ok[k] / round.segment_s[k]);
    }
    const std::size_t per_segment = std::max<std::size_t>(1, latencies[0].size());
    const std::size_t per_window =
        std::min(segments, (static_cast<std::size_t>(kWindow) + per_segment - 1) / per_segment);
    // Windows slide one segment at a time and never span two rounds.
    for (std::size_t k = 0; k + per_window <= segments; ++k) {
      std::vector<double> window;
      for (std::size_t j = k; j < k + per_window; ++j) {
        window.insert(window.end(), latencies[j].begin(), latencies[j].end());
      }
      window_p99.push_back(percentile(std::move(window), 0.99));
    }
  }
  Timing figures;
  figures.p99_us = median(std::move(window_p99));
  if (spec.pick == Pick::Best) {
    figures.p50_us = *std::min_element(segment_p50.begin(), segment_p50.end());
    figures.rps = *std::max_element(segment_rps.begin(), segment_rps.end());
  } else {
    figures.p50_us = median(std::move(segment_p50));
    figures.rps = median(std::move(segment_rps));
  }
  return figures;
}

std::vector<Metric> end_to_end_metrics(const Spec& spec, const std::vector<RoundResult>& rounds,
                                       const Verdict& verdict) {
  std::vector<double> setups;
  std::vector<double> rss;
  for (const RoundResult& round : rounds) {
    setups.push_back(round.setup_s);
    rss.push_back(round.peak_rss_mb);
  }
  const Timing figures = timing(spec, rounds);
  const auto attempted = static_cast<double>(verdict.attempted);
  return {
      {"setup_s", median(setups), "s"},
      {"latency_p50_us", figures.p50_us, "us"},
      {"latency_p99_us", figures.p99_us, "us"},
      {"throughput_rps", figures.rps, "1/s"},
      {"ok_ratio", static_cast<double>(verdict.ok_valid) / attempted, "ratio"},
      {"optimal_ratio", static_cast<double>(verdict.optimal) / attempted, "ratio"},
      {"peak_rss_mb", median(rss), "MB"},
  };
}

/// Self time of each on-path span (its duration minus its blocking
/// children's), summed per layer; off-path spans (losing race attempts,
/// checks) are summed separately.
struct SelfTimes {
  std::array<double, kLayers> on_path_ns{};
  std::array<double, kLayers> off_path_ns{};
};

SelfTimes self_times(const std::vector<SpanLog>& logs) {
  SelfTimes totals;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans;
    std::vector<std::int64_t> covered(spans.size(), 0);
    std::vector<char> on_path(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      // Parents precede children in a log.
      const bool parent_on_path =
          span.parent < 0 || on_path[static_cast<std::size_t>(span.parent)] != 0;
      on_path[i] = span.blocking && span.kind != SpanKind::Check && parent_on_path;
      if (span.parent >= 0 && span.blocking) {
        covered[static_cast<std::size_t>(span.parent)] += span.duration();
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto layer = static_cast<std::size_t>(spans[i].layer);
      const auto self = static_cast<double>(spans[i].duration() - covered[i]);
      (on_path[i] ? totals.on_path_ns : totals.off_path_ns)[layer] += self;
    }
  }
  return totals;
}

void write_spans(const std::string& path, const Spec& spec, std::uint64_t seed,
                 const std::vector<SpanLog>& logs, std::int64_t origin_ns) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "{\"workload\":\"" << spec.name << "\",\"seed\":" << seed
      << ",\"fields\":[\"client\",\"id\",\"name\",\"layer\",\"kind\",\"blocking\",\"parent\","
         "\"request\",\"start_ns\",\"end_ns\"],\"spans\":[";
  bool first = true;
  for (std::size_t c = 0; c < logs.size(); ++c) {
    for (std::size_t i = 0; i < logs[c].spans.size(); ++i) {
      const Span& span = logs[c].spans[i];
      out << (first ? "\n[" : ",\n[") << c << ',' << i << ",\"" << span.name << "\",\""
          << kLayerNames[static_cast<int>(span.layer)] << "\",\""
          << kKindNames[static_cast<int>(span.kind)] << "\"," << (span.blocking ? 1 : 0) << ','
          << span.parent << ',' << span.request << ',' << span.start_ns - origin_ns << ','
          << span.end_ns - origin_ns << ']';
      first = false;
    }
  }
  out << "\n]}\n";
}

std::vector<Metric> per_layer_metrics(const Spec& spec, const std::vector<RoundResult>& rounds,
                                      const SelfTimes& self) {
  std::vector<double> rtt, transit, queue, service, overhead, canonical, reduce, race, race_over,
      hk_alone, hk_in_race, traced_latency, untraced_latency;
  double races = 0;
  double exact_wins = 0;
  double hk_cells = 0;
  double bb_nodes = 0;
  double lk_kicks = 0;
  double bytes = 0;
  double requests = 0;
  double hits = 0;
  double lookups = 0;
  double effort_changes = 0;
  double skips = 0;
  std::vector<double> effort;
  double traced_requests = 0;
  const auto us = [](auto ns) { return static_cast<double>(ns) / 1e3; };
  for (const RoundResult& round : rounds) {
    bytes += static_cast<double>(round.net_bytes);
    requests += static_cast<double>(round.samples.size());
    hits += static_cast<double>(round.cache_hits);
    lookups += static_cast<double>(round.cache_hits + round.cache_misses);
    effort_changes += static_cast<double>(round.effort_changes_timed);
    skips += static_cast<double>(round.pretrim_skips_timed);
    effort.push_back(round.effort_percent);
    for (const Sample& sample : round.samples) {
      const double latency_us = us(sample.latency_ns);
      (sample.traced ? traced_latency : untraced_latency).push_back(latency_us);
      if (!sample.traced) continue;
      ++traced_requests;
      const SolveResponse& response = sample.response;
      const double queue_us = us(response.server_queue_ns);
      const double service_us = us(response.server_service_ns);
      const TraceRecord& record = sample.trace;
      if (loopback(spec)) {
        rtt.push_back(latency_us);
        transit.push_back(latency_us - queue_us - service_us);
      }
      queue.push_back(queue_us);
      service.push_back(service_us);
      canonical.push_back(us(record.canonical_ns));
      overhead.push_back(service_us - us(record.canonical_ns + record.reduce_ns + record.race_ns));
      if (!record.raced) continue;
      ++races;
      if (record.exact_won) ++exact_wins;
      reduce.push_back(us(record.reduce_ns));
      race.push_back(us(record.race_ns));
      race_over.push_back(us(record.race_overhead_ns));
      if (record.hk_alone_ns >= 0) hk_alone.push_back(us(record.hk_alone_ns));
      if (record.hk_in_race_ns >= 0) hk_in_race.push_back(us(record.hk_in_race_ns));
      hk_cells += static_cast<double>(record.work.hk_cells);
      bb_nodes += static_cast<double>(record.work.bb_nodes);
      lk_kicks += static_cast<double>(record.work.lk_kicks);
    }
  }
  const auto per = [](double total, double count) { return count > 0 ? total / count : 0.0; };

  std::vector<Metric> metrics = {
      {"net.rtt_p50_us", percentile(rtt, 0.5), "us"},
      {"net.transit_p50_us", percentile(transit, 0.5), "us"},
      {"net.bytes_per_request", per(bytes, loopback(spec) ? requests : 0), "B"},
      {"batch_solver.queue_wait_p50_us", percentile(queue, 0.5), "us"},
      {"batch_solver.queue_wait_p99_us", percentile(queue, 0.99), "us"},
      {"batch_solver.service_p50_us", percentile(service, 0.5), "us"},
      {"batch_solver.overhead_p50_us", percentile(overhead, 0.5), "us"},
      {"canonical_key.canonical_p50_us", percentile(canonical, 0.5), "us"},
      {"solve_cache.hit_ratio", per(hits, lookups), "ratio"},
      {"reduction.reduce_p50_us", percentile(reduce, 0.5), "us"},
      {"portfolio.race_p50_us", percentile(race, 0.5), "us"},
      {"portfolio.race_p99_us", percentile(race, 0.99), "us"},
      {"portfolio.race_overhead_p50_us", percentile(race_over, 0.5), "us"},
      {"portfolio.race_overhead_p99_us", percentile(race_over, 0.99), "us"},
      {"portfolio.exact_win_ratio", per(exact_wins, races), "ratio"},
      {"tuner.effort_percent", median(effort), "%"},
      {"tuner.effort_changes_timed", effort_changes, "count"},
      {"tuner.pretrim_skips", skips, "count"},
      {"held_karp.alone_p50_us", percentile(hk_alone, 0.5), "us"},
      {"held_karp.in_race_p50_us", percentile(hk_in_race, 0.5), "us"},
      {"held_karp.cells_per_race", per(hk_cells, races), "count"},
      {"branch_bound.nodes_per_race", per(bb_nodes, races), "count"},
      {"chained_lk.kicks_per_race", per(lk_kicks, races), "count"},
  };
  for (int layer = 0; layer < kLayers; ++layer) {
    metrics.push_back({std::string("self.") + kLayerNames[layer] + "_us",
                       per(self.on_path_ns[static_cast<std::size_t>(layer)] / 1e3,
                           traced_requests),
                       "us"});
  }
  metrics.push_back({"trace.overhead_p50_us",
                     percentile(traced_latency, 0.5) - percentile(untraced_latency, 0.5), "us"});
  return metrics;
}

void print_self_times(const SelfTimes& self, double traced_requests) {
  double total = 0;
  for (const double ns : self.on_path_ns) total += ns;
  std::printf("self time per traced request (critical path; replayed calls stand in for the\n"
              "in-process ones, so the layers sum to about the request latency):\n");
  for (int layer = 0; layer < kLayers; ++layer) {
    const double ns = self.on_path_ns[static_cast<std::size_t>(layer)];
    std::printf("  %-14s %12.1f us  %5.1f%%\n", kLayerNames[layer], ns / 1e3 / traced_requests,
                total > 0 ? 100.0 * ns / total : 0.0);
  }
  for (int layer = 0; layer < kLayers; ++layer) {
    const double ns = self.off_path_ns[static_cast<std::size_t>(layer)];
    if (ns == 0) continue;
    std::printf("  off path: %-14s %10.1f us (losing race attempts and output checks)\n",
                kLayerNames[layer], ns / 1e3 / traced_requests);
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--spans") {
      args.spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds >= 1;
}

int run(const Args& args) {
  const Spec* spec = nullptr;
  for (const Spec& candidate : kSpecs) {
    if (args.workload == candidate.name) spec = &candidate;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::int64_t origin_ns = now_ns();
  const int segments = std::max(
      1, (spec->segments * args.seconds + kReferenceSeconds / 2) / kReferenceSeconds);
  const int per_round = segments * spec->segment;
  // Traced runs alternate untraced and traced rounds; the untraced ones
  // give the baseline the tracing overhead is measured against.
  const int rounds = args.trace ? std::max(2, spec->rounds) : spec->rounds;
  std::printf("workload %s: n=%d (bucket %d), %s, closed loop, %d client(s), %d rounds x %d "
              "segments x %d timed requests, seed %llu%s\n",
              spec->name, spec->n, bucket_of(spec->n),
              loopback(*spec) ? "TCP loopback" : "in-process submit", spec->clients, rounds,
              segments, spec->segment, static_cast<unsigned long long>(args.seed),
              args.trace ? ", traced" : "");

  const WarmBases bases = spec->kind == Workload::WarmLoopback ? make_warm_bases(*spec, args.seed)
                                                               : WarmBases{};
  const Inputs inputs = make_inputs(*spec, bases, args.seed, per_round);
  std::vector<SpanLog> logs(static_cast<std::size_t>(spec->clients));
  std::vector<RoundResult> results;
  Verdict verdict;
  std::uint64_t next_request_id = 1;
  for (int round = 0; round < rounds; ++round) {
    // Hand the previous round's free heap back to the kernel first, so
    // this round's resident peak does not depend on what that one cached.
    malloc_trim(0);
    reset_peak_rss();
    const bool traced = args.trace && round % 2 == 1;
    RoundResult result =
        run_round(*spec, bases, inputs, segments, traced, logs, next_request_id);
    std::vector<double> latencies;
    for (const Sample& sample : result.samples) {
      latencies.push_back(static_cast<double>(sample.latency_ns) / 1e3);
    }
    std::printf("  round %d%s: setup %.3f s (%d warm-up races%s), %zu requests in %.3f s "
                "(p50 %.0f us, p99 %.0f us), effort %d%%, effort changes while timed %llu, "
                "pre-trim skips %llu\n",
                round, traced ? " (traced)" : "", result.setup_s, result.warmup_races,
                result.warmup_settled ? "" : ", effort still moving", result.samples.size(),
                result.timed_s, percentile(latencies, 0.5), percentile(latencies, 0.99),
                result.effort_percent,
                static_cast<unsigned long long>(result.effort_changes_timed),
                static_cast<unsigned long long>(result.pretrim_skips_timed));
    if (result.effort_changes_timed != 0 || !result.warmup_settled) {
      std::printf("  WARNING round %d: warm-up too short: the tuner's effort moved during the "
                  "timed phase or never settled\n",
                  round);
    }
    if (result.warmup_failures != 0) {
      std::printf("  WARNING round %d: %d warm-up requests failed\n", round,
                  result.warmup_failures);
    }
    result.peak_rss_mb = peak_rss_mb();
    check_round(result, bases, verdict);
    results.push_back(std::move(result));
  }

  std::printf("outputs: %llu attempted, %llu ok and valid, %llu invalid, %llu optimal "
              "(%llu checked against an exact optimum, %llu wrong, %llu unchecked)\n",
              static_cast<unsigned long long>(verdict.attempted),
              static_cast<unsigned long long>(verdict.ok_valid),
              static_cast<unsigned long long>(verdict.invalid),
              static_cast<unsigned long long>(verdict.optimal),
              static_cast<unsigned long long>(verdict.optimal_checked),
              static_cast<unsigned long long>(verdict.wrong_optimal),
              static_cast<unsigned long long>(verdict.optimal_unchecked));

  std::vector<Metric> metrics;
  if (args.trace) {
    double traced_requests = 0;
    for (const RoundResult& round : results) {
      if (round.traced) traced_requests += static_cast<double>(round.samples.size());
    }
    const SelfTimes self = self_times(logs);
    print_self_times(self, traced_requests);
    if (!args.spans_path.empty()) write_spans(args.spans_path, *spec, args.seed, logs, origin_ns);
    metrics = per_layer_metrics(*spec, results, self);
  } else {
    metrics = end_to_end_metrics(*spec, results, verdict);
    std::printf("timing: p50 and rate from the %s of %d segments of %d requests; p99 the "
                "median over windows of %d consecutive requests (10 samples beyond it)\n",
                spec->pick == Pick::Best ? "best" : "median", rounds * segments, spec->segment,
                kWindow);
  }
  for (const Metric& metric : metrics) {
    std::printf("  %-34s %16.4f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }

  const bool correct = verdict.invalid == 0 && verdict.wrong_optimal == 0;
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(verdict.attempted);
  json += ",\"failed\":" + std::to_string(verdict.attempted - verdict.ok_valid);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ",";
    json += "\"" + metrics[i].name + "\":{\"value\":" + format_number(metrics[i].value) +
            ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans PATH]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
