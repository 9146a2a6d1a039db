#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/operations.hpp"
#include "obs/trace.hpp"
#include "service/batch_solver.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace lptsp {
namespace {

using obs::Span;
using obs::SpanScope;
using obs::Stage;
using obs::Trace;
using obs::TraceRing;

// ------------------------------------------------------------- span scope

TEST(SpanScope, MeasuresAndAppendsRelativeToOrigin) {
  Trace trace;
  trace.origin_ns = obs::steady_now_ns();
  {
    const SpanScope span(&trace, Stage::Canonicalize);
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  }
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_EQ(trace.spans[0].stage, Stage::Canonicalize);
  EXPECT_GE(trace.spans[0].duration_ns, 1'000'000u);  // slept >= 2ms, allow slop
  EXPECT_LT(trace.spans[0].start_ns, 1'000'000'000u);  // relative, not absolute

  // finish() is idempotent: early close + destructor = one span.
  {
    SpanScope span(&trace, Stage::Verify);
    span.finish();
    span.finish();
  }
  EXPECT_EQ(trace.spans.size(), 2u);
}

TEST(SpanScope, NullTraceIsInert) {
  const SpanScope span(nullptr, Stage::EngineRace, "held-karp");
  // Nothing to assert beyond "does not crash": the null scope is the
  // metrics-off fast path and must be safe to construct and destroy.
}

// -------------------------------------------------------------- the ring

Trace trace_taking(std::uint64_t id, std::uint64_t total_ns) {
  Trace trace;
  trace.request_id = id;
  trace.total_ns = total_ns;
  trace.result = "solved";
  return trace;
}

TEST(TraceRing, ThresholdFiltersAndCapacityEvictsOldest) {
  TraceRing ring(TraceRing::Config{3, 1000});
  ring.keep(trace_taking(1, 999));  // below threshold: dropped
  EXPECT_EQ(ring.size(), 0u);
  for (std::uint64_t id = 2; id <= 6; ++id) {
    ring.keep(trace_taking(id, 1000 + id));
  }
  EXPECT_EQ(ring.size(), 3u);  // capacity bound
  const std::vector<Trace> kept = ring.snapshot();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept.front().request_id, 4u);  // oldest two evicted
  EXPECT_EQ(kept.back().request_id, 6u);
}

TEST(TraceRing, ZeroCapacityDisablesRetention) {
  TraceRing ring(TraceRing::Config{0, 0});
  ring.keep(trace_taking(1, 5000));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dump_json(), "[]");
}

TEST(TraceRing, DumpJsonIsWellFormed) {
  TraceRing ring(TraceRing::Config{4, 0});
  Trace trace = trace_taking(7, 12345);
  trace.spans.push_back({Stage::CacheLookup, nullptr, 10, 20, false, false});
  trace.spans.push_back({Stage::EngineAttempt, "branch-bound", 40, 99, true, true});
  ring.keep(std::move(trace));

  const std::string json = ring.dump_json();
  EXPECT_NE(json.find("\"id\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_ns\":12345"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stage\":\"cache-lookup\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"detail\":\"branch-bound\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"winner\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"nested\":true"), std::string::npos) << json;
  // Crude but effective shape check: brackets balance.
  EXPECT_EQ(std::count(json.begin(), json.end(), '['), std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), std::count(json.begin(), json.end(), '}'));
}

TEST(TraceRing, SampledTracesBypassTheSlowThreshold) {
  TraceRing ring(TraceRing::Config{4, 1000});
  Trace fast = trace_taking(1, 10);  // far below the threshold
  fast.sampled = true;
  fast.trace_id = 0xabcdef12u;
  ring.keep(std::move(fast));
  ASSERT_EQ(ring.size(), 1u);  // sampled: retained anyway
  ring.keep(trace_taking(2, 10));
  EXPECT_EQ(ring.size(), 1u);  // unsampled fast trace still dropped

  const std::string json = ring.dump_json();
  EXPECT_NE(json.find("\"trace_id\":2882400018"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sampled\":true"), std::string::npos) << json;
  // Context-free traces carry neither key (the common case stays small).
  TraceRing plain(TraceRing::Config{4, 0});
  plain.keep(trace_taking(3, 10));
  EXPECT_EQ(plain.dump_json().find("trace_id"), std::string::npos);
  EXPECT_EQ(plain.dump_json().find("sampled"), std::string::npos);
}

TEST(TraceRing, ConcurrentKeepAndDumpStaySane) {
  // Writers race keep() against readers pulling dump_json()/snapshot():
  // under TSan this is the data-race check; everywhere else it checks the
  // ring never loses its bounds and the JSON stays balanced.
  TraceRing ring(TraceRing::Config{32, 0});
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        Trace trace = trace_taking(static_cast<std::uint64_t>(w * kPerWriter + i), 100);
        trace.spans.push_back({Stage::CacheLookup, nullptr, 1, 2, false, false});
        ring.keep(std::move(trace));
      }
    });
  }
  std::thread reader([&ring] {
    for (int i = 0; i < 200; ++i) {
      const std::string json = ring.dump_json();
      EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
                std::count(json.begin(), json.end(), '}'));
      EXPECT_LE(ring.snapshot().size(), 32u);
    }
  });
  for (std::thread& writer : writers) writer.join();
  reader.join();
  EXPECT_EQ(ring.size(), 32u);
}

// ------------------------------------------- end-to-end through the solver

BatchSolver::Options traced_options() {
  BatchSolver::Options options;
  options.request_workers = 2;
  options.engine_workers = 2;
  options.portfolio.deadline = std::chrono::milliseconds{0};
  options.trace_capacity = 128;
  return options;
}

bool has_stage(const Trace& trace, Stage stage) {
  for (const Span& span : trace.spans) {
    if (span.stage == stage) return true;
  }
  return false;
}

TEST(BatchSolverTracing, ColdAndWarmRequestsLeaveTheRightSpans) {
  BatchSolver solver(traced_options());
  Rng rng(61);
  const Graph base = random_with_diameter_at_most(16, 2, 0.3, rng);

  SolveRequest cold;
  cold.graph = base;
  cold.p = PVec::L21();
  cold.id = 1;
  ASSERT_TRUE(solver.solve_one(cold).ok());

  SolveRequest warm;
  warm.graph = relabel(base, rng.permutation(base.n()));
  warm.p = PVec::L21();
  warm.id = 2;
  const SolveResponse warm_response = solver.solve_one(warm);
  ASSERT_TRUE(warm_response.ok());
  EXPECT_EQ(warm_response.source, ResponseSource::ResultCache);

  const std::vector<Trace> traces = solver.traces().snapshot();
  ASSERT_EQ(traces.size(), 2u);

  const Trace& cold_trace = traces[0];
  EXPECT_EQ(cold_trace.request_id, 1u);
  EXPECT_STREQ(cold_trace.result, "solved");
  EXPECT_TRUE(has_stage(cold_trace, Stage::Canonicalize));
  EXPECT_TRUE(has_stage(cold_trace, Stage::CacheLookup));
  EXPECT_TRUE(has_stage(cold_trace, Stage::Reduction));
  EXPECT_TRUE(has_stage(cold_trace, Stage::EngineRace));
  EXPECT_TRUE(has_stage(cold_trace, Stage::Verify));
  EXPECT_TRUE(has_stage(cold_trace, Stage::StoreWrite));
  // The race ran at least one engine; exactly one attempt won, every
  // attempt is nested and named.
  int attempts = 0;
  int winners = 0;
  for (const Span& span : cold_trace.spans) {
    if (span.stage != Stage::EngineAttempt) continue;
    ++attempts;
    EXPECT_TRUE(span.nested);
    EXPECT_NE(span.detail, nullptr);
    if (span.winner) ++winners;
  }
  EXPECT_GE(attempts, 1);
  EXPECT_EQ(winners, 1);

  const Trace& warm_trace = traces[1];
  EXPECT_EQ(warm_trace.request_id, 2u);
  EXPECT_STREQ(warm_trace.result, "result-cache");
  EXPECT_TRUE(has_stage(warm_trace, Stage::CacheLookup));
  EXPECT_FALSE(has_stage(warm_trace, Stage::EngineRace));
  EXPECT_FALSE(has_stage(warm_trace, Stage::EngineAttempt));
  EXPECT_FALSE(has_stage(warm_trace, Stage::StoreWrite));

  // Non-nested spans partition the request's own work: their sum cannot
  // exceed the measured total (nested engine attempts overlap the race
  // span and are excluded from the identity).
  for (const Trace& trace : traces) {
    std::uint64_t non_nested = 0;
    for (const Span& span : trace.spans) {
      if (!span.nested) non_nested += span.duration_ns;
    }
    EXPECT_LE(non_nested, trace.total_ns) << "request " << trace.request_id;
    EXPECT_GT(trace.total_ns, 0u);
  }
}

TEST(BatchSolverTracing, EngineAttemptSpansStartWhereTheirAttemptsStarted) {
  // One engine worker, held by Held-Karp for 20 ms against a 1 ms
  // deadline: it forfeits, and chained-LK, queued behind it, answers —
  // started late by whichever side claims it.
  BatchSolver::Options options = traced_options();
  options.engine_workers = 1;
  BatchSolver solver(options);
  Rng rng(83);
  SolveRequest request;
  request.p = PVec::L21();
  constexpr std::uint64_t kHoldNs = 20'000'000;
  fault::arm(FaultSite::EngineExactStall, 1.0, 1, 1, kHoldNs / 1'000'000);
  request.graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  request.deadline = std::chrono::milliseconds{1};
  request.id = 1000;
  const SolveResponse response = solver.solve_one(request);
  fault::disarm(FaultSite::EngineExactStall);
  ASSERT_TRUE(response.ok()) << response.message;
  EXPECT_FALSE(response.optimal);
  EXPECT_EQ(response.engine, Engine::ChainedLK);

  const Trace* late = nullptr;
  const std::vector<Trace> traces = solver.traces().snapshot();
  for (const Trace& trace : traces) {
    if (trace.request_id == 1000) late = &trace;
  }
  ASSERT_NE(late, nullptr);
  const Span* race = nullptr;
  const Span* heuristic = nullptr;
  const Span* exact = nullptr;
  for (const Span& span : late->spans) {
    if (span.stage == Stage::EngineRace) race = &span;
    if (span.stage != Stage::EngineAttempt) continue;
    (span.winner ? heuristic : exact) = &span;
  }
  ASSERT_NE(race, nullptr);
  ASSERT_NE(heuristic, nullptr);
  ASSERT_NE(exact, nullptr);
  EXPECT_STREQ(heuristic->detail, engine_name_cstr(Engine::ChainedLK));
  EXPECT_STREQ(exact->detail, engine_name_cstr(Engine::HeldKarp));
  EXPECT_GE(exact->duration_ns, kHoldNs);
  // -1: each offset is truncated to whole nanoseconds on its own.
  EXPECT_GE(heuristic->start_ns, race->start_ns + kHoldNs - 1);
  EXPECT_LE(heuristic->start_ns + heuristic->duration_ns,
            race->start_ns + race->duration_ns + 1);
}

TEST(BatchSolverTracing, StageHistogramsPopulateAlongsideTraces) {
  BatchSolver solver(traced_options());
  Rng rng(67);
  for (int i = 0; i < 3; ++i) {
    SolveRequest request;
    request.graph = random_with_diameter_at_most(14, 2, 0.3, rng);
    request.p = PVec::L21();
    request.id = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(solver.solve_one(request).ok());
  }
  const obs::MetricsSnapshot snap = solver.metrics_registry().snapshot();
  ASSERT_NE(snap.histogram("request_ns"), nullptr);
  EXPECT_EQ(snap.histogram("request_ns")->count, 3u);
  ASSERT_NE(snap.histogram("canonical_ns"), nullptr);
  EXPECT_EQ(snap.histogram("canonical_ns")->count, 3u);
  ASSERT_NE(snap.histogram("engine_race_ns"), nullptr);
  EXPECT_GE(snap.histogram("engine_race_ns")->count, 1u);
  EXPECT_EQ(snap.counter_or("requests_total"), 3u);
}

TEST(BatchSolverTracing, SlowThresholdKeepsOnlySlowRequests) {
  BatchSolver::Options options = traced_options();
  // Nothing on these tiny instances takes a minute: the ring stays empty
  // while the histograms still record every request.
  options.trace_threshold = std::chrono::milliseconds{60'000};
  BatchSolver solver(options);
  Rng rng(71);
  SolveRequest request;
  request.graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  request.p = PVec::L21();
  ASSERT_TRUE(solver.solve_one(request).ok());
  EXPECT_EQ(solver.traces().size(), 0u);
  EXPECT_EQ(solver.metrics_registry().snapshot().histogram("request_ns")->count, 1u);
}

TEST(BatchSolverTracing, MetricsOffStillCountsButNeverTimes) {
  BatchSolver::Options options = traced_options();
  options.metrics = false;
  BatchSolver solver(options);
  Rng rng(73);
  const Graph base = random_with_diameter_at_most(14, 2, 0.3, rng);
  for (int i = 0; i < 2; ++i) {
    SolveRequest request;
    request.graph = relabel(base, rng.permutation(base.n()));
    request.p = PVec::L21();
    request.id = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(solver.solve_one(request).ok());
  }
  // Counters are always on (one relaxed add); only clocks and traces stop.
  EXPECT_EQ(solver.engine_solves(), 1u);
  const obs::MetricsSnapshot snap = solver.metrics_registry().snapshot();
  EXPECT_EQ(snap.counter_or("requests_total"), 2u);
  EXPECT_EQ(snap.counter_or("cache_result_hits"), 1u);
  EXPECT_EQ(snap.histogram("request_ns")->count, 0u);
  EXPECT_EQ(snap.histogram("canonical_ns")->count, 0u);
  EXPECT_EQ(solver.traces().size(), 0u);
}

TEST(BatchSolverTracing, BatchTracesCoalescedGroupsOnce) {
  BatchSolver solver(traced_options());
  Rng rng(79);
  const Graph base = random_with_diameter_at_most(14, 2, 0.3, rng);
  std::vector<SolveRequest> requests;
  for (int i = 0; i < 6; ++i) {
    SolveRequest request;
    request.graph = relabel(base, rng.permutation(base.n()));
    request.p = PVec::L21();
    request.id = static_cast<std::uint64_t>(i + 10);
    requests.push_back(std::move(request));
  }
  const std::vector<SolveResponse> responses = solver.solve_batch(requests);
  for (const SolveResponse& response : responses) EXPECT_TRUE(response.ok());

  const obs::MetricsSnapshot snap = solver.metrics_registry().snapshot();
  EXPECT_EQ(snap.counter_or("requests_total"), 6u);
  // One group leader solved; the other five were deduplicated.
  EXPECT_EQ(snap.counter_or("requests_coalesced"), 5u);
  // One trace per solved GROUP, not per request.
  EXPECT_EQ(solver.traces().size(), 1u);
}

}  // namespace
}  // namespace lptsp
