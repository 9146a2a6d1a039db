#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/labeling.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/batch_solver.hpp"
#include "store/backend.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace lptsp {
namespace {

// Chaos coverage for the serving stack: scripted fault schedules against a
// REAL in-process server + client + durable store, asserting the three
// robustness invariants end to end — never crash, never return an
// unverified-wrong labeling, always recover once the fault clears.
//
// (The fault-site unit behaviour for the store layers lives in
// test_store_log / test_store_kv; this file drives whole-stack schedules.)

/// Every test arms its own schedule; nothing may leak between tests (or
/// into other suites in the same binary).
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

SolveRequest request_for(const Graph& graph, std::uint64_t id) {
  SolveRequest request;
  request.graph = graph;
  request.p = PVec::L21();
  request.id = id;
  return request;
}

/// An Ok response must carry a labeling that verifies against the
/// caller's own graph — the never-lie invariant every chaos schedule
/// re-checks on every success.
void expect_valid_if_ok(const SolveResponse& response, const Graph& graph) {
  if (!response.ok()) return;
  ASSERT_EQ(response.labeling.labels.size(), static_cast<std::size_t>(graph.n()))
      << response.message;
  EXPECT_TRUE(is_valid_labeling(graph, PVec::L21(), response.labeling));
  EXPECT_EQ(response.labeling.span(), response.span);
}

TEST_F(ChaosTest, FiringSequencesAreSeedDeterministic) {
  // Same (probability, seed) => same fire/no-fire sequence, run to run.
  std::vector<bool> first;
  fault::arm(FaultSite::StoreAppend, 0.5, 42);
  for (int i = 0; i < 200; ++i) first.push_back(fault::should_fail(FaultSite::StoreAppend));
  fault::arm(FaultSite::StoreAppend, 0.5, 42);  // re-arm resets the stream
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(fault::should_fail(FaultSite::StoreAppend), first[static_cast<std::size_t>(i)]);
  }
  // A different seed produces a different sequence (overwhelmingly).
  fault::arm(FaultSite::StoreAppend, 0.5, 43);
  std::vector<bool> other;
  for (int i = 0; i < 200; ++i) other.push_back(fault::should_fail(FaultSite::StoreAppend));
  EXPECT_NE(first, other);
  // max_fires caps the total number of injected failures.
  fault::arm(FaultSite::StoreAppend, 1.0, 7, /*max_fires=*/3);
  int fired = 0;
  for (int i = 0; i < 50; ++i) fired += fault::should_fail(FaultSite::StoreAppend) ? 1 : 0;
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(fault::fires(FaultSite::StoreAppend), 3u);
}

TEST_F(ChaosTest, EnvSpecParsingArmsAndRejects) {
  std::string error;
  ASSERT_TRUE(fault::arm_from_spec("store.fsync:1:9,engine.stall:0.5:3:75", error)) << error;
  EXPECT_TRUE(fault::armed(FaultSite::StoreFsync));
  EXPECT_TRUE(fault::armed(FaultSite::EngineStall));
  EXPECT_EQ(fault::param(FaultSite::EngineStall), 75u);
  const std::string described = fault::describe();
  EXPECT_NE(described.find("store.fsync"), std::string::npos) << described;
  EXPECT_NE(described.find("engine.stall"), std::string::npos) << described;
  fault::disarm_all();
  EXPECT_EQ(fault::describe(), "none");

  EXPECT_FALSE(fault::arm_from_spec("no.such.site:1:1", error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(fault::arm_from_spec("store.append:notaprob:1", error));
  EXPECT_FALSE(fault::arm_from_spec("store.append", error));
}

TEST_F(ChaosTest, StoreDegradesUnderWriteFaultsAndHealsAfterwards) {
  const std::string path = ::testing::TempDir() + "lptsp_chaos_degraded.store";
  std::remove(path.c_str());

  BatchSolver::Options options;
  options.store_path = path;
  options.store_degraded_after_failures = 2;
  options.store_reopen_probe_interval = std::chrono::milliseconds{10};
  options.portfolio.deadline = std::chrono::milliseconds{150};
  Rng rng(21);
  std::vector<Graph> graphs;
  for (int i = 0; i < 6; ++i) graphs.push_back(random_with_diameter_at_most(10, 2, 0.4, rng));
  {
    BatchSolver solver(options);
    ASSERT_NE(solver.store(), nullptr);

    // Every append fails: serving must continue (cache-only) and the
    // backend must flip read-only after the configured failure run.
    fault::arm(FaultSite::StoreAppend, 1.0, 5);
    for (int i = 0; i < 4; ++i) {
      const SolveResponse response =
          solver.solve_one(request_for(graphs[static_cast<std::size_t>(i)], 100 + i));
      ASSERT_TRUE(response.ok()) << response.message;
      expect_valid_if_ok(response, graphs[static_cast<std::size_t>(i)]);
    }
    EXPECT_TRUE(solver.store()->degraded());
    EXPECT_GE(solver.store()->write_failures(), 2u);
    bool gauge_seen = false;
    for (const auto& gauge : solver.metrics_registry().snapshot().gauges) {
      if (gauge.name == "store_degraded") {
        gauge_seen = true;
        EXPECT_EQ(gauge.value, 1);
      }
    }
    EXPECT_TRUE(gauge_seen);

    // Fault clears; the next probe (forced here, the write path does the
    // same on its own cadence) rewrites the full live state and heals —
    // including the results whose append failed while degraded.
    fault::disarm_all();
    EXPECT_TRUE(solver.store()->probe_reopen());
    EXPECT_FALSE(solver.store()->degraded());
    const SolveResponse after =
        solver.solve_one(request_for(graphs[4], 200));
    ASSERT_TRUE(after.ok());
    expect_valid_if_ok(after, graphs[4]);
  }
  // A restart proves the heal was durable. The two failed-append records
  // were recovered by the compaction (the KV layer kept them in memory);
  // results produced while writes were being SKIPPED are gone, by design —
  // the store is a best-effort cache, never the source of truth. So at
  // least: 2 recovered + 1 post-heal.
  BatchSolver reopened(options);
  EXPECT_GE(reopened.warm_stats().loaded, 3u);
  const SolveResponse warm = reopened.solve_one(request_for(graphs[0], 300));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.source, ResponseSource::ResultCache);
  EXPECT_EQ(reopened.engine_solves(), 0u);
  std::remove(path.c_str());
}

/// 5 s connect and request budgets: a fault that wedges the connection
/// fails the test with a typed outcome instead of hanging it.
ClientOptions budgeted_client() {
  ClientOptions options;
  options.connect_timeout = std::chrono::milliseconds{5000};
  options.request_timeout = std::chrono::milliseconds{5000};
  return options;
}

/// In-process server + real loopback TCP for the transport schedules.
class ChaosNetTest : public ChaosTest {
 protected:
  void start(LabelingServer::Options server_options = {},
             BatchSolver::Options solver_options = {}) {
    solver_ = std::make_unique<BatchSolver>(solver_options);
    server_ = std::make_unique<LabelingServer>(*solver_, server_options);
    server_->start();
  }

  std::unique_ptr<BatchSolver> solver_;
  std::unique_ptr<LabelingServer> server_;
};

TEST_F(ChaosNetTest, SolveRetryRidesOutAnInjectedDisconnect) {
  start();
  LabelingClient client{budgeted_client()};
  client.connect("127.0.0.1", server_->port());

  Rng rng(31);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  // One injected reset, wherever it lands (client read/write or server
  // side): the retry path must reconnect and still produce the answer.
  fault::arm(FaultSite::NetDisconnect, 1.0, 3, /*max_fires=*/1);
  const SolveResponse response = client.solve_retry(request_for(graph, 1));
  ASSERT_TRUE(response.ok()) << status_name(response.status) << ": " << response.message;
  expect_valid_if_ok(response, graph);
  EXPECT_EQ(fault::fires(FaultSite::NetDisconnect), 1u);
  client.shutdown();
}

TEST_F(ChaosNetTest, WaitForTimesOutTypedAndTheLateReplyStillArrives) {
  start();
  LabelingClient client{budgeted_client()};
  client.connect("127.0.0.1", server_->port());

  Rng rng(37);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  // Stall the engine race well past the wait budget.
  fault::arm(FaultSite::EngineStall, 1.0, 11, /*max_fires=*/1, /*param=*/400);
  client.submit(request_for(graph, 7));
  const SolveResponse timed_out = client.wait_for(7, std::chrono::milliseconds{50});
  EXPECT_EQ(timed_out.status, SolveStatus::TimedOut);
  EXPECT_FALSE(timed_out.ok());
  EXPECT_FALSE(timed_out.message.empty());
  // The connection stayed open: the same id, waited for again with a
  // budget that covers the stall, is the real (late) reply.
  const SolveResponse late = client.wait_for(7, std::chrono::milliseconds{10000});
  ASSERT_TRUE(late.ok()) << late.message;
  expect_valid_if_ok(late, graph);
  client.shutdown();
}

TEST_F(ChaosNetTest, OverloadShedsThenRejectsThenReleasesOverRealSockets) {
  BatchSolver::Options solver_options;
  solver_options.request_workers = 1;
  solver_options.max_pending_requests = 4;
  solver_options.brownout_heuristic_pending = 2;
  solver_options.retry_after_ms = 123;
  start({}, solver_options);

  LabelingClient client{budgeted_client()};
  client.connect("127.0.0.1", server_->port());

  // Hold the first race until the test releases it: nothing completes
  // during the burst, so which requests are admitted depends on arrival
  // order alone. One connection's frames are admitted in order: 1-4 fit
  // under max_pending_requests (the third engages the heuristic-only
  // rung), 5-10 are refused.
  fault::arm(FaultSite::EngineStall, 1.0, 13, /*max_fires=*/1, /*param=*/60'000);
  Rng rng(41);
  constexpr std::uint64_t kBurst = 10;
  constexpr std::uint64_t kAdmitted = 4;
  std::vector<Graph> graphs;
  for (std::uint64_t id = 1; id <= kBurst; ++id) {
    graphs.push_back(random_with_diameter_at_most(12, 2, 0.3, rng));
    client.submit(request_for(graphs.back(), id));
  }
  for (std::uint64_t id = kAdmitted + 1; id <= kBurst; ++id) {
    const SolveResponse response = client.wait_for(id, std::chrono::milliseconds{20000});
    ASSERT_EQ(response.status, SolveStatus::RejectedOverload) << status_name(response.status);
    // The configured base is the floor; with admitted races pending, the
    // hint stretches to their predicted drain time (capped at 60s) — a
    // client told "123ms" against a held backlog would only bounce off
    // the gate again.
    EXPECT_GE(response.retry_after_ms, 123u);
    EXPECT_LE(response.retry_after_ms, 60'000u);
  }
  EXPECT_TRUE(solver_->portfolio().heuristic_only());

  fault::disarm_all();
  for (std::uint64_t id = 1; id <= kAdmitted; ++id) {
    const SolveResponse response = client.wait_for(id, std::chrono::milliseconds{20000});
    ASSERT_TRUE(response.ok()) << status_name(response.status) << ": " << response.message;
    expect_valid_if_ok(response, graphs[static_cast<std::size_t>(id - 1)]);
  }
  EXPECT_EQ(solver_->rejected_overload(), kBurst - kAdmitted);
  EXPECT_EQ(solver_->metrics_registry().snapshot().counter_or("brownout_sheds"), 1u);
  // Each admitted request left the pending count before its reply was
  // sent, so with every reply in hand the rung has already released.
  EXPECT_FALSE(solver_->portfolio().heuristic_only());

  const Graph fresh = random_with_diameter_at_most(12, 2, 0.3, rng);
  const SolveResponse after = client.solve_retry(request_for(fresh, 900));
  ASSERT_TRUE(after.ok()) << after.message;
  expect_valid_if_ok(after, fresh);
  client.shutdown();
}

TEST_F(ChaosNetTest, OneByteReadsAndWritesStillRoundTripExactly) {
  start();
  LabelingClient client{budgeted_client()};
  client.connect("127.0.0.1", server_->port());

  // Every socket read and write on both sides truncated to one byte:
  // framing must reassemble byte-exactly, just slower.
  fault::arm(FaultSite::NetReadShort, 1.0, 17);
  fault::arm(FaultSite::NetWriteShort, 1.0, 19);
  Rng rng(43);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const Graph graph = random_with_diameter_at_most(10, 2, 0.4, rng);
    const SolveResponse response = client.solve_retry(request_for(graph, id));
    ASSERT_TRUE(response.ok()) << response.message;
    expect_valid_if_ok(response, graph);
  }
  client.shutdown();
}

TEST_F(ChaosNetTest, MixedFaultScheduleNeverCrashesAndNeverLies) {
  BatchSolver::Options solver_options;
  solver_options.portfolio.deadline = std::chrono::milliseconds{150};
  start({}, solver_options);

  ClientOptions options = budgeted_client();
  options.request_timeout = std::chrono::milliseconds{15000};
  LabelingClient client{options};
  client.connect("127.0.0.1", server_->port());

  // A layered schedule: flaky short IO throughout, a bounded number of
  // connection resets, and occasional engine stalls — the kind of bad
  // afternoon a deployment actually has.
  fault::arm(FaultSite::NetReadShort, 0.3, 51);
  fault::arm(FaultSite::NetWriteShort, 0.3, 53);
  fault::arm(FaultSite::NetDisconnect, 0.05, 57, /*max_fires=*/3);
  fault::arm(FaultSite::EngineStall, 0.2, 59, /*max_fires=*/0, /*param=*/20);

  Rng rng(61);
  std::uint64_t ok = 0;
  for (std::uint64_t id = 1; id <= 25; ++id) {
    const Graph graph = random_with_diameter_at_most(10, 2, 0.4, rng);
    const SolveResponse response = client.solve_retry(request_for(graph, id));
    if (response.ok()) {
      expect_valid_if_ok(response, graph);
      ++ok;
    } else {
      // Typed failures only — the client never throws on transport loss
      // and the server never sends garbage.
      EXPECT_TRUE(response.status == SolveStatus::TimedOut ||
                  response.status == SolveStatus::TransportDisconnected ||
                  response.status == SolveStatus::RejectedOverload)
          << status_name(response.status);
    }
  }
  // The disconnect budget is 3 resets against 25 requests with 4 attempts
  // each: the schedule must recover to a healthy majority.
  EXPECT_GE(ok, 20u);

  // Fault-free epilogue: full recovery, no residue.
  fault::disarm_all();
  if (!client.connected()) {
    ASSERT_TRUE(client.reconnect());
  }
  const Graph fresh = random_with_diameter_at_most(12, 2, 0.3, rng);
  const SolveResponse after = client.solve_retry(request_for(fresh, 999));
  ASSERT_TRUE(after.ok()) << after.message;
  expect_valid_if_ok(after, fresh);
  client.shutdown();
}

}  // namespace
}  // namespace lptsp
