#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <vector>

#include "graph/generators.hpp"
#include "obs/journal.hpp"
#include "service/batch_solver.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace lptsp {
namespace {

// BatchSolver admission, the one owner of every overload decision: the
// max_pending_requests and max_pending_work_ns gates and the heuristic-only
// brownout rung. Over-limit submissions must be answered immediately with
// a typed RejectedOverload response — never queued without bound, never an
// exception.

/// Holds the first engine race on its worker until release(): engine.stall
/// fires once with a stall far longer than any test, and disarming ends
/// it. The admitted request stays pending for exactly as long as the test
/// says, however fast the engines are.
class HeldRace {
 public:
  HeldRace() { fault::arm(FaultSite::EngineStall, 1.0, 1, 1, 60'000); }
  ~HeldRace() { release(); }
  HeldRace(const HeldRace&) = delete;
  HeldRace& operator=(const HeldRace&) = delete;
  void release() { fault::disarm_all(); }
};

SolveRequest race_request(Rng& rng, std::uint64_t id) {
  // Unique diameter-2 graphs: every request reaches an engine race.
  SolveRequest request;
  request.graph = random_with_diameter_at_most(40, 2, 0.2, rng);
  request.p = PVec::L21();
  request.deadline = std::chrono::milliseconds{150};
  request.id = id;
  return request;
}

TEST(Backpressure, OverLimitSubmitsResolveImmediatelyWithTypedRejection) {
  BatchSolver::Options options;
  options.max_pending_requests = 1;
  options.request_workers = 1;
  options.retry_after_ms = 123;
  BatchSolver solver(options);
  HeldRace held;

  Rng rng(3);
  std::vector<std::future<SolveResponse>> futures;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    futures.push_back(solver.submit(race_request(rng, id)));
  }
  held.release();
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const SolveResponse response = futures[i].get();
    EXPECT_EQ(response.id, static_cast<std::uint64_t>(i) + 1);
    if (response.status == SolveStatus::RejectedOverload) {
      ++rejected;
      EXPECT_FALSE(response.ok());
      EXPECT_FALSE(response.message.empty());
      EXPECT_TRUE(response.labeling.labels.empty());
      // The solver stamps its own hint: the base, or the predicted drain
      // time of the held backlog when that is longer.
      EXPECT_GE(response.retry_after_ms, 123u);
      EXPECT_LE(response.retry_after_ms, 60'000u);
    } else {
      EXPECT_TRUE(response.ok()) << response.message;
      ++ok;
    }
  }
  EXPECT_GE(ok, 1u);
  EXPECT_GE(rejected, 1u);
  EXPECT_EQ(solver.rejected_overload(), rejected);
}

TEST(Backpressure, SubmitAsyncRejectsInlineBeforeReturning) {
  BatchSolver::Options options;
  options.max_pending_requests = 1;
  options.request_workers = 1;
  BatchSolver solver(options);
  HeldRace held;

  Rng rng(5);
  // Occupy the single admission slot.
  std::promise<SolveResponse> first_done;
  solver.submit_async(race_request(rng, 1),
                      [&first_done](SolveResponse response) {
                        first_done.set_value(std::move(response));
                      });

  // The next submission must be refused synchronously: the callback runs
  // inline, before submit_async returns.
  std::atomic<bool> callback_ran{false};
  SolveResponse rejected;
  solver.submit_async(race_request(rng, 2), [&](SolveResponse response) {
    rejected = std::move(response);
    callback_ran.store(true);
  });
  EXPECT_TRUE(callback_ran.load());
  EXPECT_EQ(rejected.status, SolveStatus::RejectedOverload);
  EXPECT_EQ(rejected.id, 2u);

  held.release();
  const SolveResponse first = first_done.get_future().get();
  EXPECT_TRUE(first.ok()) << first.message;
  EXPECT_EQ(first.id, 1u);
}

TEST(Backpressure, EveryGateRejectionJournalsItsTraceId) {
  for (const bool work_gate : {false, true}) {
    BatchSolver::Options options;
    options.request_workers = 1;
    if (work_gate) {
      options.max_pending_work_ns = 1;  // anything already pending is too much
    } else {
      options.max_pending_requests = 1;
    }
    BatchSolver solver(options);
    HeldRace held;

    Rng rng(13);
    std::future<SolveResponse> admitted = solver.submit(race_request(rng, 1));
    SolveRequest refused = race_request(rng, 2);
    refused.trace_id = work_gate ? 0x5EED0002u : 0x5EED0001u;
    EXPECT_EQ(solver.submit(refused).get().status, SolveStatus::RejectedOverload);
    EXPECT_EQ(solver.rejected_work_priced(), work_gate ? 1u : 0u);
    bool journaled = false;
    for (const obs::JournalEvent& event : obs::journal().snapshot()) {
      journaled = journaled || (event.type == obs::EventType::OverloadReject &&
                                event.trace_id == refused.trace_id);
    }
    EXPECT_TRUE(journaled) << "work_gate=" << work_gate;

    held.release();
    EXPECT_TRUE(admitted.get().ok());
  }
}

/// Drive the heuristic-only rung through one engage/release cycle with
/// `threshold + 1` requests behind a held race on a one-worker solver.
/// Every completion callback parks the worker until the test lets it go,
/// so each step of the pending count is observed in turn and the rung
/// moves on completions alone, with no further submit.
void expect_rung_cycle(std::size_t threshold) {
  const std::size_t count = threshold + 1;
  // Declared before the solver: its destructor drains callbacks that
  // still touch these.
  std::vector<std::promise<void>> done(count);
  std::vector<std::promise<void>> go(count);
  std::vector<SolveResponse> responses(count);
  BatchSolver::Options options;
  options.request_workers = 1;
  options.brownout_heuristic_pending = threshold;
  BatchSolver solver(options);
  HeldRace held;

  Rng rng(17);
  for (std::size_t i = 0; i < count; ++i) {
    solver.submit_async(race_request(rng, i + 1), [&, i](SolveResponse response) {
      responses[i] = std::move(response);
      done[i].set_value();
      go[i].get_future().wait();
    });
    // Engages on the admission that finds `threshold` already pending.
    EXPECT_EQ(solver.portfolio().heuristic_only(), i >= threshold) << "after submit " << i;
  }
  EXPECT_EQ(solver.metrics_registry().snapshot().counter_or("brownout_sheds"), 1u);

  held.release();
  for (std::size_t i = 0; i < count; ++i) {
    done[i].get_future().wait();
    const std::size_t left = count - 1 - i;
    EXPECT_EQ(solver.pending_requests(), left);
    // Holds while pending stays above half the threshold (truncated) and
    // releases at or below it.
    EXPECT_EQ(solver.portfolio().heuristic_only(), left > threshold / 2) << "left " << left;
    go[i].set_value();
  }
  for (const SolveResponse& response : responses) EXPECT_TRUE(response.ok()) << response.message;
  // The held race read the rung after the burst engaged it: the exact
  // engines were shed.
  EXPECT_EQ(responses[0].engine, Engine::ChainedLK);
  EXPECT_EQ(solver.metrics_registry().snapshot().counter_or("brownout_sheds"), 1u);
}

TEST(Backpressure, HeuristicRungEngagesHoldsInsideTheBandAndReleasesOnCompletions) {
  // Engages when the fifth request finds 4 pending; holds as completions
  // leave 4 and 3 pending; releases at 2.
  expect_rung_cycle(4);
}

// A threshold of 1 truncates its exit threshold to 0: the rung must hold
// while one request is still pending and release on the empty queue.
TEST(Backpressure, HeuristicRungThresholdOneReleasesOnlyOnEmptyQueue) {
  expect_rung_cycle(1);
}

TEST(Backpressure, UnlimitedByDefault) {
  BatchSolver solver;  // max_pending_requests = 0
  Rng rng(7);
  std::vector<std::future<SolveResponse>> futures;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    SolveRequest request;
    request.graph = complete_graph(6);
    request.id = id;
    futures.push_back(solver.submit(request));
  }
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  EXPECT_EQ(solver.rejected_overload(), 0u);
  EXPECT_EQ(solver.pending_requests(), 0u);
}

}  // namespace
}  // namespace lptsp
