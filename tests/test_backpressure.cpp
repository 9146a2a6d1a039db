#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <vector>

#include "graph/generators.hpp"
#include "service/batch_solver.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace lptsp {
namespace {

// The BatchSolver admission gate (max_pending_requests): the backpressure
// hook the socket front-end plugs into. Over-limit submissions must be
// answered immediately with a typed RejectedOverload response — never
// queued without bound, never an exception.

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
