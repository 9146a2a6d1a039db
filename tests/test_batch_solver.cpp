#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <vector>

#include "core/labeling.hpp"
#include "graph/generators.hpp"
#include "graph/operations.hpp"
#include "service/batch_solver.hpp"
#include "util/rng.hpp"

namespace lptsp {
namespace {

BatchSolver::Options fast_options() {
  BatchSolver::Options options;
  options.request_workers = 4;
  options.engine_workers = 4;
  options.portfolio.deadline = std::chrono::milliseconds{0};
  return options;
}

TEST(BatchSolver, BatchOfIsomorphicRequestsSolvesOnce) {
  BatchSolver solver(fast_options());
  Rng rng(41);
  const Graph base = random_with_diameter_at_most(18, 2, 0.3, rng);
  constexpr int kRequests = 12;
  std::vector<SolveRequest> requests;
  for (int i = 0; i < kRequests; ++i) {
    SolveRequest request;
    request.graph = relabel(base, rng.permutation(base.n()));
    request.p = PVec::L21();
    request.id = static_cast<std::uint64_t>(i);
    requests.push_back(std::move(request));
  }

  const std::vector<SolveResponse> responses = solver.solve_batch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  EXPECT_EQ(solver.engine_solves(), 1u);  // N isomorphic requests -> 1 solve

  int solved = 0;
  for (int i = 0; i < kRequests; ++i) {
    const SolveResponse& response = responses[static_cast<std::size_t>(i)];
    ASSERT_TRUE(response.ok()) << response.message;
    EXPECT_EQ(response.id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(response.span, responses[0].span);
    // Each response must be valid on ITS OWN graph (vertex numbering
    // differs per request even though the instances are isomorphic).
    EXPECT_TRUE(is_valid_labeling(requests[static_cast<std::size_t>(i)].graph, PVec::L21(),
                                  response.labeling));
    if (response.source == ResponseSource::Solved) ++solved;
  }
  EXPECT_EQ(solved, 1);
}

TEST(BatchSolver, SecondBatchIsServedFromCache) {
  BatchSolver solver(fast_options());
  Rng rng(43);
  const Graph base = random_with_diameter_at_most(15, 2, 0.3, rng);
  std::vector<SolveRequest> requests;
  for (int i = 0; i < 4; ++i) {
    SolveRequest request;
    request.graph = relabel(base, rng.permutation(base.n()));
    requests.push_back(std::move(request));
  }
  (void)solver.solve_batch(requests);
  EXPECT_EQ(solver.engine_solves(), 1u);

  const std::vector<SolveResponse> again = solver.solve_batch(requests);
  EXPECT_EQ(solver.engine_solves(), 1u);  // nothing new to solve
  for (const SolveResponse& response : again) {
    EXPECT_TRUE(response.ok());
    EXPECT_EQ(response.source, ResponseSource::ResultCache);
  }
}

TEST(BatchSolver, BadRequestsGetTypedStatusesNotExceptions) {
  BatchSolver solver(fast_options());
  Rng rng(47);

  Graph disconnected(6);
  disconnected.add_edge(0, 1);
  disconnected.add_edge(2, 3);
  disconnected.add_edge(4, 5);

  std::vector<SolveRequest> requests(4);
  requests[0].graph = disconnected;
  requests[1].graph = path_graph(6);  // diameter 5 > k = 2
  requests[2].graph = star_graph(5);
  requests[2].p = PVec({3, 1});  // pmax > 2*pmin
  requests[3].graph = random_with_diameter_at_most(10, 2, 0.3, rng);  // the good one

  const std::vector<SolveResponse> responses = solver.solve_batch(requests);
  EXPECT_EQ(responses[0].status, SolveStatus::Disconnected);
  EXPECT_EQ(responses[1].status, SolveStatus::DiameterExceedsK);
  EXPECT_EQ(responses[2].status, SolveStatus::MetricConditionViolated);
  EXPECT_TRUE(responses[3].ok()) << responses[3].message;
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(responses[static_cast<std::size_t>(i)].message.empty());
  }

  SolveRequest empty;
  EXPECT_EQ(solver.solve_one(empty).status, SolveStatus::EmptyGraph);
}

TEST(BatchSolver, PinnedEngineIsHonoredAndNotCoalescedAcrossEngines) {
  BatchSolver solver(fast_options());
  Rng rng(53);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);

  std::vector<SolveRequest> requests(2);
  requests[0].graph = graph;
  requests[0].engine = Engine::HeldKarp;
  requests[1].graph = graph;
  requests[1].engine = Engine::ChainedLK;

  const std::vector<SolveResponse> responses = solver.solve_batch(requests);
  ASSERT_TRUE(responses[0].ok());
  ASSERT_TRUE(responses[1].ok());
  EXPECT_EQ(responses[0].engine, Engine::HeldKarp);
  EXPECT_TRUE(responses[0].optimal);
  EXPECT_EQ(responses[1].engine, Engine::ChainedLK);
  EXPECT_EQ(solver.engine_solves(), 2u);  // different engines never share a solve
  EXPECT_GE(responses[1].span, responses[0].span);
}

TEST(BatchSolver, ReductionCacheServesNewPVectorsWithoutNewBfs) {
  BatchSolver solver(fast_options());
  Rng rng(59);
  const Graph graph = random_with_diameter_at_most(14, 2, 0.35, rng);

  SolveRequest first;
  first.graph = graph;
  first.p = PVec::L21();
  ASSERT_TRUE(solver.solve_one(first).ok());

  // Same interference graph, different constraint vector: frequency
  // assignment re-querying under many p — the reduction (distance matrix)
  // is reused, only the matrix fill and engine run.
  SolveRequest second;
  second.graph = graph;
  second.p = PVec({2, 2});
  const SolveResponse response = solver.solve_one(second);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.reduction_cached);
  EXPECT_EQ(response.source, ResponseSource::Solved);
  EXPECT_TRUE(is_valid_labeling(graph, PVec({2, 2}), response.labeling));
}

TEST(BatchSolver, AsyncSubmitCoalescesAndVerifies) {
  BatchSolver solver(fast_options());
  Rng rng(61);
  const Graph base = random_with_diameter_at_most(16, 2, 0.3, rng);
  constexpr int kRequests = 8;
  std::vector<SolveRequest> requests;
  std::vector<std::future<SolveResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    SolveRequest request;
    request.graph = relabel(base, rng.permutation(base.n()));
    request.id = static_cast<std::uint64_t>(i);
    requests.push_back(request);
    futures.push_back(solver.submit(std::move(request)));
  }
  Weight span = -1;
  for (int i = 0; i < kRequests; ++i) {
    const SolveResponse response = futures[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(response.ok()) << response.message;
    if (span < 0) span = response.span;
    EXPECT_EQ(response.span, span);
    EXPECT_TRUE(is_valid_labeling(requests[static_cast<std::size_t>(i)].graph, PVec::L21(),
                                  response.labeling));
  }
  // Exact solve counts depend on scheduling (a follower can slip between a
  // leader finishing and the cache publish), but coalescing + cache must
  // have removed work relative to the request count.
  EXPECT_LT(solver.engine_solves(), static_cast<std::uint64_t>(kRequests));
}

TEST(BatchSolver, TruncatedResultsAreUpgradedByLargerBudgets) {
  // fast_options has an unlimited service default, so the second request
  // brings strictly more budget than the first's 1ms race. The B&B node
  // cap is kept small so the unlimited race stays test-sized.
  BatchSolver::Options options = fast_options();
  options.portfolio.bb_node_limit = 200'000;
  BatchSolver solver(options);
  Rng rng(73);
  const Graph graph = random_with_diameter_at_most(60, 2, 0.15, rng);

  SolveRequest rushed;
  rushed.graph = graph;
  rushed.deadline = std::chrono::milliseconds{1};
  const SolveResponse first = solver.solve_one(rushed);
  ASSERT_TRUE(first.ok()) << first.message;

  SolveRequest patient;
  patient.graph = graph;  // deadline 0 -> unlimited service default
  const SolveResponse second = solver.solve_one(patient);
  ASSERT_TRUE(second.ok()) << second.message;
  if (!first.optimal) {
    // The cached truncated result must not be served to the bigger budget.
    EXPECT_EQ(second.source, ResponseSource::Solved);
    EXPECT_EQ(solver.engine_solves(), 2u);
  }
  EXPECT_LE(second.span, first.span);
  EXPECT_TRUE(is_valid_labeling(graph, patient.p, second.labeling));

  // A third rushed request is served the refreshed entry: produced under
  // an unlimited budget, it is never upgradeable again.
  const SolveResponse third = solver.solve_one(rushed);
  EXPECT_EQ(third.source, ResponseSource::ResultCache);
  EXPECT_EQ(third.span, second.span);
}

TEST(BatchSolver, GroupBudgetIsUnlimitedWhenAnyMemberResolvesToUnlimited) {
  // Two isomorphic requests with deadlines {0, 1 ms} share one solve. The
  // SLO tracker counts exactly the deadline-bounded races, so its count
  // shows which budget the group merge chose, with no timing involved.
  for (const int service_default_ms : {0, 250}) {
    SCOPED_TRACE(service_default_ms);
    BatchSolver::Options options = fast_options();
    options.portfolio.deadline = std::chrono::milliseconds{service_default_ms};
    BatchSolver solver(options);
    Rng rng(83);
    const Graph base = random_with_diameter_at_most(12, 2, 0.3, rng);
    std::vector<SolveRequest> requests(2);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i].graph = relabel(base, rng.permutation(base.n()));
      requests[i].id = i;
    }
    requests[1].deadline = std::chrono::milliseconds{1};
    const std::vector<SolveResponse> responses = solver.solve_batch(requests);
    ASSERT_TRUE(responses[0].ok()) << responses[0].message;
    ASSERT_TRUE(responses[1].ok()) << responses[1].message;
    EXPECT_EQ(solver.engine_solves(), 1u);
    // Default 0: the first member resolves to unlimited, so the group
    // races unbounded and records nothing. Default 250 ms: the members
    // resolve to 250 and 1 ms, and the group races once under 250 ms.
    EXPECT_EQ(solver.slo().hits() + solver.slo().misses(), service_default_ms == 0 ? 0u : 1u);
  }
}

TEST(BatchSolver, CacheDisabledSolvesEveryRequest) {
  BatchSolver::Options options = fast_options();
  options.use_cache = false;
  BatchSolver solver(options);
  Rng rng(67);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  SolveRequest request;
  request.graph = graph;
  ASSERT_TRUE(solver.solve_one(request).ok());
  ASSERT_TRUE(solver.solve_one(request).ok());
  EXPECT_EQ(solver.engine_solves(), 2u);
}

TEST(BatchSolver, PriorityBatchesStillAnswerEveryone) {
  BatchSolver solver(fast_options());
  Rng rng(71);
  std::vector<SolveRequest> requests;
  for (int i = 0; i < 6; ++i) {
    SolveRequest request;
    request.graph = random_with_diameter_at_most(10 + i, 2, 0.3, rng);
    request.priority = i % 3;
    request.deadline = std::chrono::milliseconds{200};
    request.id = static_cast<std::uint64_t>(i);
    requests.push_back(std::move(request));
  }
  const std::vector<SolveResponse> responses = solver.solve_batch(requests);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].message;
    EXPECT_EQ(responses[i].id, requests[i].id);
    EXPECT_TRUE(is_valid_labeling(requests[i].graph, requests[i].p, responses[i].labeling));
  }
}

}  // namespace
}  // namespace lptsp
