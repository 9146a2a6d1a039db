#include <gtest/gtest.h>

#include <chrono>

#include "core/reduction.hpp"
#include "graph/generators.hpp"
#include "tsp/branch_bound.hpp"
#include "tsp/brute_force.hpp"
#include "tsp/held_karp.hpp"
#include "tsp/lower_bounds.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace lptsp {
namespace {

MetricInstance random_instance(int n, Rng& rng, int lo = 1, int hi = 9) {
  MetricInstance instance(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) instance.set_weight(i, j, rng.uniform_int(lo, hi));
  }
  return instance;
}

TEST(BranchBound, TinyInstances) {
  EXPECT_EQ(branch_bound_path(MetricInstance(1)).cost, 0);
  MetricInstance pair(2);
  pair.set_weight(0, 1, 5);
  EXPECT_EQ(branch_bound_path(pair).cost, 5);
}

class BranchBoundCross : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<std::uint64_t>(GetParam() * 887 + 3)};
};

TEST_P(BranchBoundCross, MatchesBruteForceOnGeneralWeights) {
  for (int n = 3; n <= 8; ++n) {
    const MetricInstance instance = random_instance(n, rng_);
    const PathSolution bb = branch_bound_path(instance);
    const PathSolution bf = brute_force_path(instance);
    EXPECT_EQ(bb.cost, bf.cost) << "n = " << n;
    EXPECT_TRUE(is_valid_order(bb.order, n));
    EXPECT_EQ(path_length(instance, bb.order), bb.cost);
  }
}

TEST_P(BranchBoundCross, MatchesHeldKarpOnReducedInstances) {
  const Graph graph = random_with_diameter_at_most(14, 2, 0.3, rng_);
  const auto reduced = reduce_to_path_tsp(graph, PVec::L21());
  EXPECT_EQ(branch_bound_path(reduced.instance).cost, held_karp_path(reduced.instance).cost);
}

TEST_P(BranchBoundCross, BoundCertifiedRunsMatchHeldKarpUpToN14) {
  // A warm start on the trivial bound returns at one node without a
  // search; that early return must never cut off a cheaper path.
  for (int n = 4; n <= 14; ++n) {
    const Graph graph = random_with_diameter_at_most(n, 2, 0.3, rng_);
    const auto reduced = reduce_to_path_tsp(graph, PVec::L21());
    const BranchBoundRun run = branch_bound_path_run(reduced.instance);
    EXPECT_TRUE(run.completed);
    EXPECT_EQ(run.solution.cost, held_karp_path(reduced.instance).cost) << "n = " << n;
    EXPECT_TRUE(is_valid_order(run.solution.order, n));
    EXPECT_EQ(path_length(reduced.instance, run.solution.order), run.solution.cost);
    if (run.nodes == 1 && run.pruned == 0) {  // the early return; a root prune counts 1
      EXPECT_EQ(run.solution.cost, trivial_lower_bound(reduced.instance)) << "n = " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BranchBoundCross, ::testing::Range(0, 8));

TEST(BranchBound, WarmStartOnTheTrivialBoundCertifiesAtOneNode) {
  // Every edge weighs 1: nearest neighbour is already on (n-1) * 1.
  MetricInstance instance(10);
  for (int i = 0; i < 10; ++i) {
    for (int j = i + 1; j < 10; ++j) instance.set_weight(i, j, 1);
  }
  const BranchBoundRun run = branch_bound_path_run(instance);
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.nodes, 1);
  EXPECT_EQ(run.solution.cost, 9);
  EXPECT_TRUE(is_valid_order(run.solution.order, 10));
}

TEST(BranchBound, PassedDeadlineStopsWithAFeasibleIncumbent) {
  // One weight-1 edge and the rest in [2, 9]: no path meets the trivial
  // bound of 29, so the search runs until its first deadline poll.
  Rng rng(13);
  MetricInstance instance = random_instance(30, rng, 2, 9);
  instance.set_weight(0, 1, 1);
  BranchBoundOptions options;
  options.node_limit = 0;
  options.deadline = std::chrono::steady_clock::now() - std::chrono::seconds{1};
  const BranchBoundRun run = branch_bound_path_run(instance, options);
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.nodes, 1024);
  EXPECT_TRUE(is_valid_order(run.solution.order, 30));
  EXPECT_EQ(path_length(instance, run.solution.order), run.solution.cost);
}

TEST(BranchBound, SolvesBeyondHeldKarpMemoryWall) {
  // n = 30 is far beyond the 2^n table; bounded metrics stay tractable.
  Rng rng(5);
  const Graph graph = random_with_diameter_at_most(30, 2, 0.3, rng);
  const auto reduced = reduce_to_path_tsp(graph, PVec::L21());
  const PathSolution solution = branch_bound_path(reduced.instance);
  EXPECT_TRUE(is_valid_order(solution.order, 30));
  // The bounded-weight trivial bound (n-1)*pmin certifies optimality when
  // the graph has a Hamiltonian path of cheap edges.
  EXPECT_GE(solution.cost, 29);
}

TEST(BranchBound, NodeLimitIsEnforced) {
  Rng rng(9);
  const MetricInstance instance = random_instance(14, rng, 1, 100);
  BranchBoundOptions options;
  options.node_limit = 10;  // absurdly tight on purpose
  EXPECT_THROW(branch_bound_path(instance, options), precondition_error);
}

TEST(BranchBound, ZeroLimitMeansUnlimited) {
  Rng rng(11);
  const MetricInstance instance = random_instance(8, rng);
  BranchBoundOptions options;
  options.node_limit = 0;
  EXPECT_EQ(branch_bound_path(instance, options).cost, brute_force_path(instance).cost);
}

}  // namespace
}  // namespace lptsp
