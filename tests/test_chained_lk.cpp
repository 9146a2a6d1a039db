#include <gtest/gtest.h>

#include <atomic>

#include "core/reduction.hpp"
#include "graph/generators.hpp"
#include "tsp/brute_force.hpp"
#include "tsp/chained_lk.hpp"
#include "tsp/construct.hpp"
#include "tsp/lin_kernighan.hpp"
#include "tsp/local_search.hpp"
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

TEST(LkStyle, ValidAndNotWorseThanStart) {
  Rng rng(1);
  const MetricInstance instance = random_instance(20, rng);
  const Order start = rng.permutation(20);
  const Weight start_cost = path_length(instance, start);
  const PathSolution solution = lin_kernighan_style_path_from(instance, start);
  EXPECT_TRUE(is_valid_order(solution.order, 20));
  EXPECT_LE(solution.cost, start_cost);
  EXPECT_EQ(path_length(instance, solution.order), solution.cost);
}

TEST(LkStyle, RequiresValidStart) {
  const MetricInstance instance(4);
  EXPECT_THROW(lin_kernighan_style_path_from(instance, {0, 1}), precondition_error);
}

TEST(PathOptimizerCancel, SetFlagStopsAtTheFirstMoveBoundaryWithAValidOrder) {
  Rng rng(3);
  const MetricInstance instance = random_instance(60, rng);
  const CandidateLists candidates(instance);
  std::atomic<bool> cancel{true};
  PathOptimizer optimizer(instance, candidates, &cancel);
  Order order = rng.permutation(60);
  const Order start = order;
  EXPECT_FALSE(optimizer.optimize(order));
  EXPECT_EQ(order, start);
  EXPECT_EQ(optimizer.stats().moves, 0u);
  // A cancelled optimizer leaves no stale queue behind: cleared, it runs
  // to a local optimum like a fresh one.
  cancel.store(false);
  EXPECT_TRUE(optimizer.optimize(order));
  EXPECT_TRUE(is_valid_order(order, 60));
  EXPECT_LT(path_length(instance, order), path_length(instance, start));
}

TEST(ChainedLkCancel, CancelledUpFrontStillReturnsAValidPath) {
  Rng rng(4);
  const MetricInstance instance = random_instance(60, rng);
  std::atomic<bool> cancel{true};
  ChainedLkOptions options;
  options.cancel = &cancel;
  const ChainedLkRun run = chained_lk_path_run(instance, options);
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.kicks, 0u);
  EXPECT_EQ(run.moves, 0u);
  EXPECT_TRUE(is_valid_order(run.solution.order, 60));
  EXPECT_EQ(path_length(instance, run.solution.order), run.solution.cost);
}

class ChainedLkProperty : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<std::uint64_t>(GetParam() * 419 + 31)};
};

TEST_P(ChainedLkProperty, FindsOptimaOnSmallInstances) {
  const MetricInstance instance = random_instance(9, rng_);
  ChainedLkOptions options;
  options.restarts = 3;
  options.kicks = 30;
  options.seed = static_cast<std::uint64_t>(GetParam());
  const PathSolution lk = chained_lk_path(instance, options);
  const PathSolution exact = brute_force_path(instance);
  EXPECT_TRUE(is_valid_order(lk.order, 9));
  EXPECT_GE(lk.cost, exact.cost);
  // Chained LK with 90 local searches virtually always hits n=9 optima;
  // allow a tiny slack to keep the test robust rather than flaky.
  EXPECT_LE(static_cast<double>(lk.cost), 1.05 * static_cast<double>(exact.cost));
}

TEST_P(ChainedLkProperty, DeterministicForFixedSeed) {
  const MetricInstance instance = random_instance(15, rng_);
  ChainedLkOptions options;
  options.restarts = 2;
  options.kicks = 10;
  options.seed = 12345;
  const PathSolution first = chained_lk_path(instance, options);
  const PathSolution second = chained_lk_path(instance, options);
  EXPECT_EQ(first.cost, second.cost);
  EXPECT_EQ(first.order, second.order);
}

TEST_P(ChainedLkProperty, ParallelMatchesSerialCost) {
  const MetricInstance instance = random_instance(14, rng_);
  ChainedLkOptions serial;
  serial.restarts = 3;
  serial.kicks = 8;
  serial.seed = 777;
  serial.threads = 1;
  ChainedLkOptions parallel = serial;
  parallel.threads = 0;
  // Restart streams are seeded independently, so the best cost is
  // identical regardless of scheduling.
  EXPECT_EQ(chained_lk_path(instance, serial).cost, chained_lk_path(instance, parallel).cost);
}

TEST_P(ChainedLkProperty, NeverWorseThanPlainLk) {
  const Graph graph = random_with_diameter_at_most(16, 2, 0.3, rng_);
  const auto reduced = reduce_to_path_tsp(graph, PVec::L21());
  Rng lk_rng(99);
  const PathSolution plain = lin_kernighan_style_path(reduced.instance, lk_rng);
  ChainedLkOptions options;
  options.restarts = 2;
  options.kicks = 15;
  options.seed = 99;
  const PathSolution chained = chained_lk_path(reduced.instance, options);
  EXPECT_LE(chained.cost, plain.cost);
  EXPECT_GE(chained.cost, mst_lower_bound(reduced.instance));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainedLkProperty, ::testing::Range(0, 6));

}  // namespace
}  // namespace lptsp
