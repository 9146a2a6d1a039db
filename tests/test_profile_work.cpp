#include <gtest/gtest.h>

#include <chrono>

#include "core/reduction.hpp"
#include "graph/generators.hpp"
#include "kernels/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "service/portfolio.hpp"
#include "tsp/branch_bound.hpp"
#include "tsp/chained_lk.hpp"
#include "tsp/held_karp.hpp"
#include "tsp/local_search.hpp"
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

/// The profiling contract the README documents: a completed engine run's
/// work counts are deterministic functions of (instance, options) —
/// identical whether the kernels dispatch the forced-scalar tier or
/// whatever wider tier this machine runs natively. Nanoseconds differ
/// across tiers; work counts must not, or cross-machine comparisons of
/// work rates would be meaningless.
TEST(WorkCountersIsa, HeldKarpWorkIdenticalUnderScalarAndNativeDispatch) {
  const IsaTier native = kernels::detected_isa_tier();
  const IsaTier restore = kernels::active_isa_tier();
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
    const MetricInstance instance = random_instance(11 + seed % 3, rng);

    kernels::set_isa_tier(IsaTier::Scalar);
    const HeldKarpRun scalar = held_karp_path_run(instance);
    kernels::set_isa_tier(native);
    const HeldKarpRun wide = held_karp_path_run(instance);

    ASSERT_TRUE(scalar.completed);
    ASSERT_TRUE(wide.completed);
    EXPECT_EQ(scalar.solution.cost, wide.solution.cost) << "seed=" << seed;
    EXPECT_EQ(scalar.layers, wide.layers) << "seed=" << seed;
    EXPECT_EQ(scalar.cells, wide.cells) << "seed=" << seed;
    EXPECT_GT(scalar.layers, 0u);
    EXPECT_GT(scalar.cells, 0u);
  }
  kernels::set_isa_tier(restore);
}

TEST(WorkCountersIsa, HeldKarpCellsIndependentOfThreadCount) {
  Rng rng(17);
  const MetricInstance instance = random_instance(13, rng);
  HeldKarpOptions serial;
  serial.threads = 1;
  HeldKarpOptions pooled;
  pooled.threads = 0;
  const HeldKarpRun a = held_karp_path_run(instance, serial);
  const HeldKarpRun b = held_karp_path_run(instance, pooled);
  EXPECT_EQ(a.layers, b.layers);
  EXPECT_EQ(a.cells, b.cells);
  // A completed DP writes exactly one cell per (subset, end) pair it
  // processes; for free endpoints that is sum over layers of C(n,k)*k.
  EXPECT_EQ(a.layers, 13u);
}

TEST(WorkCountersIsa, BranchBoundWorkIdenticalUnderScalarAndNativeDispatch) {
  const IsaTier native = kernels::detected_isa_tier();
  const IsaTier restore = kernels::active_isa_tier();
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 4241 + 9);
    const MetricInstance instance = random_instance(10, rng);

    kernels::set_isa_tier(IsaTier::Scalar);
    const BranchBoundRun scalar = branch_bound_path_run(instance);
    kernels::set_isa_tier(native);
    const BranchBoundRun wide = branch_bound_path_run(instance);

    ASSERT_TRUE(scalar.completed);
    ASSERT_TRUE(wide.completed);
    EXPECT_EQ(scalar.nodes, wide.nodes) << "seed=" << seed;
    EXPECT_EQ(scalar.pruned, wide.pruned) << "seed=" << seed;
    EXPECT_GT(scalar.nodes, 0);
  }
  kernels::set_isa_tier(restore);
}

TEST(WorkCountersIsa, ChainedLkWorkIdenticalUnderScalarAndNativeDispatch) {
  const IsaTier native = kernels::detected_isa_tier();
  const IsaTier restore = kernels::active_isa_tier();
  for (int seed = 0; seed < 4; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 271 + 5);
    const MetricInstance instance = random_instance(16, rng);
    ChainedLkOptions options;
    options.restarts = 2;
    options.kicks = 12;
    options.seed = static_cast<std::uint64_t>(seed) + 1;
    options.threads = 1;

    kernels::set_isa_tier(IsaTier::Scalar);
    const ChainedLkRun scalar = chained_lk_path_run(instance, options);
    kernels::set_isa_tier(native);
    const ChainedLkRun wide = chained_lk_path_run(instance, options);

    ASSERT_TRUE(scalar.completed);
    ASSERT_TRUE(wide.completed);
    EXPECT_EQ(scalar.solution.cost, wide.solution.cost) << "seed=" << seed;
    EXPECT_EQ(scalar.kicks, wide.kicks) << "seed=" << seed;
    EXPECT_EQ(scalar.accepted, wide.accepted) << "seed=" << seed;
    EXPECT_EQ(scalar.wakes, wide.wakes) << "seed=" << seed;
    EXPECT_EQ(scalar.moves, wide.moves) << "seed=" << seed;
    // Every restart runs its full kick schedule when uncancelled.
    EXPECT_EQ(scalar.kicks, 2u * 12u);
    EXPECT_GT(scalar.wakes, 0u);
  }
  kernels::set_isa_tier(restore);
}

TEST(WorkCountersIsa, ChainedLkWorkIndependentOfThreadCount) {
  Rng rng(23);
  const MetricInstance instance = random_instance(14, rng);
  ChainedLkOptions serial;
  serial.restarts = 3;
  serial.kicks = 8;
  serial.seed = 99;
  serial.threads = 1;
  ChainedLkOptions pooled = serial;
  pooled.threads = 0;
  const ChainedLkRun a = chained_lk_path_run(instance, serial);
  const ChainedLkRun b = chained_lk_path_run(instance, pooled);
  EXPECT_EQ(a.kicks, b.kicks);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.wakes, b.wakes);
  EXPECT_EQ(a.moves, b.moves);
}

TEST(PathOptimizerStats, CountsWakesAndMovesAndResets) {
  Rng rng(7);
  const MetricInstance instance = random_instance(20, rng);
  PathOptimizer optimizer(instance);
  Order order = rng.permutation(20);
  optimizer.optimize(order);
  // optimize() wakes every vertex at least once; a random start on a
  // random metric essentially always admits improving moves.
  EXPECT_GE(optimizer.stats().wakes, 20u);
  EXPECT_GT(optimizer.stats().moves, 0u);
  const std::uint64_t wakes_after_first = optimizer.stats().wakes;
  // A second optimize from the fixpoint finds nothing but still wakes.
  optimizer.optimize(order);
  EXPECT_GT(optimizer.stats().wakes, wakes_after_first);
  optimizer.reset_stats();
  EXPECT_EQ(optimizer.stats().wakes, 0u);
  EXPECT_EQ(optimizer.stats().moves, 0u);
}

TEST(EngineWork, MergeAndAnyBehave) {
  obs::EngineWork a;
  EXPECT_FALSE(a.any());
  a.bb_nodes = 3;
  a.hk_cells = 5;
  obs::EngineWork b;
  b.bb_nodes = 2;
  b.lk_kicks = 7;
  a.merge(b);
  EXPECT_EQ(a.bb_nodes, 5u);
  EXPECT_EQ(a.lk_kicks, 7u);
  EXPECT_EQ(a.hk_cells, 5u);
  EXPECT_TRUE(a.any());
}

TEST(WorkCountersAggregate, AddTotalsAndRegistryNames) {
  obs::WorkCounters counters;
  obs::EngineWork work;
  work.bb_nodes = 10;
  work.bb_pruned = 4;
  work.lk_kicks = 3;
  work.hk_layers = 2;
  work.hk_cells = 100;
  counters.add(work);
  counters.add(work);
  const obs::EngineWork totals = counters.totals();
  EXPECT_EQ(totals.bb_nodes, 20u);
  EXPECT_EQ(totals.bb_pruned, 8u);
  EXPECT_EQ(totals.lk_kicks, 6u);
  EXPECT_EQ(totals.lk_accepted, 0u);
  EXPECT_EQ(totals.hk_cells, 200u);

  obs::MetricRegistry registry;
  counters.register_into(registry, &counters);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_or("engine_work_bb_nodes"), 20u);
  EXPECT_EQ(snapshot.counter_or("engine_work_hk_cells"), 200u);
  EXPECT_EQ(snapshot.counter_or("engine_work_lk_accepted", 7), 0u);
  registry.deregister(&counters);

  const std::string json = counters.to_json(2'000'000'000);  // 2s uptime
  EXPECT_NE(json.find("\"branch_bound\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"nodes\":20"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cells\":200"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cells_per_s\":100.00"), std::string::npos) << json;
}

TEST(PortfolioWork, AttemptsCarryWorkAndOutcomeMergesIt) {
  TaskPool pool(4);
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{0};  // run everything out
  EnginePortfolio portfolio(pool, options);
  Rng rng(11);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  const MetricInstance instance = reduce_to_path_tsp(graph, PVec::L21(), 1).instance;

  const PortfolioOutcome outcome = portfolio.race(instance);
  ASSERT_GE(outcome.attempts.size(), 2u);

  obs::EngineWork manual;
  bool any_attempt_worked = false;
  for (const EngineAttempt& attempt : outcome.attempts) {
    if (attempt.work.any()) any_attempt_worked = true;
    manual.merge(attempt.work);
    // Work fields match the engine that ran: the exact slot never reports
    // LK kicks and the heuristic slot never reports DP cells.
    if (attempt.engine == Engine::HeldKarp) {
      EXPECT_EQ(attempt.work.lk_kicks, 0u);
      EXPECT_GT(attempt.work.hk_cells, 0u);
    }
    if (attempt.engine == Engine::ChainedLK) {
      EXPECT_EQ(attempt.work.hk_cells, 0u);
      EXPECT_GT(attempt.work.lk_wakes, 0u);
    }
  }
  EXPECT_TRUE(any_attempt_worked);
  EXPECT_EQ(outcome.work.bb_nodes, manual.bb_nodes);
  EXPECT_EQ(outcome.work.lk_kicks, manual.lk_kicks);
  EXPECT_EQ(outcome.work.hk_cells, manual.hk_cells);

  // The portfolio's lifetime counters absorbed the same totals.
  const obs::EngineWork lifetime = portfolio.work().totals();
  EXPECT_GE(lifetime.hk_cells, manual.hk_cells);
  EXPECT_GE(lifetime.lk_wakes, manual.lk_wakes);
}

}  // namespace
}  // namespace lptsp
