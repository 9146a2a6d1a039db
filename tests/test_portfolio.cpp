#include <gtest/gtest.h>

#include <chrono>

#include "core/reduction.hpp"
#include "core/solvers.hpp"
#include "graph/generators.hpp"
#include "service/portfolio.hpp"
#include "service/tuner.hpp"
#include "util/rng.hpp"

namespace lptsp {
namespace {

MetricInstance reduced_instance(const Graph& graph, const PVec& p) {
  return reduce_to_path_tsp(graph, p, 1).instance;
}

TEST(Portfolio, ReturnsOptimalOnSmallInstancesWithoutDeadline) {
  TaskPool pool(4);
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{0};  // run everything out
  EnginePortfolio portfolio(pool, options);
  Rng rng(5);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
    const MetricInstance instance = reduced_instance(graph, PVec::L21());

    SolveOptions exact;
    exact.engine = Engine::HeldKarp;
    const Weight optimal_span = solve_labeling(graph, PVec::L21(), exact).span;

    const PortfolioOutcome outcome = portfolio.race(instance);
    EXPECT_TRUE(outcome.optimal);
    EXPECT_EQ(outcome.solution.cost, optimal_span);
    EXPECT_TRUE(is_valid_order(outcome.solution.order, graph.n()));
    EXPECT_EQ(path_length(instance, outcome.solution.order), outcome.solution.cost);
    EXPECT_GE(outcome.attempts.size(), 2u);
    for (const EngineAttempt& attempt : outcome.attempts) {
      if (attempt.finished) {
        EXPECT_TRUE(attempt.verified);
      }
    }
  }
}

TEST(Portfolio, NeverWorseThanSingleHeuristicEngine) {
  TaskPool pool(4);
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{0};
  EnginePortfolio portfolio(pool, options);
  Rng rng(17);
  // n = 16 keeps Held-Karp in the race (and fast), so the portfolio's
  // answer is provably <= the standalone heuristic's.
  const Graph graph = random_with_diameter_at_most(16, 2, 0.25, rng);
  const MetricInstance instance = reduced_instance(graph, PVec::L21());

  ChainedLkOptions lk;
  lk.seed = options.seed;
  const Weight heuristic_cost = chained_lk_path(instance, lk).cost;

  const PortfolioOutcome outcome = portfolio.race(instance);
  EXPECT_LE(outcome.solution.cost, heuristic_cost);
}

TEST(Portfolio, TightDeadlineStillYieldsVerifiedResult) {
  TaskPool pool(4);
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{5};
  EnginePortfolio portfolio(pool, options);
  Rng rng(29);
  const Graph graph = random_with_diameter_at_most(80, 2, 0.15, rng);
  const MetricInstance instance = reduced_instance(graph, PVec::L21());
  const PortfolioOutcome outcome = portfolio.race(instance);
  ASSERT_GE(outcome.solution.cost, 0);
  EXPECT_TRUE(is_valid_order(outcome.solution.order, graph.n()));
  EXPECT_EQ(path_length(instance, outcome.solution.order), outcome.solution.cost);
  bool winner_verified = false;
  for (const EngineAttempt& attempt : outcome.attempts) {
    if (attempt.engine == outcome.winner && attempt.verified) winner_verified = true;
  }
  EXPECT_TRUE(winner_verified);
}

TEST(Portfolio, RaceOverheadHasOneSampleNoLargerThanEachContestedRace) {
  TaskPool pool(4);
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{0};  // both engines finish and verify
  EnginePortfolio portfolio(pool, options);
  obs::MetricRegistry registry;
  portfolio.register_metrics(registry);
  const auto overhead = [&registry] {
    const obs::MetricsSnapshot snap = registry.snapshot();
    const obs::HistogramSnapshot* hist = snap.histogram("race_overhead_ns");
    EXPECT_NE(hist, nullptr);
    return hist != nullptr ? *hist : obs::HistogramSnapshot{};
  };

  Rng rng(41);
  for (int race = 1; race <= 4; ++race) {
    const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
    const MetricInstance instance = reduced_instance(graph, PVec::L21());
    const std::uint64_t sum_before = overhead().sum;
    const PortfolioOutcome outcome = portfolio.race(instance);
    ASSERT_EQ(outcome.attempts.size(), 2u);
    const obs::HistogramSnapshot after = overhead();
    EXPECT_EQ(after.count, static_cast<std::uint64_t>(race));
    EXPECT_LE(after.sum - sum_before, static_cast<std::uint64_t>(outcome.seconds * 1e9));
  }

  // A race with one engine has no rival to wait for, so it adds no sample.
  portfolio.force_heuristic_only(true);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  const PortfolioOutcome alone = portfolio.race(reduced_instance(graph, PVec::L21()));
  ASSERT_EQ(alone.attempts.size(), 1u);
  EXPECT_EQ(overhead().count, 4u);
}

TEST(Portfolio, CertifiedExactFinishCancelsItsRivalFromItsOwnTask) {
  // One FIFO worker and no deadline: Held-Karp runs to completion before
  // chained-LK starts, so the only cancel LK can see is the one the exact
  // attempt stored itself when it certified. Nothing here depends on timing.
  TaskPool pool(1);
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{0};
  EnginePortfolio portfolio(pool, options);
  obs::MetricRegistry registry;
  portfolio.register_metrics(registry);
  Rng rng(53);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  const PortfolioOutcome outcome = portfolio.race(reduced_instance(graph, PVec::L21()));

  ASSERT_EQ(outcome.attempts.size(), 2u);
  const EngineAttempt& exact = outcome.attempts[0];
  const EngineAttempt& heuristic = outcome.attempts[1];
  EXPECT_EQ(exact.engine, Engine::HeldKarp);
  EXPECT_TRUE(exact.optimal);
  EXPECT_EQ(heuristic.engine, Engine::ChainedLK);
  EXPECT_FALSE(heuristic.finished);
  EXPECT_EQ(heuristic.work.lk_kicks, 0u);
  EXPECT_EQ(registry.snapshot().counter_or("engine_race_cancelled_chained_lk"), 1u);
  EXPECT_EQ(outcome.winner, Engine::HeldKarp);
}

TEST(Portfolio, PoisonedTunerStateStillReprobesExactEngine) {
  // Regression: a restart over a heuristic-heavy learned state used to
  // disable the exact engine permanently — with zero exact wins on record
  // the skip rule never launched it again, so exact wins stayed zero
  // forever. The tuner's re-probe must launch the exact engine every Nth
  // otherwise-skipped race and let it recover the bucket.
  TaskPool pool(2);
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{0};  // exact always finishes
  EnginePortfolio portfolio(pool, options);
  obs::MetricRegistry registry;
  portfolio.register_metrics(registry);
  const auto held_karp_wins = [&registry] {
    return registry.snapshot().counter_or("engine_race_wins_held_karp");
  };
  // Restart wiring as in BatchSolver: the tuner takes back a persisted
  // state in which ChainedLK owns the n = 12 bucket and exact never won,
  // so the bucket starts out trimmed.
  const auto bucket = static_cast<std::size_t>(obs::size_bucket(12));
  EngineTuner tuner;
  TunerState poisoned;
  poisoned[bucket].heuristic_score = 1000;
  tuner.restore(poisoned);
  ASSERT_GT(tuner.snapshot()[bucket].heuristic_score, tuner.options().skip_score);
  portfolio.attach_tuner(&tuner);

  Rng rng(11);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  const MetricInstance instance = reduced_instance(graph, PVec::L21());
  bool exact_attempted = false;
  // Unbounded races at n = 12: whenever the exact engine is launched it
  // finishes, certifies the optimum, and wins the tie-break against the
  // heuristic — so "exact recovers wins" reduces to "exact is re-probed".
  for (int race = 0; race < 64 && held_karp_wins() == 0; ++race) {
    const PortfolioOutcome outcome = portfolio.race(instance);
    ASSERT_GE(outcome.solution.cost, 0);
    for (const EngineAttempt& attempt : outcome.attempts) {
      if (attempt.engine == Engine::HeldKarp || attempt.engine == Engine::BranchBound) {
        exact_attempted = true;
      }
    }
  }
  EXPECT_TRUE(exact_attempted) << "exact engine was never re-probed from a poisoned state";
  EXPECT_GE(held_karp_wins(), 1u) << "re-probed exact engine failed to recover wins";
}

TEST(Portfolio, TrivialInstancesAreExactInline) {
  TaskPool pool(2);
  EnginePortfolio portfolio(pool);
  const MetricInstance instance = reduced_instance(path_graph(2), PVec({2}));
  const PortfolioOutcome outcome = portfolio.race(instance);
  EXPECT_TRUE(outcome.optimal);
  EXPECT_EQ(outcome.solution.cost, 2);
}

}  // namespace
}  // namespace lptsp
