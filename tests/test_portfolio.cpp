#include <gtest/gtest.h>

#include <bit>
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

TEST(Portfolio, RecordsWinnersPerSizeBucket) {
  TaskPool pool(4);
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{0};
  EnginePortfolio portfolio(pool, options);
  Rng rng(31);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  const MetricInstance instance = reduced_instance(graph, PVec::L21());
  const PortfolioOutcome outcome = portfolio.race(instance);
  EXPECT_GE(portfolio.wins(instance.n(), outcome.winner), 1u);
}

TEST(Portfolio, PreferredEngineFallsBackToSizeHeuristic) {
  TaskPool pool(2);
  EnginePortfolio portfolio(pool);
  EXPECT_EQ(portfolio.preferred_engine(10), Engine::HeldKarp);
  EXPECT_EQ(portfolio.preferred_engine(200), Engine::ChainedLK);
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

/// merge_win_table was only exercised indirectly (through the durable
/// service restart test); these pin its contract directly. Counter layout:
/// bucket-major flat vector of kBuckets * kSlots, bucket = bit_width(n),
/// slots ordered HeldKarp / BranchBound / ChainedLK.
class WinTableMerge : public ::testing::Test {
 protected:
  static std::size_t index_of(int n, int slot) {
    return static_cast<std::size_t>(std::bit_width(static_cast<unsigned>(n))) *
               EnginePortfolio::kSlots +
           static_cast<std::size_t>(slot);
  }

  static std::vector<std::uint64_t> empty_table() {
    return std::vector<std::uint64_t>(
        static_cast<std::size_t>(EnginePortfolio::kBuckets) * EnginePortfolio::kSlots, 0);
  }

  TaskPool pool_{2};
  EnginePortfolio portfolio_{pool_};
};

TEST_F(WinTableMerge, DisjointTablesPreserveEveryCount) {
  auto first = empty_table();
  first[index_of(10, 0)] = 7;  // HeldKarp wins at n~10
  auto second = empty_table();
  second[index_of(200, 2)] = 3;  // ChainedLK wins at n~200
  portfolio_.merge_win_table(first);
  portfolio_.merge_win_table(second);
  EXPECT_EQ(portfolio_.wins(10, Engine::HeldKarp), 7u);
  EXPECT_EQ(portfolio_.wins(200, Engine::ChainedLK), 3u);
  EXPECT_EQ(portfolio_.wins(10, Engine::ChainedLK), 0u);
  EXPECT_EQ(portfolio_.wins(200, Engine::HeldKarp), 0u);
  // The merged table reads back exactly the element-wise sum.
  auto want = empty_table();
  want[index_of(10, 0)] = 7;
  want[index_of(200, 2)] = 3;
  EXPECT_EQ(portfolio_.win_table(), want);
}

TEST_F(WinTableMerge, OverlappingTablesAddCounts) {
  auto counts = empty_table();
  counts[index_of(16, 1)] = 5;  // BranchBound at n~16
  portfolio_.merge_win_table(counts);
  counts[index_of(16, 1)] = 11;
  portfolio_.merge_win_table(counts);
  EXPECT_EQ(portfolio_.wins(16, Engine::BranchBound), 16u);
  // Same bucket, different slot stays independent.
  EXPECT_EQ(portfolio_.wins(16, Engine::HeldKarp), 0u);
}

TEST_F(WinTableMerge, EmptyTableIsIdentityAndWrongLengthIsIgnored) {
  auto counts = empty_table();
  counts[index_of(12, 0)] = 4;
  portfolio_.merge_win_table(counts);
  const auto before = portfolio_.win_table();

  portfolio_.merge_win_table(empty_table());  // all-zero: identity
  EXPECT_EQ(portfolio_.win_table(), before);

  portfolio_.merge_win_table({});  // zero-length: ignored
  portfolio_.merge_win_table(std::vector<std::uint64_t>(5, 99));        // too short
  portfolio_.merge_win_table(std::vector<std::uint64_t>(
      static_cast<std::size_t>(EnginePortfolio::kBuckets) * EnginePortfolio::kSlots + 1,
      99));  // too long
  EXPECT_EQ(portfolio_.win_table(), before);
}

TEST_F(WinTableMerge, MergePreservesLiveRaceCounts) {
  // Counts recorded by actual races and merged-in persisted counts add up.
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{0};
  EnginePortfolio racing(pool_, options);
  Rng rng(77);
  const Graph graph = random_with_diameter_at_most(10, 2, 0.3, rng);
  const MetricInstance instance = reduced_instance(graph, PVec::L21());
  const PortfolioOutcome outcome = racing.race(instance);
  const std::uint64_t live = racing.wins(instance.n(), outcome.winner);
  ASSERT_GE(live, 1u);

  auto persisted = empty_table();
  persisted[index_of(instance.n(),
                     outcome.winner == Engine::HeldKarp ? 0
                     : outcome.winner == Engine::BranchBound ? 1 : 2)] = 9;
  racing.merge_win_table(persisted);
  EXPECT_EQ(racing.wins(instance.n(), outcome.winner), live + 9);
}

TEST_F(WinTableMerge, PoisonedHeuristicTableStillReprobesExactEngine) {
  // Regression: a restart that merges a heuristic-heavy persisted win
  // table used to disable the exact engine permanently — with zero exact
  // wins on record the skip rule never launched it again, so exact wins
  // stayed zero forever. The tuner's re-probe must launch the exact engine
  // every Nth otherwise-skipped race and let it recover the bucket.
  PortfolioOptions options;
  options.deadline = std::chrono::milliseconds{0};  // exact always finishes
  EnginePortfolio portfolio(pool_, options);
  auto poisoned = empty_table();
  poisoned[index_of(12, 2)] = 1000;  // ChainedLK owns the bucket, exact never won
  portfolio.merge_win_table(poisoned);
  // Restart wiring as in BatchSolver: the tuner is seeded from the same
  // persisted table, so the bucket starts out trimmed.
  EngineTuner tuner;
  tuner.seed_from_win_table(poisoned, EnginePortfolio::kSlots);
  portfolio.attach_tuner(&tuner);

  Rng rng(11);
  const Graph graph = random_with_diameter_at_most(12, 2, 0.3, rng);
  const MetricInstance instance = reduced_instance(graph, PVec::L21());
  bool exact_attempted = false;
  // Unbounded races at n = 12: whenever the exact engine is launched it
  // finishes, certifies the optimum, and wins the tie-break against the
  // heuristic — so "exact recovers wins" reduces to "exact is re-probed".
  for (int race = 0; race < 64 && portfolio.wins(12, Engine::HeldKarp) == 0; ++race) {
    const PortfolioOutcome outcome = portfolio.race(instance);
    ASSERT_GE(outcome.solution.cost, 0);
    for (const EngineAttempt& attempt : outcome.attempts) {
      if (attempt.engine == Engine::HeldKarp || attempt.engine == Engine::BranchBound) {
        exact_attempted = true;
      }
    }
  }
  EXPECT_TRUE(exact_attempted) << "exact engine was never re-probed from a poisoned table";
  EXPECT_GE(portfolio.wins(12, Engine::HeldKarp), 1u)
      << "re-probed exact engine failed to recover wins";
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
