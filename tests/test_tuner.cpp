#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <limits>
#include <string>

#include "graph/generators.hpp"
#include "service/batch_solver.hpp"
#include "service/tuner.hpp"
#include "store/backend.hpp"
#include "util/rng.hpp"

namespace lptsp {
namespace {

constexpr std::chrono::milliseconds kDeadline{250};

TunerOptions fast_options() {
  TunerOptions options;
  options.decay_every = 8;
  options.skip_score = 4.0;
  options.reprobe_every = 4;
  options.effort_update_every = 4;
  return options;
}

/// Race the tuner into a trimmed state: contested heuristic wins until the
/// heuristic score clears skip_score.
void feed_heuristic_wins(EngineTuner& tuner, int bucket, int count) {
  for (int i = 0; i < count; ++i) {
    (void)tuner.admit_exact(bucket);
    tuner.observe_race(bucket, /*exact_won=*/false, /*contested=*/true, 1'000'000, 0);
  }
}

TEST(EngineTuner, FreshBucketAlwaysAdmitsExact) {
  EngineTuner tuner(fast_options(), kDeadline);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(tuner.admit_exact(4));
  }
  EXPECT_EQ(tuner.pretrim_skips(), 0u);
}

TEST(EngineTuner, TrimsAfterHeuristicDominanceButKeepsReprobing) {
  EngineTuner tuner(fast_options(), kDeadline);
  feed_heuristic_wins(tuner, 4, 5);  // score 5 > skip_score 4, no exact wins

  int admitted = 0;
  for (int i = 0; i < 8; ++i) {
    if (tuner.admit_exact(4)) ++admitted;
  }
  // Trimmed: exactly the epsilon re-probes (every 4th skip) get through.
  EXPECT_EQ(admitted, 2);
  EXPECT_EQ(tuner.reprobes(), 2u);
  // 6 skips in the loop above plus the one trimmed admit inside
  // feed_heuristic_wins (the 5th call, after the score crossed).
  EXPECT_EQ(tuner.pretrim_skips(), 7u);
  // Other buckets are untouched.
  EXPECT_TRUE(tuner.admit_exact(7));
}

TEST(EngineTuner, ReprobeWinsUntrimTheBucket) {
  EngineTuner tuner(fast_options(), kDeadline);
  feed_heuristic_wins(tuner, 4, 5);
  ASSERT_FALSE(tuner.admit_exact(4));

  // The exact engine starts winning its re-probes; one contested win
  // clears the presence floor and the trim lifts immediately.
  tuner.observe_race(4, /*exact_won=*/true, /*contested=*/true, 1'000'000, 0);
  EXPECT_TRUE(tuner.admit_exact(4));
}

TEST(EngineTuner, DecayAgesOutHeuristicDominance) {
  TunerOptions options = fast_options();
  options.reprobe_every = 0;  // no re-probe: only decay can recover this bucket
  EngineTuner tuner(options, kDeadline);
  feed_heuristic_wins(tuner, 4, 5);
  ASSERT_FALSE(tuner.admit_exact(4));

  // Uncontested races (the trimmed steady state) still count as
  // observations, so the heuristic score halves every decay_every of them
  // and eventually drops below skip_score.
  for (int i = 0; i < 32 && !tuner.admit_exact(4); ++i) {
    tuner.observe_race(4, false, /*contested=*/false, 1'000'000, 0);
  }
  EXPECT_TRUE(tuner.admit_exact(4));
}

TEST(EngineTuner, RestoredPoisonedStateIsCappedAndRecoverable) {
  EngineTuner tuner(fast_options(), kDeadline);
  // A poisoned persisted state: a huge heuristic score in bucket 4, zero
  // exact. Under the frozen rule this disabled the exact engine forever.
  TunerState poisoned;
  poisoned[4].heuristic_score = 100'000;
  tuner.restore(poisoned);
  EXPECT_EQ(tuner.snapshot()[4].heuristic_score, 16.0);  // skip_score * 4

  EXPECT_FALSE(tuner.admit_exact(4));  // biased: starts trimmed...
  int admitted = 0;
  for (int i = 0; i < 8; ++i) {
    if (tuner.admit_exact(4)) ++admitted;
  }
  EXPECT_GT(admitted, 0);  // ...but the re-probe still fires.

  // The restored score is capped (skip_score * 4 = 16), so a handful of
  // decay windows erases it: 16 -> 8 -> 4(=skip_score) -> 2 < skip_score.
  for (int i = 0; i < 24; ++i) {
    tuner.observe_race(4, false, false, 1'000'000, 0);
  }
  EXPECT_TRUE(tuner.admit_exact(4));
}

TEST(EngineTuner, RestoreSanitizesScoresAndClampsEffort) {
  TunerState state;
  state[3] = {-5.0, std::numeric_limits<double>::quiet_NaN(), 10'000};
  state[4] = {std::numeric_limits<double>::infinity(), 2.5, -40};
  state[5] = {1.5, 0.0, 150};
  EngineTuner tuner(fast_options(), kDeadline);
  tuner.restore(state);
  const TunerState got = tuner.snapshot();
  EXPECT_EQ(got[3], (TunerBucketState{0.0, 0.0, 400}));   // effort_max_percent
  EXPECT_EQ(got[4], (TunerBucketState{16.0, 2.5, 25}));   // the cap, effort_min_percent
  EXPECT_EQ(got[5], state[5]);                            // in range: taken as is
  EXPECT_EQ(tuner.effort(5).percent, 150);

  TunerOptions fixed_effort = fast_options();
  fixed_effort.effort_update_every = 0;  // effort tuning off: stays at 100%
  EngineTuner untuned(fixed_effort, kDeadline);
  untuned.restore(state);
  EXPECT_EQ(untuned.snapshot()[5], (TunerBucketState{1.5, 0.0, 100}));
}

TEST(EngineTuner, EffortShedsOnDeadlineMisses) {
  EngineTuner tuner(fast_options(), kDeadline);
  ASSERT_EQ(tuner.effort(4).percent, 100);
  // Four races at a 10ms budget, all overrunning: the window closes with
  // 0% hits and effort steps down by 25.
  for (int i = 0; i < 4; ++i) {
    tuner.observe_race(4, false, false, 50'000'000, 10);
  }
  EXPECT_EQ(tuner.effort(4).percent, 75);
  EXPECT_EQ(tuner.effort_changes(), 1u);
  // Unrelated buckets keep their effort.
  EXPECT_EQ(tuner.effort(7).percent, 100);
}

TEST(EngineTuner, EffortRaisesOnComfortableSlack) {
  EngineTuner tuner(fast_options(), kDeadline);
  // Every race finishes at 1ms of a 100ms budget: all hits, ~99% slack.
  for (int i = 0; i < 4; ++i) {
    tuner.observe_race(4, false, false, 1'000'000, 100);
  }
  EXPECT_EQ(tuner.effort(4).percent, 125);
  // The Held-Karp overrun predicate scales with effort.
  EXPECT_DOUBLE_EQ(tuner.effort(4).hk_overrun_factor, 5.0);
}

TEST(EngineTuner, EffortIsClampedAtBothEnds) {
  EngineTuner tuner(fast_options(), kDeadline);
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < 4; ++i) tuner.observe_race(4, false, false, 50'000'000, 10);
  }
  EXPECT_EQ(tuner.effort(4).percent, 25);  // effort_min_percent
  for (int round = 0; round < 32; ++round) {
    for (int i = 0; i < 4; ++i) tuner.observe_race(4, false, false, 1'000'000, 100);
  }
  EXPECT_EQ(tuner.effort(4).percent, 400);  // effort_max_percent
  EXPECT_EQ(tuner.effort(4).hk_overrun_factor, 16.0);  // factor cap
}

TEST(EngineTuner, PredictedWorkFallsBackToBudgetAndIsCapped) {
  EngineTuner tuner(fast_options(), kDeadline);
  // No history: a request with a 40ms deadline prices at the full budget.
  EXPECT_EQ(tuner.predicted_work_ns(12, 40), 40'000'000u);
  // No deadline either: the service default (250ms) prices it.
  EXPECT_EQ(tuner.predicted_work_ns(12, 0), 250'000'000u);

  // Eight slow observed races at this size: the quantile takes over, but
  // the prediction stays capped at 2x the request's own deadline.
  for (int i = 0; i < 8; ++i) {
    tuner.observe_race(4, false, false, 900'000'000, 0);
  }
  EXPECT_EQ(tuner.predicted_work_ns(12, 40), 80'000'000u);
  // A generous deadline sees the raw quantile (log2-bucketed, so only
  // exact to within one bucket — but far above the 40ms fallback).
  EXPECT_GE(tuner.predicted_work_ns(12, 10'000), 500'000'000u);
  // The floor: nothing is ever priced below 1us.
  EXPECT_GE(tuner.predicted_work_ns(1, 0), 1'000u);
}

TEST(EngineTuner, DisabledTunerIsInert) {
  TunerOptions options = fast_options();
  options.enabled = false;
  EngineTuner tuner(options, kDeadline);
  feed_heuristic_wins(tuner, 4, 20);
  EXPECT_TRUE(tuner.admit_exact(4));
  EXPECT_EQ(tuner.effort(4).percent, 100);
  EXPECT_EQ(tuner.pretrim_skips(), 0u);
  EXPECT_FALSE(tuner.to_json().empty());
  TunerState learned;
  learned[4] = {0.0, 100.0, 300};
  tuner.restore(learned);
  EXPECT_EQ(tuner.snapshot(), TunerState{});
}

TEST(EngineTuner, ToJsonListsOnlyObservedBuckets) {
  EngineTuner tuner(fast_options(), kDeadline);
  const std::string empty = tuner.to_json();
  EXPECT_NE(empty.find("\"buckets\":[]"), std::string::npos);

  tuner.observe_race(4, true, true, 2'000'000, 0);
  const std::string one = tuner.to_json();
  EXPECT_NE(one.find("\"bucket\":4"), std::string::npos);
  EXPECT_NE(one.find("\"exact_score\":1.00"), std::string::npos);
  EXPECT_EQ(one.find("\"bucket\":5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The regression that motivated this layer, at service level: a restart
// over a heuristic-poisoned persisted tuner state must not freeze the
// exact engine out (the old cumulative skip rule did exactly that).
// ---------------------------------------------------------------------------

TEST(TunerService, RestartOverPoisonedTunerStateStillRunsExactEngine) {
  const std::string path = ::testing::TempDir() + "lptsp_poisoned_" +
                           std::to_string(::getpid()) + ".store";
  std::remove(path.c_str());
  {
    PersistentBackend::Options store_options;
    store_options.path = path;
    std::string error;
    auto backend = PersistentBackend::open(store_options, error);
    ASSERT_NE(backend, nullptr) << error;
    // Every n=12-sized race "won" by the heuristic, none by an exact
    // engine — the poison that used to trip the frozen skip rule.
    TunerState poisoned;
    poisoned[static_cast<std::size_t>(obs::size_bucket(12))].heuristic_score = 1'000;
    ASSERT_TRUE(backend->put_tuner_state(poisoned));
  }

  BatchSolver::Options options;
  options.store_path = path;
  options.use_cache = false;  // every request must race, nothing may hit
  options.request_workers = 2;
  options.engine_workers = 2;
  // Unbounded races: an admitted exact engine always finishes, so nothing
  // below depends on how fast a solve runs.
  options.portfolio.deadline = std::chrono::milliseconds{0};
  BatchSolver solver(options);
  const TunerBucketState restored =
      solver.tuner().snapshot()[static_cast<std::size_t>(obs::size_bucket(12))];
  ASSERT_GT(restored.heuristic_score, solver.tuner().options().skip_score);
  ASSERT_EQ(restored.exact_score, 0.0);

  Rng rng(11);
  SolveRequest request;
  request.p = PVec::L21();
  bool exact_won = false;
  // At n=12 Held-Karp finishes and wins ties against the heuristic, so a
  // single admitted re-probe is enough to put an exact win on the board.
  for (int i = 0; i < 64 && !exact_won; ++i) {
    request.graph = random_with_diameter_at_most(12, 2, 0.3, rng);
    const SolveResponse response = solver.solve_one(request);
    ASSERT_TRUE(response.ok()) << response.message;
    exact_won = response.engine == Engine::HeldKarp || response.engine == Engine::BranchBound;
  }
  EXPECT_TRUE(exact_won)
      << "poisoned persisted tuner state froze the exact engine out: no exact win "
      << "recorded in 64 races (re-probe should fire every few skips)";
  const obs::MetricsSnapshot snap = solver.metrics_registry().snapshot();
  EXPECT_GT(solver.tuner().reprobes() + snap.counter_or("engine_race_wins_held_karp"), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lptsp
