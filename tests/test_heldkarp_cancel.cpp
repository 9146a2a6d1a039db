#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/reduction.hpp"
#include "graph/generators.hpp"
#include "tsp/held_karp.hpp"
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

TEST(HeldKarpCancel, PresetFlagStopsBeforeSolving) {
  Rng rng(1);
  const MetricInstance instance = random_instance(18, rng);
  std::atomic<bool> cancel{true};
  HeldKarpOptions options;
  options.cancel = &cancel;
  const auto start = std::chrono::steady_clock::now();
  const HeldKarpRun run = held_karp_path_run(instance, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.solution.cost, -1);
  EXPECT_TRUE(run.solution.order.empty());
  // A pre-set flag must be honored at the first layer boundary — well
  // before the DP would finish (n=18 takes tens of milliseconds).
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 0.05);
}

TEST(HeldKarpCancel, PassedDeadlineStopsLikeACancel) {
  Rng rng(3);
  const MetricInstance instance = random_instance(18, rng);
  HeldKarpOptions options;
  options.deadline = std::chrono::steady_clock::now() - std::chrono::seconds{1};
  const HeldKarpRun run = held_karp_path_run(instance, options);
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.solution.cost, -1);
  EXPECT_EQ(run.cells, 0u);  // stopped before the table was filled
}

TEST(HeldKarpCancel, ThrowingFrontEndRejectsCancelledRun) {
  Rng rng(2);
  const MetricInstance instance = random_instance(10, rng);
  std::atomic<bool> cancel{true};
  HeldKarpOptions options;
  options.cancel = &cancel;
  EXPECT_THROW(held_karp_path(instance, options), precondition_error);
}

TEST(HeldKarpCancel, NullAndUnfiredFlagsMatchPlainRun) {
  Rng rng(3);
  const MetricInstance instance = random_instance(14, rng);
  const PathSolution plain = held_karp_path(instance);
  std::atomic<bool> cancel{false};
  HeldKarpOptions options;
  options.cancel = &cancel;
  const HeldKarpRun run = held_karp_path_run(instance, options);
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.solution.cost, plain.cost);
  EXPECT_TRUE(is_valid_order(run.solution.order, 14));
  EXPECT_EQ(path_length(instance, run.solution.order), run.solution.cost);
}

TEST(HeldKarpCancel, MidRunCancellationReturnsPromptly) {
  Rng rng(4);
  // Large enough that the DP runs for a while on any machine this test
  // meets; the watcher thread fires the flag shortly after launch and the
  // run must come back quickly without a valid solution.
  const MetricInstance instance = random_instance(21, rng);
  std::atomic<bool> cancel{false};
  HeldKarpOptions options;
  options.cancel = &cancel;
  std::thread watcher([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    cancel.store(true, std::memory_order_relaxed);
  });
  const HeldKarpRun run = held_karp_path_run(instance, options);
  watcher.join();
  if (!run.completed) {
    EXPECT_EQ(run.solution.cost, -1);
  } else {
    // The machine outran the watcher; the result must then be a real
    // optimum-shaped answer.
    EXPECT_TRUE(is_valid_order(run.solution.order, 21));
  }
}

TEST(HeldKarpCancel, CancelledParallelScheduleStops) {
  Rng rng(5);
  const MetricInstance instance = random_instance(16, rng);
  std::atomic<bool> cancel{true};
  HeldKarpOptions options;
  options.cancel = &cancel;
  options.threads = 2;
  const HeldKarpRun run = held_karp_path_run(instance, options);
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.solution.cost, -1);
}

TEST(HeldKarpCancel, NarrowAndWideTablesAgree) {
  Rng rng(6);
  // Small weights use the int16 table; scaling the same instance past the
  // 16-bit budget forces the int32 table. Costs must scale exactly.
  MetricInstance narrow(12);
  MetricInstance wide(12);
  for (int i = 0; i < 12; ++i) {
    for (int j = i + 1; j < 12; ++j) {
      const Weight w = rng.uniform_int(1, 9);
      narrow.set_weight(i, j, w);
      wide.set_weight(i, j, w * 10'000);  // (n-1) * max exceeds int16 range
    }
  }
  const PathSolution narrow_solution = held_karp_path(narrow);
  const PathSolution wide_solution = held_karp_path(wide);
  EXPECT_EQ(narrow_solution.cost * 10'000, wide_solution.cost);
}

}  // namespace
}  // namespace lptsp
