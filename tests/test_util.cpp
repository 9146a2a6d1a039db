#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace lptsp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int value = rng.uniform_int(-3, 5);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 5);
  }
}

TEST(Rng, UniformIntHitsAllValues) {
  Rng rng(11);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.uniform01();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyRoughlyMatches) {
  Rng rng(9);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, PermutationIsValid) {
  Rng rng(13);
  const auto perm = rng.permutation(20);
  std::set<int> values(perm.begin(), perm.end());
  EXPECT_EQ(values.size(), 20u);
  EXPECT_EQ(*values.begin(), 0);
  EXPECT_EQ(*values.rbegin(), 19);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(17);
  std::vector<int> values{1, 1, 2, 3, 5, 8, 13};
  auto shuffled = values;
  rng.shuffle(shuffled);
  std::multiset<int> before(values.begin(), values.end());
  std::multiset<int> after(shuffled.begin(), shuffled.end());
  EXPECT_EQ(before, after);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.split();
  // Streams should differ from each other.
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (parent.next() != child.next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Timer, MeasuresNonNegativeTime) {
  const Timer timer;
  EXPECT_GE(timer.seconds(), 0.0);
  EXPECT_GE(timer.millis(), 0.0);
}

TEST(Timer, ResetRestartsClock) {
  Timer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  timer.reset();
  EXPECT_LT(timer.seconds(), 1.0);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ReusableAcrossRegions) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(16,
                                 [&](std::size_t i) {
                                   if (i == 7) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelBlocksCoversRangeOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_blocks(hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ConcurrentCallersEachCoverTheirOwnRangeOnce) {
  // Four threads share one pool, each looping over a range of a different
  // length. A region must never run another caller's body on its indices.
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 200;
  std::vector<std::vector<std::atomic<int>>> hits;
  for (int caller = 0; caller < kCallers; ++caller) hits.emplace_back(500 + 337 * caller);
  std::vector<std::thread> callers;
  for (int caller = 0; caller < kCallers; ++caller) {
    callers.emplace_back([&pool, &hits, caller] {
      std::vector<std::atomic<int>>& mine = hits[static_cast<std::size_t>(caller)];
      for (int round = 0; round < kRounds; ++round) {
        pool.parallel_for(mine.size(), [&mine](std::size_t i) { mine[i].fetch_add(1); });
      }
    });
  }
  for (std::thread& thread : callers) thread.join();
  for (int caller = 0; caller < kCallers; ++caller) {
    for (const auto& hit : hits[static_cast<std::size_t>(caller)]) {
      ASSERT_EQ(hit.load(), kRounds) << "caller " << caller;
    }
  }
}

TEST(ThreadPool, NestedRegionRunsInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(16 * 32);
  pool.parallel_for(16, [&](std::size_t outer) {
    pool.parallel_for(32, [&](std::size_t inner) { hits[outer * 32 + inner].fetch_add(1); });
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelForHelper, SerialModeMatchesParallel) {
  std::vector<int> serial(64, 0);
  std::vector<std::atomic<int>> parallel(64);
  parallel_for(64, [&](std::size_t i) { serial[i] = static_cast<int>(i) * 3; }, 1);
  parallel_for(64, [&](std::size_t i) { parallel[i] = static_cast<int>(i) * 3; }, 0);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(serial[i], parallel[i].load());
}

TEST(Table, AsciiContainsHeadersAndCells) {
  Table table({"engine", "span"});
  table.add_row({"held-karp", "17"});
  const std::string ascii = table.to_ascii();
  EXPECT_NE(ascii.find("engine"), std::string::npos);
  EXPECT_NE(ascii.find("held-karp"), std::string::npos);
  EXPECT_NE(ascii.find("17"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), precondition_error);
}

TEST(Table, CsvQuotesCommas) {
  Table table({"name"});
  table.add_row({"a,b"});
  EXPECT_NE(table.to_csv().find("\"a,b\""), std::string::npos);
}

TEST(Table, CsvRoundTripLineCount) {
  Table table({"x", "y"});
  table.add_row({"1", "2"});
  table.add_row({"3", "4"});
  const std::string csv = table.to_csv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, EmptyHeaderRejected) {
  EXPECT_THROW(Table({}), precondition_error);
}

TEST(FormatHelpers, FixedPrecision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_ratio(1.5), "1.5000");
}

TEST(CliArgs, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=20", "--verbose", "input.txt"};
  CliArgs args(4, argv);
  EXPECT_EQ(args.get_int("n", 0), 20);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
}

TEST(CliArgs, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get("engine", "held-karp"), "held-karp");
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.25), 0.25);
}

TEST(CliArgs, TracksUnusedKeys) {
  const char* argv[] = {"prog", "--typo=1", "--used=2"};
  CliArgs args(3, argv);
  (void)args.get_int("used", 0);
  const auto unused = args.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Check, RequireThrowsPreconditionError) {
  EXPECT_THROW(LPTSP_REQUIRE(false, "msg"), precondition_error);
  EXPECT_NO_THROW(LPTSP_REQUIRE(true, "msg"));
}

TEST(Check, EnsureThrowsInvariantError) {
  EXPECT_THROW(LPTSP_ENSURE(false, "msg"), invariant_error);
  EXPECT_NO_THROW(LPTSP_ENSURE(true, "msg"));
}

}  // namespace
}  // namespace lptsp
