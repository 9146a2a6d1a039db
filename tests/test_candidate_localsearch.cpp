#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/reduction.hpp"
#include "graph/generators.hpp"
#include "tsp/brute_force.hpp"
#include "tsp/candidates.hpp"
#include "tsp/chained_lk.hpp"
#include "tsp/construct.hpp"
#include "tsp/local_search.hpp"
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

TEST(CandidateLists, SortedDistinctAndComplete) {
  Rng rng(5);
  const MetricInstance instance = random_instance(20, rng);
  const CandidateLists lists(instance, 7);
  EXPECT_EQ(lists.n(), 20);
  EXPECT_EQ(lists.k(), 7);
  EXPECT_FALSE(lists.complete());
  for (int v = 0; v < 20; ++v) {
    const int* cand = lists.of(v);
    for (int i = 0; i < lists.k(); ++i) {
      EXPECT_NE(cand[i], v);
      EXPECT_GE(cand[i], 0);
      EXPECT_LT(cand[i], 20);
      if (i > 0) {
        EXPECT_LE(instance.weight(v, cand[i - 1]), instance.weight(v, cand[i]));
        EXPECT_NE(cand[i - 1], cand[i]);
      }
    }
    // Nothing outside the list is cheaper than the list's most expensive
    // entry (k-nearest property).
    const Weight worst = instance.weight(v, cand[lists.k() - 1]);
    std::vector<bool> listed(20, false);
    for (int i = 0; i < lists.k(); ++i) listed[static_cast<std::size_t>(cand[i])] = true;
    for (int u = 0; u < 20; ++u) {
      if (u == v || listed[static_cast<std::size_t>(u)]) continue;
      EXPECT_GE(instance.weight(v, u), worst);
    }
  }
  const CandidateLists wide(instance, 100);
  EXPECT_EQ(wide.k(), 19);
  EXPECT_TRUE(wide.complete());
}

/// Test-local reference for CandidateLists: every partner stable-sorted by
/// weight (so ties stay in id order), then the same tie-aware length rule.
/// Returns the per-vertex lists; `complete` reports whether every vertex
/// lists all n-1 others.
std::vector<std::vector<int>> reference_lists(const MetricInstance& instance, int k,
                                              bool tie_aware, bool& complete) {
  const int n = instance.n();
  const int base = std::max(0, std::min(k, n - 1));
  std::vector<std::vector<int>> lists(static_cast<std::size_t>(n));
  complete = true;
  for (int v = 0; v < n; ++v) {
    std::vector<int> partners;
    for (int u = 0; u < n; ++u) {
      if (u != v) partners.push_back(u);
    }
    std::stable_sort(partners.begin(), partners.end(), [&](int a, int b) {
      return instance.weight(v, a) < instance.weight(v, b);
    });
    int limit = base;
    if (tie_aware && limit < n - 1) {
      const Weight cheapest = instance.weight(v, partners.front());
      const auto tier = static_cast<int>(std::count_if(
          partners.begin(), partners.end(), [&](int u) { return instance.weight(v, u) == cheapest; }));
      limit = std::min(std::max(base, std::min(tier, CandidateLists::kTieCap)), n - 1);
    }
    partners.resize(static_cast<std::size_t>(limit));
    if (limit < n - 1) complete = false;
    lists[static_cast<std::size_t>(v)] = std::move(partners);
  }
  return lists;
}

/// Row shapes the differential test must reach, so a change to the inputs
/// cannot quietly stop exercising a branch of the construction.
struct RowShapes {
  int tier_above_cap = 0;    ///< cheapest tier holds more than kTieCap partners
  int limit_above_tier = 0;  ///< the list runs past the cheapest tier
};

void expect_matches_reference(const MetricInstance& instance, int k, bool tie_aware,
                              RowShapes& shapes) {
  const int n = instance.n();
  bool complete = false;
  const std::vector<std::vector<int>> want = reference_lists(instance, k, tie_aware, complete);
  const CandidateLists lists(instance, k, tie_aware);
  SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
               " tie_aware=" + std::to_string(tie_aware));
  ASSERT_EQ(lists.n(), n);
  EXPECT_EQ(lists.k(), std::max(0, std::min(k, n - 1)));
  EXPECT_EQ(lists.complete(), complete);
  for (int v = 0; v < n; ++v) {
    const std::vector<int>& row = want[static_cast<std::size_t>(v)];
    ASSERT_EQ(lists.count(v), static_cast<int>(row.size())) << "vertex " << v;
    EXPECT_TRUE(std::equal(row.begin(), row.end(), lists.of(v))) << "vertex " << v;

    Weight cheapest = 0;
    int tier = 0;
    for (int u = 0; u < n; ++u) {
      if (u == v) continue;
      const Weight w = instance.weight(v, u);
      if (tier == 0 || w < cheapest) {
        cheapest = w;
        tier = 1;
      } else if (w == cheapest) {
        ++tier;
      }
    }
    if (tier > CandidateLists::kTieCap) ++shapes.tier_above_cap;
    if (static_cast<int>(row.size()) > tier) ++shapes.limit_above_tier;
  }
}

TEST(CandidateLists, MatchesSortedReference) {
  Rng rng(2024);
  RowShapes shapes;
  const int ks[] = {1, 3, 10, 48, 100};
  const int sizes[] = {3, 4, 5, 7, 11, 16, 24, 33, 47, 60, 75, 96, 120};
  // Reduced labeling instances: diameter-2 graphs under L(2,1) give the
  // two-valued metrics the service races, diameter-3 graphs under
  // (4,3,2) three-valued ones; the densities move the cheapest tier from
  // most partners to a handful.
  for (const int n : sizes) {
    for (const double density : {0.05, 0.15, 0.4, 0.8}) {
      const Graph d2 = random_with_diameter_at_most(n, 2, density, rng);
      const Graph d3 = random_with_diameter_at_most(n, 3, density, rng);
      const MetricInstance two = reduce_to_path_tsp(d2, PVec::L21()).instance;
      const MetricInstance three = reduce_to_path_tsp(d3, PVec({4, 3, 2})).instance;
      for (const int k : ks) {
        for (const bool tie_aware : {true, false}) {
          expect_matches_reference(two, k, tie_aware, shapes);
          expect_matches_reference(three, k, tie_aware, shapes);
        }
      }
    }
  }
  // Random metrics with one to five distinct weight values.
  for (const int n : sizes) {
    for (int values = 1; values <= 5; ++values) {
      const MetricInstance instance = random_instance(n, rng, 1, values);
      for (const int k : ks) {
        for (const bool tie_aware : {true, false}) {
          expect_matches_reference(instance, k, tie_aware, shapes);
        }
      }
    }
  }
  EXPECT_GT(shapes.tier_above_cap, 0);
  EXPECT_GT(shapes.limit_above_tier, 0);
}

class CandidateSearchProperty : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<std::uint64_t>(GetParam() * 131 + 17)};
};

TEST_P(CandidateSearchProperty, NeverWorsensRandomSeeds) {
  for (const int n : {6, 14, 30}) {
    const MetricInstance instance = random_instance(n, rng_);
    Order order = rng_.permutation(n);
    const Weight before = path_length(instance, order);
    PathOptimizer optimizer(instance);
    optimizer.optimize(order);
    EXPECT_TRUE(is_valid_order(order, n));
    EXPECT_LE(path_length(instance, order), before);
  }
}

TEST_P(CandidateSearchProperty, NeverWorsensOnReducedInstances) {
  const Graph graph = random_with_diameter_at_most(24, 2, 0.2, rng_);
  const auto reduced = reduce_to_path_tsp(graph, PVec::L21());
  Order order = rng_.permutation(24);
  const Weight before = path_length(reduced.instance, order);
  PathOptimizer optimizer(reduced.instance);
  optimizer.optimize(order);
  EXPECT_TRUE(is_valid_order(order, 24));
  EXPECT_LE(path_length(reduced.instance, order), before);
}

TEST_P(CandidateSearchProperty, NeverBeatsExact) {
  const MetricInstance instance = random_instance(8, rng_);
  const Weight optimal = brute_force_path(instance).cost;
  Order order = rng_.permutation(8);
  PathOptimizer optimizer(instance);
  optimizer.optimize(order);
  EXPECT_GE(path_length(instance, order), optimal);
}

TEST_P(CandidateSearchProperty, CompleteListsReachTwoOptLocalOptimum) {
  // With k = n-1 the candidate scan is exhaustive: any improving 2-opt
  // move creates an edge (x, c) cheaper than an edge removed at x, so a
  // fixpoint of the optimizer must leave the full-matrix pass nothing.
  const int n = 13;
  const MetricInstance instance = random_instance(n, rng_);
  Order order = rng_.permutation(n);
  PathOptimizer optimizer(instance, n - 1);
  optimizer.optimize(order);
  EXPECT_FALSE(two_opt_pass(instance, order));
}

TEST_P(CandidateSearchProperty, TargetedWakeAfterKickNeverWorsens) {
  const int n = 20;
  const MetricInstance instance = random_instance(n, rng_);
  Order order = rng_.permutation(n);
  PathOptimizer optimizer(instance);
  optimizer.optimize(order);
  std::vector<int> wake;
  for (int kick = 0; kick < 10; ++kick) {
    Order perturbed = double_bridge_kick(order, rng_, &wake);
    EXPECT_LE(wake.size(), 6u);
    const Weight kicked_cost = path_length(instance, perturbed);
    optimizer.optimize(perturbed, wake);
    EXPECT_TRUE(is_valid_order(perturbed, n));
    EXPECT_LE(path_length(instance, perturbed), kicked_cost);
    order = std::move(perturbed);
  }
}

TEST_P(CandidateSearchProperty, SharedListsMatchOwnedLists) {
  const int n = 16;
  const MetricInstance instance = random_instance(n, rng_);
  const CandidateLists shared(instance);
  Order owned_order = rng_.permutation(n);
  Order shared_order = owned_order;
  PathOptimizer owned(instance);
  PathOptimizer borrowing(instance, shared);
  owned.optimize(owned_order);
  borrowing.optimize(shared_order);
  EXPECT_EQ(owned_order, shared_order);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidateSearchProperty, ::testing::Range(0, 10));

TEST(CandidateSearch, TinyInstances) {
  Rng rng(3);
  for (const int n : {1, 2, 3}) {
    const MetricInstance instance = random_instance(n, rng);
    Order order = rng.permutation(n);
    const Weight before = path_length(instance, order);
    PathOptimizer optimizer(instance);
    optimizer.optimize(order);
    EXPECT_TRUE(is_valid_order(order, n));
    EXPECT_LE(path_length(instance, order), before);
  }
}

TEST(CandidateSearch, MismatchedListsRejected) {
  Rng rng(9);
  const MetricInstance small = random_instance(6, rng);
  const MetricInstance large = random_instance(9, rng);
  const CandidateLists lists(small);
  EXPECT_THROW(PathOptimizer(large, lists), precondition_error);
}

TEST(LegacyOrOpt, StillNeverWorsensAndTerminates) {
  // The allocation-free rewrite must keep the legacy semantics the
  // ablation benches rely on.
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    const MetricInstance instance = random_instance(15, rng);
    Order order = rng.permutation(15);
    const Weight before = path_length(instance, order);
    or_opt(instance, order);
    EXPECT_TRUE(is_valid_order(order, 15));
    EXPECT_LE(path_length(instance, order), before);
    EXPECT_FALSE(or_opt_pass(instance, order));  // fixpoint reached
  }
}

}  // namespace
}  // namespace lptsp
