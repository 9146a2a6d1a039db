#include "tsp/branch_bound.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "tsp/construct.hpp"
#include "tsp/local_search.hpp"
#include "tsp/lower_bounds.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace lptsp {

namespace {

/// MST weight over `members` (Prim, O(k^2)).
Weight subset_mst(const MetricInstance& instance, const std::vector<int>& members) {
  if (members.size() <= 1) return 0;
  constexpr Weight kInf = std::numeric_limits<Weight>::max();
  std::vector<Weight> best(members.size(), kInf);
  std::vector<bool> done(members.size(), false);
  best[0] = 0;
  Weight total = 0;
  for (std::size_t round = 0; round < members.size(); ++round) {
    std::size_t pick = members.size();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (!done[i] && (pick == members.size() || best[i] < best[pick])) pick = i;
    }
    done[pick] = true;
    total += best[pick];
    const Weight* wrow = instance.row(members[pick]);
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (!done[i]) best[i] = std::min(best[i], wrow[members[i]]);
    }
  }
  return total;
}

struct Search {
  const MetricInstance& instance;
  const long long node_limit;
  const std::atomic<bool>* cancel;
  const std::chrono::steady_clock::time_point deadline;
  long long nodes = 0;
  long long pruned = 0;
  bool cancelled = false;
  Weight incumbent_cost;
  Order incumbent;
  Order partial;
  std::vector<bool> used;

  Search(const MetricInstance& inst, const BranchBoundOptions& options, PathSolution warm_start)
      : instance(inst),
        node_limit(options.node_limit),
        cancel(options.cancel),
        deadline(options.deadline),
        incumbent_cost(warm_start.cost),
        incumbent(std::move(warm_start.order)),
        used(static_cast<std::size_t>(inst.n()), false) {
    partial.reserve(static_cast<std::size_t>(inst.n()));
  }

  /// Lower bound for completing the partial path: MST over the remaining
  /// vertices plus the cheapest edge out of the current endpoint.
  Weight completion_bound() const {
    std::vector<int> remaining;
    for (int v = 0; v < instance.n(); ++v) {
      if (!used[static_cast<std::size_t>(v)]) remaining.push_back(v);
    }
    if (remaining.empty()) return 0;
    Weight link = 0;
    if (!partial.empty()) {
      link = std::numeric_limits<Weight>::max();
      const Weight* wrow = instance.row(partial.back());
      for (const int v : remaining) link = std::min(link, wrow[v]);
    }
    return link + subset_mst(instance, remaining);
  }

  void dfs(Weight cost) {
    if (cancelled) return;
    ++nodes;
    LPTSP_REQUIRE(node_limit == 0 || nodes <= node_limit,
                  "branch-and-bound node limit exceeded — use Held-Karp or a heuristic engine");
    // Poll the cancel flag and the deadline sparsely: an atomic load and
    // a clock read per node would be measurable on the millions-of-nodes
    // searches this engine exists for.
    if ((nodes & 1023) == 0 && stop_requested(cancel, deadline)) {
      cancelled = true;
      return;
    }
    if (static_cast<int>(partial.size()) == instance.n()) {
      if (cost < incumbent_cost) {
        incumbent_cost = cost;
        incumbent = partial;
      }
      return;
    }
    if (cost + completion_bound() >= incumbent_cost) {
      ++pruned;
      return;
    }

    // Branch on nearest candidates first: good incumbents early tighten
    // every later bound.
    std::vector<std::pair<Weight, int>> candidates;
    const Weight* tail_row = partial.empty() ? nullptr : instance.row(partial.back());
    for (int v = 0; v < instance.n(); ++v) {
      if (used[static_cast<std::size_t>(v)]) continue;
      const Weight step = tail_row == nullptr ? 0 : tail_row[v];
      candidates.emplace_back(step, v);
    }
    std::sort(candidates.begin(), candidates.end());
    for (const auto& [step, v] : candidates) {
      if (cancelled) return;
      partial.push_back(v);
      used[static_cast<std::size_t>(v)] = true;
      dfs(cost + step);
      used[static_cast<std::size_t>(v)] = false;
      partial.pop_back();
    }
  }
};

}  // namespace

BranchBoundRun branch_bound_path_run(const MetricInstance& instance,
                                     const BranchBoundOptions& options) {
  const int n = instance.n();
  LPTSP_REQUIRE(n >= 1, "instance must be non-empty");
  if (n == 1) return {{{0}, 0}, true, 0, 0};

  // Warm start: NN, then VND when NN is not already on the trivial bound,
  // gives a strong incumbent so pruning bites from the first branch. A
  // warm start on the bound is optimal as it stands: one node, no search.
  const Weight floor = trivial_lower_bound(instance);
  PathSolution warm = nearest_neighbor_path(instance, 0);
  if (warm.cost > floor) {
    vnd(instance, warm.order);
    warm.cost = path_length(instance, warm.order);
  }
  if (warm.cost == floor) return {std::move(warm), true, 1, 0};

  Search search(instance, options, std::move(warm));
  search.dfs(0);
  LPTSP_ENSURE(is_valid_order(search.incumbent, n), "branch and bound lost its incumbent");
  return {{search.incumbent, search.incumbent_cost}, !search.cancelled, search.nodes,
          search.pruned};
}

PathSolution branch_bound_path(const MetricInstance& instance, const BranchBoundOptions& options) {
  return branch_bound_path_run(instance, options).solution;
}

}  // namespace lptsp
