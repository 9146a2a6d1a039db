#include "tsp/chained_lk.hpp"

#include <mutex>

#include "tsp/candidates.hpp"
#include "tsp/construct.hpp"
#include "tsp/lin_kernighan.hpp"
#include "tsp/local_search.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace lptsp {

Order double_bridge_kick(const Order& order, Rng& rng, std::vector<int>* changed) {
  const std::size_t n = order.size();
  if (n < 4) {
    if (changed != nullptr) changed->clear();
    return order;
  }
  // Choose 1 <= a < b < c < n so all four segments are non-empty.
  std::size_t a = 1 + rng.uniform_index(n - 3);
  std::size_t b = a + 1 + rng.uniform_index(n - a - 2);
  std::size_t c = b + 1 + rng.uniform_index(n - b - 1);
  Order kicked;
  kicked.reserve(n);
  kicked.insert(kicked.end(), order.begin(), order.begin() + static_cast<std::ptrdiff_t>(a));
  kicked.insert(kicked.end(), order.begin() + static_cast<std::ptrdiff_t>(b),
                order.begin() + static_cast<std::ptrdiff_t>(c));
  kicked.insert(kicked.end(), order.begin() + static_cast<std::ptrdiff_t>(a),
                order.begin() + static_cast<std::ptrdiff_t>(b));
  kicked.insert(kicked.end(), order.begin() + static_cast<std::ptrdiff_t>(c), order.end());
  if (changed != nullptr) {
    // New segment boundaries in kicked coordinates: A|C at a, C|B at
    // a + (c - b), B|D at c. Each boundary contributes the two vertices of
    // the spliced edge.
    changed->clear();
    // All three boundaries satisfy 1 <= at <= n-1 by the segment draws.
    const std::size_t boundaries[3] = {a, a + (c - b), c};
    for (const std::size_t at : boundaries) {
      changed->push_back(kicked[at - 1]);
      changed->push_back(kicked[at]);
    }
  }
  return kicked;
}

ChainedLkRun chained_lk_path_run(const MetricInstance& instance, const ChainedLkOptions& options) {
  LPTSP_REQUIRE(instance.n() >= 1, "instance must be non-empty");
  LPTSP_REQUIRE(options.restarts >= 1, "need at least one restart");
  LPTSP_REQUIRE(options.kicks >= 0, "kick count must be non-negative");
  if (instance.n() <= 3) {
    Rng rng(options.seed);
    return {lin_kernighan_style_path(instance, rng), true};
  }

  if (stop_requested(options.cancel, options.deadline)) {
    // Cancelled before it began (a rival already certified, or the
    // deadline passed): restart 0's starting path is the answer, and
    // candidate lists would be wasted.
    Rng rng(options.seed + 0x9e3779b97f4a7c15ULL);
    return {nearest_neighbor_path(instance, rng.uniform_int(0, instance.n() - 1)), false};
  }

  // One candidate set per run, shared read-only across every restart and
  // every kick; each restart owns its optimizer (position array, don't-look
  // queue) so restarts stay independent and parallel-safe.
  const CandidateLists candidates(instance);

  PathSolution global_best;
  global_best.cost = -1;
  std::mutex best_mutex;
  std::atomic<bool> truncated{false};
  // Work totals across restarts, accumulated under best_mutex (once per
  // restart, not per kick — the merge is as cold as the best-merge).
  std::uint64_t total_kicks = 0;
  std::uint64_t total_accepted = 0;
  std::uint64_t total_wakes = 0;
  std::uint64_t total_moves = 0;

  const auto cancelled = [&options] { return stop_requested(options.cancel, options.deadline); };

  const auto run_restart = [&](std::size_t restart) {
    // Restart 0 always builds a path so a cancelled call still yields a
    // feasible solution (its optimizer stops at the next move boundary
    // once the flag is up); later restarts are pure improvement and skip
    // their (expensive) initial optimization once cancelled.
    if (restart > 0 && cancelled()) {
      truncated.store(true, std::memory_order_relaxed);
      return;
    }
    Rng rng(options.seed + 0x9e3779b97f4a7c15ULL * (restart + 1));
    PathOptimizer optimizer(instance, candidates, options.cancel);
    PathSolution best = nearest_neighbor_path(instance, rng.uniform_int(0, instance.n() - 1));
    if (!optimizer.optimize(best.order)) truncated.store(true, std::memory_order_relaxed);
    best.cost = path_length(instance, best.order);
    std::vector<int> wake;
    int kick = 0;
    std::uint64_t accepted = 0;
    for (; kick < options.kicks; ++kick) {
      if (cancelled()) break;
      Order perturbed = double_bridge_kick(best.order, rng, &wake);
      // The kick changed exactly three edges, so waking their endpoints is
      // enough — the optimizer re-examines further vertices only when an
      // applied move reaches them.
      const bool whole = optimizer.optimize(perturbed, wake);
      const Weight cost = path_length(instance, perturbed);
      if (cost < best.cost) {
        best.order = std::move(perturbed);
        best.cost = cost;
        ++accepted;
      }
      if (!whole) {  // cancelled mid-kick
        ++kick;
        truncated.store(true, std::memory_order_relaxed);
        break;
      }
    }
    if (kick < options.kicks) truncated.store(true, std::memory_order_relaxed);
    const std::lock_guard lock(best_mutex);
    total_kicks += static_cast<std::uint64_t>(kick);
    total_accepted += accepted;
    total_wakes += optimizer.stats().wakes;
    total_moves += optimizer.stats().moves;
    if (global_best.cost < 0 || best.cost < global_best.cost) global_best = std::move(best);
  };

  parallel_for(static_cast<std::size_t>(options.restarts), run_restart, options.threads);
  LPTSP_ENSURE(global_best.cost >= 0, "chained LK produced no solution");
  return {std::move(global_best), !truncated.load(std::memory_order_relaxed), total_kicks,
          total_accepted, total_wakes, total_moves};
}

PathSolution chained_lk_path(const MetricInstance& instance, const ChainedLkOptions& options) {
  return chained_lk_path_run(instance, options).solution;
}

}  // namespace lptsp
