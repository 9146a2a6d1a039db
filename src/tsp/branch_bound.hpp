#pragma once

#include <atomic>
#include <chrono>

#include "tsp/path.hpp"

namespace lptsp {

/// Options for the branch-and-bound exact Path-TSP solver.
struct BranchBoundOptions {
  /// Abort with precondition_error after this many search nodes (0 = no
  /// limit). A limit makes worst-case behaviour explicit instead of
  /// silently hanging: callers choose between HK (memory-bound) and B&B
  /// (time-bound).
  long long node_limit = 50'000'000;
  /// Cooperative cancellation for deadline-racing callers (the engine
  /// portfolio): when non-null and set, the search stops at the next
  /// check and returns the incumbent found so far. A cancelled run's
  /// result is feasible but NOT certified optimal — see BranchBoundRun /
  /// branch_bound_path_run for the completed flag.
  const std::atomic<bool>* cancel = nullptr;
  /// Wall-clock deadline, polled wherever `cancel` is; passing it counts
  /// as a cancel (max() = none).
  std::chrono::steady_clock::time_point deadline = std::chrono::steady_clock::time_point::max();
};

/// Exact Path TSP by depth-first branch and bound.
///
/// Complements Held-Karp (Corollary 1): HK is O(2^n n^2) time AND memory,
/// which caps n near 22; B&B needs only O(n) memory and solves much larger
/// reduced instances when the metric is benign (the pmax <= 2*pmin band
/// keeps the MST bound tight), at the price of exponential worst-case
/// time. Pruning: partial length + MST of the remaining vertices plus the
/// cheapest link from the current endpoint into the remainder must stay
/// below the incumbent (the MST part is a valid completion lower bound
/// because any completion is a spanning connected subgraph of the rest).
/// A warm start that meets the trivial bound (n-1) * min weight is
/// returned at once, certified, without searching: on the paper's
/// diameter-2 L(2,1) instances that is the common case.
PathSolution branch_bound_path(const MetricInstance& instance,
                               const BranchBoundOptions& options = {});

/// branch_bound_path plus metadata racing callers need: whether the search
/// ran to completion (result certified optimal) or was cancelled early
/// (result is the best incumbent, still a feasible path).
struct BranchBoundRun {
  PathSolution solution;
  bool completed = true;       ///< false when options.cancel fired first
  long long nodes = 0;         ///< search nodes expanded
  long long pruned = 0;        ///< subtrees cut by the completion bound
};

BranchBoundRun branch_bound_path_run(const MetricInstance& instance,
                                     const BranchBoundOptions& options = {});

}  // namespace lptsp
