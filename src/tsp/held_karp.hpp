#pragma once

#include <atomic>
#include <cstdint>

#include "tsp/path.hpp"

namespace lptsp {

/// Options for the Held–Karp dynamic program.
struct HeldKarpOptions {
  /// Subset layers: 1 = serial; any other value = the shared pool
  /// (TaskPool::shared(), hardware-sized whatever the value).
  unsigned threads = 1;
  /// Fix the path's first vertex (-1 = free). Free endpoints solve the
  /// paper's Path TSP; a fixed start is exposed for tests and for callers
  /// embedding the DP in other algorithms.
  int fixed_start = -1;
  /// Hard cap on n; the DP allocates 2^n * n * 2 or 4 bytes (16-bit table
  /// when every path cost fits, 32-bit otherwise), so 24 (~0.8-1.6 GiB)
  /// is an absolute ceiling and the default stays laptop-friendly.
  int max_n = 22;
  /// Cooperative cancellation for deadline-racing callers: polled at every
  /// popcount-layer boundary (and periodically inside large layers on the
  /// serial path). A cancelled run returns no solution (cost -1,
  /// completed = false) — the DP has no usable partial answer — but it
  /// returns promptly, which is what lets Held–Karp join portfolio races
  /// whose deadline it might miss.
  const std::atomic<bool>* cancel = nullptr;
};

/// held_karp_path plus the metadata racing callers need: whether the DP ran
/// to completion or the cancel flag stopped it early. Mirrors
/// BranchBoundRun / ChainedLkRun. When completed is false the solution is
/// empty with cost -1.
struct HeldKarpRun {
  PathSolution solution;
  bool completed = true;
  // DP work performed before finishing (or being cancelled). Cells are
  // exact writes — popcount(S) per processed subset — so a completed run's
  // counts depend only on n, never on the dispatched ISA tier or thread
  // count.
  std::uint64_t layers = 0;  ///< popcount layers completed (incl. singletons)
  std::uint64_t cells = 0;   ///< dp cells written
};

/// Exact Path TSP via the Held–Karp O(2^n n^2) dynamic program
/// (Corollary 1 of the paper). dp[S][j] = cheapest path visiting exactly
/// the vertex set S and ending at j; layers are processed in popcount
/// order, which makes the recurrence race-free and parallelizable.
///
/// Requires 1 <= n <= options.max_n.
HeldKarpRun held_karp_path_run(const MetricInstance& instance, const HeldKarpOptions& options = {});

/// The throwing front-end: requires the run to complete (i.e. pass no
/// cancel flag, or one that never fires).
PathSolution held_karp_path(const MetricInstance& instance, const HeldKarpOptions& options = {});

}  // namespace lptsp
