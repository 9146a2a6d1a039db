#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "tsp/path.hpp"
#include "util/rng.hpp"

namespace lptsp {

/// Options for the chained Lin–Kernighan-style engine.
struct ChainedLkOptions {
  int restarts = 3;       ///< independent multi-starts (parallelizable)
  int kicks = 40;         ///< double-bridge perturbations per restart
  std::uint64_t seed = 1; ///< master seed; restarts derive child streams
  unsigned threads = 1;   ///< 1 = serial; any other value = the shared pool
  /// Cooperative cancellation for deadline-racing callers: when non-null
  /// and set, each restart stops at its next move or kick and the best
  /// path found so far is returned. Restart 0 always builds its starting
  /// path and keeps every move it applied before the cancel, so a
  /// cancelled call still yields a feasible solution.
  const std::atomic<bool>* cancel = nullptr;
  /// Wall-clock deadline, polled like `cancel` before the run, per restart
  /// and per kick (max() = none). Restart 0's first optimization ignores
  /// it.
  std::chrono::steady_clock::time_point deadline = std::chrono::steady_clock::time_point::max();
};

/// Chained LK in the sense of Applegate–Cook–Rohe: local-optimize, then
/// repeatedly apply a double-bridge kick and re-optimize, keeping
/// improvements; the whole chain is multi-started. This is the strongest
/// heuristic engine in the library and the practical counterpart of the
/// paper's "use Concorde/LKH as engines" pitch.
PathSolution chained_lk_path(const MetricInstance& instance, const ChainedLkOptions& options = {});

/// chained_lk_path plus the metadata racing callers need: whether every
/// restart ran its full kick schedule (completed) or the cancel flag cut
/// at least one short. Mirrors BranchBoundRun.
struct ChainedLkRun {
  PathSolution solution;
  bool completed = true;
  // Work performed across every restart, summed. Deterministic for a
  // fixed (instance, options) pair as long as the run completes: restarts
  // use independent seeded streams, so thread interleaving cannot change
  // what each one does.
  std::uint64_t kicks = 0;     ///< double-bridge kicks applied
  std::uint64_t accepted = 0;  ///< kicks whose re-optimized path improved
  std::uint64_t wakes = 0;     ///< candidate-list don't-look queue wakes
  std::uint64_t moves = 0;     ///< applied 2-opt/Or-opt improving moves
};

ChainedLkRun chained_lk_path_run(const MetricInstance& instance,
                                 const ChainedLkOptions& options = {});

/// A double-bridge 4-opt kick for open paths: cut into four non-empty
/// segments A B C D and rearrange to A C B D. When `changed` is non-null
/// it receives the six vertices incident to the three spliced edges — the
/// wake set a candidate-list optimizer needs to repair the kick locally
/// instead of rescanning the whole path.
Order double_bridge_kick(const Order& order, Rng& rng, std::vector<int>* changed = nullptr);

}  // namespace lptsp
