#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "tsp/candidates.hpp"
#include "tsp/path.hpp"

namespace lptsp {

/// One full 2-opt pass over an open path (segment reversal; endpoints are
/// handled as free, so prefix/suffix reversals cost one edge swap).
/// Returns true if any improving move was applied.
bool two_opt_pass(const MetricInstance& instance, Order& order);

/// 2-opt to a local optimum.
void two_opt(const MetricInstance& instance, Order& order);

/// One Or-opt pass: relocate segments of length 1..max_segment to a better
/// position, in either orientation. Returns true if improved.
bool or_opt_pass(const MetricInstance& instance, Order& order, int max_segment = 3);

/// Or-opt to a local optimum.
void or_opt(const MetricInstance& instance, Order& order, int max_segment = 3);

/// Variable-neighborhood descent: alternate 2-opt and Or-opt until the
/// path is locally optimal for both. This is the full-neighborhood
/// (O(n^2)-per-pass) reference optimizer, kept for the ablation benches;
/// hot paths use PathOptimizer below.
void vnd(const MetricInstance& instance, Order& order, int max_segment = 3);

/// Candidate-list local search for open paths: 2-opt + Or-opt moves
/// enumerated from per-vertex k-nearest candidate lists, driven by a
/// don't-look queue (only vertices whose neighborhood changed are
/// re-examined), with all scratch buffers owned by the optimizer and
/// reused across passes and kicks.
///
/// An improving 2-opt move always creates an edge (x, c) cheaper than an
/// edge it removes at x, so scanning each awake vertex's candidate prefix
/// (sorted ascending, early exit) finds every improving move the lists can
/// express. With complete lists (k >= n-1) a fixpoint is a full 2-opt local
/// optimum; with short lists it is a candidate-local optimum — the classic
/// speed/quality dial of LK-family engines. Applied moves only ever
/// decrease the (integer) path cost, so optimization terminates and never
/// returns a costlier path than its seed.
class PathOptimizer {
 public:
  /// Work the optimizer performed since construction (or reset_stats()):
  /// don't-look queue wakes and applied improving moves. Both are
  /// deterministic functions of the instance and seed order, so they are
  /// ISA-invariant — the profiling layer counts on that.
  struct Stats {
    std::uint64_t wakes = 0;  ///< vertices enqueued for re-examination
    std::uint64_t moves = 0;  ///< applied 2-opt reversals + Or-opt relocations
  };

  /// Builds private candidate lists of length k.
  explicit PathOptimizer(const MetricInstance& instance, int k = CandidateLists::kDefaultK);

  /// Shares prebuilt lists (must outlive the optimizer). ChainedLK builds
  /// one CandidateLists and hands it to every restart's optimizer. When
  /// `cancel` is non-null and set, optimize() stops at the next move
  /// boundary: every applied move keeps a permutation, so the order stays
  /// a feasible path, just not a local optimum.
  PathOptimizer(const MetricInstance& instance, const CandidateLists& candidates,
                const std::atomic<bool>* cancel = nullptr);

  PathOptimizer(const PathOptimizer&) = delete;
  PathOptimizer& operator=(const PathOptimizer&) = delete;

  /// Optimize to a candidate-local optimum, examining every vertex.
  /// Returns false when the cancel flag stopped it first.
  bool optimize(Order& order);

  /// Re-optimize after a localized perturbation: only `wake` vertices (and
  /// transitively, vertices whose incident path edges later change) are
  /// examined. This is what makes a ChainedLK kick cycle near-O(1) instead
  /// of a full O(n k) rescan. Returns false when cancelled, as above.
  bool optimize(Order& order, const std::vector<int>& wake);

  [[nodiscard]] const CandidateLists& candidates() const noexcept { return *cand_; }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  bool run(Order& order);
  bool improve_vertex(Order& order, int x);
  bool try_two_opt(Order& order, int x);
  bool try_or_opt(Order& order, int x);
  void apply_reversal(Order& order, std::size_t first, std::size_t last);
  void apply_segment_move(Order& order, std::size_t s, std::size_t e, std::size_t pc,
                          bool after, bool reversed);
  void wake(int v);

  const MetricInstance& instance_;
  CandidateLists owned_;
  const CandidateLists* cand_;
  const std::atomic<bool>* cancel_ = nullptr;
  int max_segment_ = 3;
  std::vector<int> pos_;             // pos_[vertex] = index in order
  std::vector<std::uint8_t> queued_;
  std::vector<int> queue_;
  Stats stats_;
};

}  // namespace lptsp
