#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"

/// The learning layer over the portfolio's races and the profile plumbing.
/// Three policies, all fed from signals the service already collects:
///
///   - Pre-trim with re-probe: replaces the frozen "skip the exact engine
///     after 8 heuristic wins" rule with decayed per-bucket win scores —
///     evidence ages out instead of accumulating forever — plus an epsilon
///     re-probe: every Nth otherwise-skipped race still launches the exact
///     engine. A heuristic-heavy persisted state can bias the learner but
///     can never freeze it.
///   - Effort tuning: per-bucket effort percentage derived from observed
///     deadline hit/miss windows and slack, applied by the portfolio to
///     ChainedLK kick counts, BranchBound node budgets, and the Held-Karp
///     deadline-overrun factor. Steps are clamped and every change is
///     journaled (TunerEffort), so policy drift is auditable.
///   - Work-priced admission: predicts a request's engine cost from the
///     per-bucket race-latency histograms and the KeyProfileTable's
///     hot-key stats, so BatchSolver can admit against predicted pending
///     work (nanoseconds) instead of request count and overload rejects
///     expensive requests first instead of starving cheap traffic.
///
/// The per-bucket scores and effort are the service's only learning
/// record: BatchSolver persists snapshot() to the durable store and
/// restore()s it when it reopens the store.
namespace lptsp {

struct TunerOptions {
  /// Master switch, and the portfolio's only learning switch: disabled,
  /// admit_exact always launches the exact engine and effort stays at
  /// 100% (BatchSolver then leaves the tuner detached).
  bool enabled = true;

  // --- pre-trim with re-probe ---
  /// Halve both win scores in a bucket every this many observed races
  /// there (0 = never decay). Decay is what lets a bucket un-learn a
  /// stale verdict when deadlines or hardware change.
  std::uint32_t decay_every = 64;
  /// Trim the exact engine only when the heuristic's decayed score is at
  /// least this and the exact score has decayed to (effectively) zero.
  double skip_score = 8.0;
  /// Every Nth otherwise-trimmed race still launches the exact engine
  /// (0 = never re-probe — restores the frozen behavior, operators only).
  std::uint32_t reprobe_every = 16;

  // --- effort tuning ---
  /// Re-evaluate a bucket's effort after this many deadline-bounded races
  /// there (0 = effort tuning off, stays at 100%).
  std::uint32_t effort_update_every = 32;
  /// Clamped step per update and the overall range, in percent of the
  /// static engine budgets (100 = the portfolio's built-in effort).
  int effort_step_percent = 25;
  int effort_min_percent = 25;
  int effort_max_percent = 400;
  /// Raise effort only when a window hits at least this percent of its
  /// deadlines AND has comfortable slack; shed effort below it.
  int target_hit_percent = 95;

  // --- work-priced admission ---
  /// Which per-bucket race-latency quantile prices a request.
  double admission_quantile = 0.90;
};

/// What the portfolio applies to one race, resolved per size bucket.
struct EffortPolicy {
  /// Scales ChainedLK kicks and the BranchBound node budget.
  int percent = 100;
  /// Held-Karp races while its predicted runtime is within this factor of
  /// the deadline (the historical constant was 4.0).
  double hk_overrun_factor = 4.0;
};

/// One size bucket's learned policy, as snapshot() reads it and restore()
/// takes it back (the durable store's tuner-state record).
struct TunerBucketState {
  double exact_score = 0;
  double heuristic_score = 0;
  int effort_percent = 100;

  bool operator==(const TunerBucketState&) const = default;
};

/// Indexed by obs::size_bucket(n).
using TunerState = std::array<TunerBucketState, obs::kSizeBuckets>;

class EngineTuner {
 public:
  static constexpr double kBaseHkOverrunFactor = 4.0;

  explicit EngineTuner(const TunerOptions& options = {});

  EngineTuner(const EngineTuner&) = delete;
  EngineTuner& operator=(const EngineTuner&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return options_.enabled; }
  [[nodiscard]] const TunerOptions& options() const noexcept { return options_; }

  /// Attach the solver's hot-key table as the admission predictor's
  /// second signal (optional; the table must outlive this tuner).
  void attach_key_profile(const obs::KeyProfileTable* profile) noexcept {
    key_profile_ = profile;
  }

  /// Every bucket's decayed scores and effort, read under the learning
  /// mutex (safe against racing observe_race calls).
  [[nodiscard]] TunerState snapshot() const;

  /// Take back a snapshot, typically one read from disk. Scores are
  /// capped at a few skip_scores, so stale history biases the first
  /// decisions but decays away within a couple of windows; negative and
  /// NaN scores restore as 0. Effort is clamped to
  /// [effort_min_percent, effort_max_percent] and stays at 100% while
  /// effort tuning is off. A disabled tuner ignores the call.
  void restore(const TunerState& state);

  /// Pre-trim decision for one race at `bucket`: true = launch the exact
  /// engine (either the bucket is not trimmed, or this race is the
  /// epsilon re-probe). Emits TunerPretrim on trim-state flips.
  [[nodiscard]] bool admit_exact(int bucket);

  /// Feed one finished race back. `contested` means >= 2 verified
  /// attempts; only contested races move the win scores, but every race
  /// feeds the latency predictor and — when deadline-bounded — the effort
  /// window.
  void observe_race(int bucket, bool exact_won, bool contested, std::uint64_t race_ns,
                    std::int64_t deadline_ms);

  /// Current effort for a bucket (lock-free; read on the race path).
  [[nodiscard]] EffortPolicy effort(int bucket) const;

  /// Predicted engine cost of one request with the resolved race budget
  /// `budget_ms` (0 = unlimited; the caller has already applied its
  /// defaults): max of the bucket's race latency quantile and the hot-key
  /// table's bucket mean, falling back to the full budget when the bucket
  /// has no history (admission must price unknown sizes conservatively)
  /// and to a fixed 250ms for an unlimited one. Capped at twice a finite
  /// budget — a race cannot run much past its deadline.
  [[nodiscard]] std::uint64_t predicted_work_ns(int n, std::int64_t budget_ms) const;

  /// tuner_reprobes / tuner_pretrim_skips / tuner_effort_changes.
  void register_metrics(obs::MetricRegistry& registry, const void* owner) const;

  /// The profile_json "tuner" block:
  /// {"enabled":..,"reprobes":..,"pretrim_skips":..,"effort_changes":..,
  ///  "buckets":[{"bucket":..,"exact_score":..,"heuristic_score":..,
  ///              "trimmed":..,"effort_percent":..,"races":..,
  ///              "predicted_ns":..},...]}  (observed buckets only)
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] std::uint64_t reprobes() const noexcept { return reprobes_.value(); }
  [[nodiscard]] std::uint64_t pretrim_skips() const noexcept { return pretrim_skips_.value(); }
  [[nodiscard]] std::uint64_t effort_changes() const noexcept { return effort_changes_.value(); }

 private:
  struct Bucket {
    double exact_score = 0;
    double heuristic_score = 0;
    std::uint64_t observations = 0;
    std::uint32_t skips_since_probe = 0;
    bool trimmed = false;
    // Effort window: deadline-bounded races since the last update.
    std::uint32_t window_total = 0;
    std::uint32_t window_misses = 0;
    double window_slack_frac_sum = 0;  ///< sum over hits of (budget-elapsed)/budget
  };

  static int clamp_bucket(int bucket) noexcept;
  [[nodiscard]] bool trimmed_now(const Bucket& bucket) const noexcept;

  TunerOptions options_;
  const obs::KeyProfileTable* key_profile_ = nullptr;

  /// One mutex over all bucket learning state: admit/observe run once per
  /// engine race (milliseconds apart), so contention is negligible — and
  /// the race-path reads (effort, prediction) never take it.
  mutable std::mutex mutex_;
  std::array<Bucket, obs::kSizeBuckets> buckets_;

  /// Lock-free views of the learned policy, written under mutex_.
  std::array<std::atomic<int>, obs::kSizeBuckets> effort_percent_;
  std::array<obs::LatencyHistogram, obs::kSizeBuckets> race_ns_;

  obs::Counter reprobes_;        ///< trimmed races that launched exact anyway
  obs::Counter pretrim_skips_;   ///< races that skipped the exact engine
  obs::Counter effort_changes_;  ///< effort policy adjustments applied
};

}  // namespace lptsp
