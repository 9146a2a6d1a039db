#include "service/tuner.hpp"

#include <algorithm>

#include "obs/journal.hpp"

namespace lptsp {

namespace {

/// Decayed-score floor below which the exact engine counts as "never wins
/// here": one win decays under it only after several decay windows.
constexpr double kExactPresenceFloor = 0.5;

/// Restored scores are capped at this many skip_scores: enough to carry a
/// verdict across a restart, small enough to decay away quickly.
constexpr double kSeedCapFactor = 4.0;

/// Minimum admission price: even a certain cache hit costs queue slots.
constexpr std::uint64_t kMinPredictedNs = 1'000;

/// Price of an unlimited race budget on a size with no history: the
/// service's default race deadline, 250ms.
constexpr std::uint64_t kUnlimitedColdPriceNs = 250'000'000;

/// Histogram samples required before the latency quantile outranks the
/// conservative deadline-based fallback.
constexpr std::uint64_t kMinPredictorSamples = 8;

}  // namespace

EngineTuner::EngineTuner(const TunerOptions& options) : options_(options) {
  if (options_.effort_min_percent < 1) options_.effort_min_percent = 1;
  if (options_.effort_max_percent < options_.effort_min_percent) {
    options_.effort_max_percent = options_.effort_min_percent;
  }
  if (options_.admission_quantile <= 0 || options_.admission_quantile > 1) {
    options_.admission_quantile = 0.90;
  }
  for (auto& percent : effort_percent_) percent.store(100, std::memory_order_relaxed);
}

int EngineTuner::clamp_bucket(int bucket) noexcept {
  return std::clamp(bucket, 0, obs::kSizeBuckets - 1);
}

bool EngineTuner::trimmed_now(const Bucket& bucket) const noexcept {
  return bucket.exact_score < kExactPresenceFloor &&
         bucket.heuristic_score >= options_.skip_score;
}

TunerState EngineTuner::snapshot() const {
  TunerState state;
  const std::lock_guard lock(mutex_);
  for (std::size_t b = 0; b < state.size(); ++b) {
    state[b].exact_score = buckets_[b].exact_score;
    state[b].heuristic_score = buckets_[b].heuristic_score;
    state[b].effort_percent = effort_percent_[b].load(std::memory_order_relaxed);
  }
  return state;
}

void EngineTuner::restore(const TunerState& state) {
  if (!options_.enabled) return;
  const double cap = options_.skip_score * kSeedCapFactor;
  // `score >= 0` is false for NaN, so NaN joins the negatives at 0.
  const auto sane = [cap](double score) { return score >= 0 ? std::min(score, cap) : 0.0; };
  const std::lock_guard lock(mutex_);
  for (std::size_t b = 0; b < state.size(); ++b) {
    buckets_[b].exact_score = sane(state[b].exact_score);
    buckets_[b].heuristic_score = sane(state[b].heuristic_score);
    if (options_.effort_update_every == 0) continue;
    effort_percent_[b].store(std::clamp(state[b].effort_percent, options_.effort_min_percent,
                                        options_.effort_max_percent),
                             std::memory_order_relaxed);
  }
}

bool EngineTuner::admit_exact(int bucket) {
  if (!options_.enabled) return true;
  const auto index = static_cast<std::size_t>(clamp_bucket(bucket));
  bool flipped = false;
  bool now_trimmed = false;
  bool launch = true;
  bool reprobe = false;
  {
    const std::lock_guard lock(mutex_);
    Bucket& state = buckets_[index];
    now_trimmed = trimmed_now(state);
    if (now_trimmed != state.trimmed) {
      state.trimmed = now_trimmed;
      flipped = true;
    }
    if (now_trimmed) {
      state.skips_since_probe += 1;
      if (options_.reprobe_every > 0 && state.skips_since_probe >= options_.reprobe_every) {
        state.skips_since_probe = 0;
        reprobe = true;
      } else {
        launch = false;
      }
    } else {
      state.skips_since_probe = 0;
    }
  }
  // Journal and counters outside the lock — same discipline as SloTracker.
  if (flipped) {
    obs::journal().emit(obs::EventType::TunerPretrim,
                        now_trimmed ? obs::EventLevel::Warn : obs::EventLevel::Info, nullptr, 0,
                        static_cast<std::uint64_t>(index), now_trimmed ? 0 : 1,
                        now_trimmed ? 1 : 0);
  }
  if (reprobe) {
    reprobes_.add();
    return true;
  }
  if (!launch) pretrim_skips_.add();
  return launch;
}

void EngineTuner::observe_race(int bucket, bool exact_won, bool contested, std::uint64_t race_ns,
                               std::int64_t deadline_ms) {
  const auto index = static_cast<std::size_t>(clamp_bucket(bucket));
  race_ns_[index].record(std::max(race_ns, std::uint64_t{1}));
  if (!options_.enabled) return;

  int old_percent = 0;
  int new_percent = 0;
  {
    const std::lock_guard lock(mutex_);
    Bucket& state = buckets_[index];
    state.observations += 1;
    if (options_.decay_every > 0 && state.observations % options_.decay_every == 0) {
      state.exact_score *= 0.5;
      state.heuristic_score *= 0.5;
    }
    if (contested) {
      (exact_won ? state.exact_score : state.heuristic_score) += 1.0;
    }

    if (options_.effort_update_every == 0 || deadline_ms <= 0) return;
    const auto budget_ns = static_cast<std::uint64_t>(deadline_ms) * 1'000'000ULL;
    state.window_total += 1;
    if (race_ns > budget_ns) {
      state.window_misses += 1;
    } else {
      state.window_slack_frac_sum +=
          static_cast<double>(budget_ns - race_ns) / static_cast<double>(budget_ns);
    }
    if (state.window_total < options_.effort_update_every) return;

    const std::uint32_t hits = state.window_total - state.window_misses;
    const int hit_percent = static_cast<int>(hits * 100 / state.window_total);
    const double mean_slack =
        hits == 0 ? 0.0 : state.window_slack_frac_sum / static_cast<double>(hits);
    old_percent = effort_percent_[index].load(std::memory_order_relaxed);
    new_percent = old_percent;
    if (hit_percent < options_.target_hit_percent) {
      // Missing deadlines: shed effort so cancelled engines stop burning
      // the budget without finishing.
      new_percent = old_percent - options_.effort_step_percent;
    } else if (state.window_misses == 0 && mean_slack > 0.5) {
      // Every race hit with over half the budget to spare: spend the
      // headroom on more kicks / nodes / a bolder Held-Karp predicate.
      new_percent = old_percent + options_.effort_step_percent;
    }
    new_percent = std::clamp(new_percent, options_.effort_min_percent, options_.effort_max_percent);
    state.window_total = 0;
    state.window_misses = 0;
    state.window_slack_frac_sum = 0;
    if (new_percent == old_percent) return;
    effort_percent_[index].store(new_percent, std::memory_order_relaxed);
  }
  effort_changes_.add();
  obs::journal().emit(obs::EventType::TunerEffort, obs::EventLevel::Info, nullptr, 0,
                      static_cast<std::uint64_t>(index), old_percent, new_percent);
}

EffortPolicy EngineTuner::effort(int bucket) const {
  EffortPolicy policy;
  if (!options_.enabled) return policy;
  const auto index = static_cast<std::size_t>(clamp_bucket(bucket));
  policy.percent = effort_percent_[index].load(std::memory_order_relaxed);
  policy.hk_overrun_factor = std::clamp(
      kBaseHkOverrunFactor * static_cast<double>(policy.percent) / 100.0, 1.0, 16.0);
  return policy;
}

std::uint64_t EngineTuner::predicted_work_ns(int n, std::int64_t budget_ms) const {
  const auto index = static_cast<std::size_t>(obs::size_bucket(n));
  std::uint64_t estimate = 0;
  const obs::HistogramSnapshot snap = race_ns_[index].snapshot();
  if (snap.count >= kMinPredictorSamples) {
    estimate = snap.quantile(options_.admission_quantile);
  }
  if (key_profile_ != nullptr) {
    estimate = std::max(estimate, key_profile_->bucket_mean_ns(static_cast<int>(index)));
  }
  if (estimate == 0) {
    // No history at this size: price at the full race budget. Unknown
    // sizes are exactly where optimistic admission melts the queue.
    estimate = budget_ms > 0 ? static_cast<std::uint64_t>(budget_ms) * 1'000'000ULL
                             : kUnlimitedColdPriceNs;
  }
  if (budget_ms > 0) {
    estimate = std::min(estimate,
                        static_cast<std::uint64_t>(budget_ms) * std::uint64_t{2'000'000});
  }
  return std::max(estimate, kMinPredictedNs);
}

void EngineTuner::register_metrics(obs::MetricRegistry& registry, const void* owner) const {
  if (owner == nullptr) owner = this;
  registry.register_counter("tuner_reprobes", &reprobes_, owner);
  registry.register_counter("tuner_pretrim_skips", &pretrim_skips_, owner);
  registry.register_counter("tuner_effort_changes", &effort_changes_, owner);
}

std::string EngineTuner::to_json() const {
  std::string out = "{\"enabled\":";
  out += options_.enabled ? "true" : "false";
  out += ",\"reprobes\":" + std::to_string(reprobes_.value());
  out += ",\"pretrim_skips\":" + std::to_string(pretrim_skips_.value());
  out += ",\"effort_changes\":" + std::to_string(effort_changes_.value());
  out += ",\"buckets\":[";
  bool first = true;
  for (int b = 0; b < obs::kSizeBuckets; ++b) {
    const auto index = static_cast<std::size_t>(b);
    double exact_score = 0;
    double heuristic_score = 0;
    std::uint64_t observations = 0;
    bool trimmed = false;
    {
      const std::lock_guard lock(mutex_);
      const Bucket& state = buckets_[index];
      exact_score = state.exact_score;
      heuristic_score = state.heuristic_score;
      observations = state.observations;
      trimmed = state.trimmed;
    }
    const std::uint64_t raced = race_ns_[index].snapshot().count;
    if (observations == 0 && raced == 0 && exact_score == 0 && heuristic_score == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    out += "{\"bucket\":" + std::to_string(b);
    out += ",\"exact_score\":" + obs::format_fixed2(exact_score);
    out += ",\"heuristic_score\":" + obs::format_fixed2(heuristic_score);
    out += ",\"trimmed\":";
    out += trimmed ? "true" : "false";
    out += ",\"effort_percent\":" +
           std::to_string(effort_percent_[index].load(std::memory_order_relaxed));
    out += ",\"races\":" + std::to_string(raced);
    // Price an already-observed size with no extra deadline context.
    out += ",\"predicted_ns\":" + std::to_string(predicted_work_ns(b == 0 ? 0 : 1 << (b - 1), 0));
    out.push_back('}');
  }
  out += "]}";
  return out;
}

}  // namespace lptsp
