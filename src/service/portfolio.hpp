#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/solvers.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "tsp/instance.hpp"
#include "tsp/path.hpp"
#include "util/thread_pool.hpp"

namespace lptsp {

class EngineTuner;

struct PortfolioOptions {
  /// Default per-race wall-clock budget; 0 = run every engine to
  /// completion. Each engine polls the deadline itself, where it polls the
  /// race's cancel flag: BranchBound and ChainedLK stop there and
  /// contribute their incumbent, Held–Karp forfeits.
  std::chrono::milliseconds deadline{250};
  /// Held–Karp takes the exact slot up to this n (its 2^n * n memory cap).
  /// The DP polls the race's cancel flag at layer boundaries, so it races
  /// even when its predicted runtime overruns the deadline by up to 4x;
  /// beyond that — or beyond this cap — the O(n)-memory BranchBound takes
  /// the slot, whose cancellation still yields an anytime incumbent.
  int exact_max_n = 20;
  /// BranchBound search cap per race, independent of the deadline.
  long long bb_node_limit = 20'000'000;
  std::uint64_t seed = 1;
};

/// One engine's run inside a race, for provenance and tests.
struct EngineAttempt {
  Engine engine = Engine::ChainedLK;
  bool finished = false;   ///< ran to completion (not cancelled / no cap hit)
  bool verified = false;   ///< order is a permutation and cost re-checks
  bool optimal = false;    ///< exact engine AND finished
  Weight cost = -1;
  double start_seconds = 0;  ///< when the attempt started, from race start
  double seconds = 0;        ///< how long it ran
  obs::EngineWork work;    ///< work this attempt performed (its fields only)
};

struct PortfolioOutcome {
  PathSolution solution;
  bool optimal = false;
  Engine winner = Engine::ChainedLK;
  std::vector<EngineAttempt> attempts;
  double seconds = 0;
  obs::EngineWork work;    ///< all attempts' work, merged
};

/// Deadline-aware engine racing. Each race runs an exact engine
/// (Held–Karp for small n, on a TaskPool worker; BranchBound above, on the
/// calling thread) against the strongest heuristic (ChainedLK), queued on
/// the pool at once. An exact engine that certifies an optimum cancels its
/// rival from its own attempt; under an attached tuner it also closes the
/// heuristic if no worker has started it yet, so on instances the exact
/// engine certifies quickly the heuristic never runs. A tuner-less race
/// always runs both engines, and an uncertified finish runs the heuristic
/// on the calling thread if no worker has taken it. The race returns the
/// best result among those that verify (permutation check + independent
/// cost recomputation). Every engine stops itself at the deadline. What
/// the races teach — whether to launch the exact engine and how hard each
/// engine works — is learned per size bucket by an attached EngineTuner.
class EnginePortfolio {
 public:
  explicit EnginePortfolio(TaskPool& pool, const PortfolioOptions& options = {});

  /// Race engines on one reduced instance. `deadline_override`, when set,
  /// replaces options.deadline for this race (per-request deadlines).
  PortfolioOutcome race(const MetricInstance& instance,
                        std::optional<std::chrono::milliseconds> deadline_override = {});

  [[nodiscard]] const PortfolioOptions& options() const noexcept { return options_; }

  /// Held-Karp's hard memory cap: its 2^n * n DP table stops being a
  /// sane allocation above this n regardless of what exact_max_n asks
  /// for.
  static constexpr int kHeldKarpMemoryCapN = 22;

  /// Attach the learning layer (not owned; must outlive every race).
  /// When attached, race() consults the tuner for the exact-engine
  /// pre-trim decision and per-bucket effort, lets a certifying exact
  /// engine close the unstarted heuristic, and reports every finished race
  /// back; without one, every race runs both engines at 100% effort.
  /// Call before serving traffic — attachment is not synchronized against
  /// in-flight races.
  void attach_tuner(EngineTuner* tuner) noexcept { tuner_ = tuner; }

  /// Brownout override (the heuristic-only rung of BatchSolver's
  /// admission): while set, race() skips the exact engine entirely and
  /// serves the chained-LK heuristic alone — bounded work per request, no
  /// optimality certificates. Safe to toggle from any thread; in-flight
  /// races finish under the mode they started with. Returns the previous
  /// value, so of several threads setting the same value exactly one sees
  /// the flip.
  bool force_heuristic_only(bool on) noexcept {
    return heuristic_only_.exchange(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool heuristic_only() const noexcept {
    return heuristic_only_.load(std::memory_order_relaxed);
  }

  /// Publish race totals, per-engine win/cancel counters, per-engine
  /// latency histograms and the race-overhead histogram into `registry`,
  /// tagged with `owner` (defaults to this portfolio). The portfolio must
  /// outlive the registry's snapshots or deregister(owner) first.
  void register_metrics(obs::MetricRegistry& registry, const void* owner = nullptr) const;

  /// Lifetime engine-work totals across every race (engine_work_* in the
  /// registry; the profile JSON renders them with per-second rates).
  [[nodiscard]] const obs::WorkCounters& work() const noexcept { return work_; }

 private:
  static constexpr int kSlots = 3;  // HeldKarp / BranchBound / ChainedLK
  static int slot_of(Engine engine) noexcept;

  TaskPool& pool_;
  PortfolioOptions options_;
  EngineTuner* tuner_ = nullptr;
  std::atomic<bool> heuristic_only_{false};
  // Observability storage, indexed by slot_of(): monitoring counters,
  // global per engine and reset on restart (the tuner owns learning).
  obs::Counter races_total_;
  obs::Counter races_failed_;
  obs::Counter races_heuristic_only_;  ///< races run with the exact slot shed
  std::array<obs::Counter, kSlots> slot_wins_;
  std::array<obs::Counter, kSlots> slot_cancelled_;
  std::array<obs::LatencyHistogram, kSlots> slot_latency_;
  /// Race wall time minus the winning attempt's, per race that ran both
  /// engines (none when the exact engine closed the heuristic).
  obs::LatencyHistogram race_overhead_;
  obs::WorkCounters work_;
};

}  // namespace lptsp
