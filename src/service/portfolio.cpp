#include "service/portfolio.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <utility>

#include "service/tuner.hpp"
#include "tsp/branch_bound.hpp"
#include "tsp/brute_force.hpp"
#include "tsp/chained_lk.hpp"
#include "tsp/held_karp.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace lptsp {

namespace {

struct Run {
  EngineAttempt attempt;
  PathSolution solution;
};

bool is_exact(Engine engine) noexcept {
  return engine == Engine::HeldKarp || engine == Engine::BranchBound;
}

}  // namespace

EnginePortfolio::EnginePortfolio(TaskPool& pool, const PortfolioOptions& options)
    : pool_(pool), options_(options) {}

int EnginePortfolio::slot_of(Engine engine) noexcept {
  switch (engine) {
    case Engine::HeldKarp: return 0;
    case Engine::BranchBound: return 1;
    default: return 2;  // every heuristic maps to the ChainedLK slot
  }
}

PortfolioOutcome EnginePortfolio::race(const MetricInstance& instance,
                                       std::optional<std::chrono::milliseconds> deadline_override) {
  const Timer timer;
  // Injected engine stall (chaos harness): burn wall time on this worker
  // before any engine starts, driving the pending gauge up the same way a
  // pathological instance would.
  fault::maybe_stall(FaultSite::EngineStall);
  const int n = instance.n();
  LPTSP_REQUIRE(n >= 1, "portfolio requires a non-empty instance");
  const std::chrono::milliseconds deadline = deadline_override.value_or(options_.deadline);

  PortfolioOutcome outcome;
  races_total_.add();
  if (n <= 3) {
    // Too small to be worth a race (or a thread hop): enumerate exactly.
    // Counted in races_total but not in any per-engine slot — brute force
    // would share the heuristic slot, and folding its microsecond runs
    // into chained-lk's latency histogram would skew it.
    outcome.solution = brute_force_path(instance);
    outcome.optimal = true;
    outcome.winner = Engine::BruteForce;
    outcome.attempts.push_back(
        {Engine::BruteForce, true, true, true, outcome.solution.cost, timer.seconds(), {}});
    outcome.seconds = timer.seconds();
    return outcome;
  }

  // Pick the exact contender. Held–Karp polls the race's cancel flag at
  // its layer boundaries, so it may race well beyond the sizes whose
  // predicted runtime (~2^n n^2 simple ops) fits the deadline — a 4x
  // overrun prediction is tolerated because a cancelled HK now forfeits
  // cleanly instead of blowing the deadline. Only when HK is predicted
  // hopeless (or exceeds its memory cap) does the O(n)-memory BranchBound
  // take the slot: unlike HK, a cancelled BranchBound still contributes
  // its anytime incumbent, which matters on deadline-bound traffic.
  // Learned per-bucket effort: scales heuristic kicks and the exact
  // budgets; 100% with the default overrun factor when no tuner is
  // attached.
  const int bucket = obs::size_bucket(n);
  const EffortPolicy effort = tuner_ != nullptr ? tuner_->effort(bucket) : EffortPolicy{};

  bool use_hk = n <= std::min(options_.exact_max_n, kHeldKarpMemoryCapN);
  if (use_hk && deadline.count() > 0) {
    const double predicted_ms = std::ldexp(1.0, n) * n * n / 1e6;
    if (predicted_ms > effort.hk_overrun_factor * static_cast<double>(deadline.count())) {
      use_hk = false;
    }
  }
  const Engine exact_engine = use_hk ? Engine::HeldKarp : Engine::BranchBound;

  bool run_exact = true;
  if (heuristic_only_.load(std::memory_order_relaxed)) {
    // Brownout rung 1: shed the exact engine, keep the bounded heuristic.
    run_exact = false;
    races_heuristic_only_.add();
  }
  if (run_exact && tuner_ != nullptr) {
    // Decayed pre-trim with epsilon re-probe (the tuner journals its own
    // trim flips and counts skips/re-probes).
    run_exact = tuner_->admit_exact(bucket);
  }

  // The one attempt runner: it times the engine, forfeits it on a
  // precondition error (BranchBound's node limit), and cancels the rival
  // from this attempt's own task when the attempt certifies an optimum —
  // ties go to the optimal attempt, so the heuristic can no longer win —
  // or throws, since the race then rethrows anyway.
  std::atomic<bool> cancel{false};
  std::vector<std::future<Run>> futures;
  const auto launch = [this, &cancel, &futures](Engine engine, auto body) {
    futures.push_back(pool_.submit([&cancel, engine, body]() -> Run {
      const Timer attempt_timer;
      Run run;
      run.attempt.engine = engine;
      run.solution.cost = -1;
      try {
        body(run);
      } catch (const precondition_error&) {
        run.solution.cost = -1;
      } catch (...) {
        cancel.store(true, std::memory_order_relaxed);
        throw;
      }
      run.attempt.seconds = attempt_timer.seconds();
      if (is_exact(engine) && run.attempt.finished && run.solution.cost >= 0) {
        cancel.store(true, std::memory_order_relaxed);
      }
      return run;
    }));
  };

  if (run_exact) {
    launch(exact_engine, [this, &instance, &cancel, exact_engine, effort](Run& run) {
      if (exact_engine == Engine::HeldKarp) {
        HeldKarpOptions hk;
        hk.cancel = &cancel;
        HeldKarpRun result = held_karp_path_run(instance, hk);
        run.solution = std::move(result.solution);
        run.attempt.finished = result.completed;
        run.attempt.work.hk_layers = result.layers;
        run.attempt.work.hk_cells = result.cells;
      } else {
        BranchBoundOptions bb;
        // Effort-scaled search cap, floored so a harshly down-tuned
        // bucket still explores enough nodes to beat a greedy tour.
        bb.node_limit =
            std::max<long long>(100'000, options_.bb_node_limit * effort.percent / 100);
        bb.cancel = &cancel;
        BranchBoundRun result = branch_bound_path_run(instance, bb);
        run.solution = std::move(result.solution);
        run.attempt.finished = result.completed;
        run.attempt.work.bb_nodes = static_cast<std::uint64_t>(result.nodes);
        run.attempt.work.bb_pruned = static_cast<std::uint64_t>(result.pruned);
      }
    });
  }

  launch(Engine::ChainedLK, [this, &instance, &cancel, n, effort](Run& run) {
    ChainedLkOptions lk;
    lk.seed = options_.seed;
    lk.cancel = &cancel;
    // Scale kick effort down as n grows so one kick round stays well under
    // typical deadlines and the cancel flag is polled often; the tuner's
    // learned per-bucket effort then scales that baseline up or down.
    lk.restarts = 3;
    lk.kicks = std::max(4, std::max(8, 200 / std::max(1, n / 16)) * effort.percent / 100);
    ChainedLkRun result = chained_lk_path_run(instance, lk);
    run.solution = std::move(result.solution);
    run.attempt.finished = result.completed;
    run.attempt.work.lk_kicks = result.kicks;
    run.attempt.work.lk_accepted = result.accepted;
    run.attempt.work.lk_wakes = result.wakes;
    run.attempt.work.lk_moves = result.moves;
  });

  // One join pass: wait for every attempt until the deadline, cancel what
  // still runs, join. Every future must be joined even when one throws
  // (invariant errors, bad_alloc): the tasks reference this frame's
  // `cancel` and the caller's instance, so abandoning one on unwind would
  // be a use-after-free.
  const auto until = deadline.count() > 0
                         ? std::chrono::steady_clock::now() + deadline
                         : std::chrono::steady_clock::time_point::max();
  for (auto& future : futures) future.wait_until(until);
  cancel.store(true, std::memory_order_relaxed);
  std::vector<Run> runs;
  runs.reserve(futures.size());
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      runs.push_back(future.get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  int best = -1;
  int verified_attempts = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EngineAttempt& attempt = runs[i].attempt;
    const PathSolution& solution = runs[i].solution;
    attempt.cost = solution.cost;
    attempt.verified = solution.cost >= 0 && is_valid_order(solution.order, n) &&
                       path_length(instance, solution.order) == solution.cost;
    attempt.optimal = attempt.verified && attempt.finished && is_exact(attempt.engine);
    if (attempt.verified) {
      ++verified_attempts;
      const Run* incumbent = best < 0 ? nullptr : &runs[static_cast<std::size_t>(best)];
      if (incumbent == nullptr || solution.cost < incumbent->solution.cost ||
          (solution.cost == incumbent->solution.cost && attempt.optimal &&
           !incumbent->attempt.optimal)) {
        best = static_cast<int>(i);
      }
    }
    outcome.attempts.push_back(attempt);
    outcome.work.merge(attempt.work);
    work_.add(attempt.work);
    const auto slot = static_cast<std::size_t>(slot_of(attempt.engine));
    slot_latency_[slot].record(static_cast<std::uint64_t>(attempt.seconds * 1e9));
    if (!attempt.finished) slot_cancelled_[slot].add();
  }
  if (best >= 0) {
    Run& winner = runs[static_cast<std::size_t>(best)];
    outcome.solution = std::move(winner.solution);
    outcome.optimal = winner.attempt.optimal;
    outcome.winner = winner.attempt.engine;
    slot_wins_[static_cast<std::size_t>(slot_of(outcome.winner))].add();
  } else {
    outcome.solution.cost = -1;  // no engine verified — caller reports EngineFailure
    races_failed_.add();
  }
  outcome.seconds = timer.seconds();
  if (best >= 0 && runs.size() >= 2) {
    // What the race added over its winner: dispatch, cancel latency and
    // the join of the losing engine.
    const double winner_seconds = runs[static_cast<std::size_t>(best)].attempt.seconds;
    race_overhead_.record(
        static_cast<std::uint64_t>(std::max(0.0, outcome.seconds - winner_seconds) * 1e9));
  }
  if (tuner_ != nullptr) {
    // Feed the race back. Only contested races move the win scores:
    // walkovers — including races where a cancelled Held–Karp forfeited
    // without a solution — would make an exact-engine skip
    // self-reinforcing. They still teach the latency predictor and the
    // effort windows — real costs the admission gate must price.
    tuner_->observe_race(bucket, best >= 0 && is_exact(outcome.winner),
                         best >= 0 && verified_attempts >= 2,
                         static_cast<std::uint64_t>(outcome.seconds * 1e9), deadline.count());
  }
  return outcome;
}

void EnginePortfolio::register_metrics(obs::MetricRegistry& registry, const void* owner) const {
  if (owner == nullptr) owner = this;
  registry.register_counter("races_total", &races_total_, owner);
  registry.register_counter("races_failed", &races_failed_, owner);
  registry.register_counter("races_heuristic_only", &races_heuristic_only_, owner);
  // Slot order mirrors slot_of(): HeldKarp / BranchBound / ChainedLK.
  static constexpr const char* kSlotNames[kSlots] = {"held_karp", "branch_bound", "chained_lk"};
  for (int slot = 0; slot < kSlots; ++slot) {
    const auto i = static_cast<std::size_t>(slot);
    registry.register_counter(std::string("engine_race_wins_") + kSlotNames[i], &slot_wins_[i],
                              owner);
    registry.register_counter(std::string("engine_race_cancelled_") + kSlotNames[i],
                              &slot_cancelled_[i], owner);
    registry.register_histogram(std::string("engine_ns_") + kSlotNames[i], &slot_latency_[i],
                                owner);
  }
  registry.register_histogram("race_overhead_ns", &race_overhead_, owner);
  work_.register_into(registry, owner);
}

}  // namespace lptsp
