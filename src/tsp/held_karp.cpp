#include "tsp/held_karp.hpp"

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "kernels/kernels.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace lptsp {

namespace {

constexpr std::int32_t kInf32 = std::numeric_limits<std::int32_t>::max() / 2;

/// The ISA-dispatched layer min-reduction for this table width.
template <typename Cost>
auto hk_min_kernel(const kernels::KernelTable& kt) {
  if constexpr (sizeof(Cost) == sizeof(std::int16_t)) {
    return kt.hk_min_i16;
  } else {
    return kt.hk_min_i32;
  }
}

/// Serial cancel- and deadline-poll stride: cheap enough to be
/// unmeasurable, fine enough that a 250 ms portfolio deadline stops the DP
/// within a few ms.
constexpr std::uint32_t kCancelStride = 1u << 14;

/// All subsets of {0..n-1} with the given popcount, ascending (Gosper).
std::vector<std::uint32_t> subsets_of_size(int n, int popcount) {
  std::vector<std::uint32_t> subsets;
  if (popcount == 0 || popcount > n) return subsets;
  std::uint32_t mask = (1u << popcount) - 1;
  const std::uint32_t limit = 1u << n;
  while (mask < limit) {
    subsets.push_back(mask);
    const std::uint32_t low = mask & (~mask + 1);
    const std::uint32_t ripple = mask + low;
    mask = ripple | (((mask ^ ripple) >> 2) / low);
  }
  return subsets;
}

/// The DP body, generic over the table's cost type. The table dominates the
/// runtime — the kernel is memory-bound — so when every possible path cost
/// fits in 16 bits (always true for reduced labeling instances, whose
/// weights are at most 2*pmin) the int16 table halves the traffic and
/// doubles the SIMD width of the inner reduction.
template <typename Cost>
HeldKarpRun held_karp_dp(const MetricInstance& instance, const HeldKarpOptions& options) {
  const int n = instance.n();
  constexpr Cost kInf = std::numeric_limits<Cost>::max() / 2;

  const auto cancelled = [&options] { return stop_requested(options.cancel, options.deadline); };
  // An already-cancelled run must not pay for the table: at the cap the DP
  // allocates and fills hundreds of MB before the first layer boundary.
  if (cancelled()) return {{{}, -1}, false};

  // Flat narrow copy of the weights: one load per (subset, end, source)
  // triple, inlined and cache-resident.
  std::vector<Cost> w(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Weight* wrow = instance.row(i);
    for (int j = 0; j < n; ++j) {
      w[static_cast<std::size_t>(i) * n + static_cast<std::size_t>(j)] =
          static_cast<Cost>(wrow[j]);
    }
  }

  const std::uint32_t full = (1u << n) - 1;
  std::vector<Cost> dp(static_cast<std::size_t>(full + 1) * static_cast<std::size_t>(n), kInf);
  const auto cell = [n](std::uint32_t set, int end) {
    return static_cast<std::size_t>(set) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(end);
  };

  // Layer 1: singleton paths.
  std::uint64_t cells = 0;
  for (int v = 0; v < n; ++v) {
    if (options.fixed_start == -1 || options.fixed_start == v) {
      dp[cell(1u << v, v)] = 0;
      ++cells;
    }
  }
  std::uint64_t layers_done = 1;

  // Pull-style recurrence: dp[S][i] depends only on the popcount-1 layer,
  // so every subset within one layer is independent — the parallel grain.
  // The source minimization runs dense over all j instead of iterating the
  // bits of `rest`: dp[rest][j] is kInf for every j outside rest (including
  // i itself), and kInf + any weight still fits in the cost type, so the
  // masked terms lose the min automatically. That branch-free add+min
  // reduction is the ISA-dispatched kernel (scalar / AVX2 / AVX-512); it
  // returns exactly kInf when every source is masked (possible under
  // fixed_start), since a kInf source plus a non-negative weight can never
  // win the min against the kInf identity.
  const auto hk_min = hk_min_kernel<Cost>(kernels::kernels());
  const auto process_subset = [&](std::uint32_t set) {
    for (std::uint32_t ends = set; ends != 0; ends &= ends - 1) {
      const int i = std::countr_zero(ends);
      const std::uint32_t rest = set ^ (1u << i);
      const Cost* wrow = w.data() + static_cast<std::size_t>(i) * n;
      const Cost* dp_rest = dp.data() + cell(rest, 0);
      dp[cell(set, i)] = hk_min(dp_rest, wrow, n);
    }
  };

  // Both schedules walk the layers in popcount order so the cancel flag can
  // be polled at every layer boundary.
  bool stopped = false;
  if (options.threads == 1) {
    std::uint32_t since_poll = 0;
    for (int layer = 2; layer <= n && !stopped; ++layer) {
      if (cancelled()) {
        stopped = true;
        break;
      }
      // Inline Gosper iteration: the serial path never materializes the
      // subset list.
      std::uint32_t mask = (1u << layer) - 1;
      while (mask <= full) {
        process_subset(mask);
        cells += static_cast<std::uint64_t>(layer);  // one write per end in the subset
        if (++since_poll >= kCancelStride) {
          since_poll = 0;
          if (cancelled()) {
            stopped = true;
            break;
          }
        }
        const std::uint32_t low = mask & (~mask + 1);
        const std::uint32_t ripple = mask + low;
        mask = ripple | (((mask ^ ripple) >> 2) / low);
      }
      if (!stopped) ++layers_done;
    }
  } else {
    for (int layer = 2; layer <= n; ++layer) {
      if (cancelled()) {
        stopped = true;
        break;
      }
      const auto subsets = subsets_of_size(n, layer);
      parallel_for(
          subsets.size(), [&](std::size_t idx) { process_subset(subsets[idx]); },
          options.threads);
      cells += static_cast<std::uint64_t>(subsets.size()) * static_cast<std::uint64_t>(layer);
      ++layers_done;
    }
  }
  if (stopped) return {{{}, -1}, false, layers_done, cells};

  int best_end = 0;
  for (int v = 1; v < n; ++v) {
    if (dp[cell(full, v)] < dp[cell(full, best_end)]) best_end = v;
  }
  LPTSP_ENSURE(dp[cell(full, best_end)] < kInf, "Held-Karp found no complete path");

  // Reconstruct backwards by re-deriving each argmin; this avoids a parent
  // table of the same footprint as dp itself.
  Order order;
  order.reserve(static_cast<std::size_t>(n));
  std::uint32_t set = full;
  int end = best_end;
  order.push_back(end);
  while (std::popcount(set) > 1) {
    const std::uint32_t rest = set ^ (1u << end);
    const Cost* wrow = w.data() + static_cast<std::size_t>(end) * n;
    int chosen = -1;
    for (std::uint32_t sources = rest; sources != 0; sources &= sources - 1) {
      const int j = std::countr_zero(sources);
      if (dp[cell(rest, j)] >= kInf) continue;
      if (static_cast<Cost>(dp[cell(rest, j)] + wrow[j]) == dp[cell(set, end)]) {
        chosen = j;
        break;
      }
    }
    LPTSP_ENSURE(chosen != -1, "Held-Karp reconstruction failed");
    set = rest;
    end = chosen;
    order.push_back(end);
  }
  std::reverse(order.begin(), order.end());

  return {{order, static_cast<Weight>(dp[cell(full, best_end)])}, true, layers_done, cells};
}

}  // namespace

HeldKarpRun held_karp_path_run(const MetricInstance& instance, const HeldKarpOptions& options) {
  const int n = instance.n();
  LPTSP_REQUIRE(n >= 1, "instance must have at least one vertex");
  LPTSP_REQUIRE(n <= options.max_n && options.max_n <= 24,
                "Held-Karp size cap exceeded (memory is 2^n * n * 2-4 bytes)");
  LPTSP_REQUIRE(options.fixed_start == -1 || (options.fixed_start >= 0 && options.fixed_start < n),
                "fixed_start out of range");
  if (n == 1) return {{{0}, 0}, true, 1, 1};

  // The DP stores narrow costs; make sure no path can overflow them, and
  // drop to the 16-bit table whenever it can hold every possible path.
  const Weight worst = static_cast<Weight>(n - 1) * instance.max_weight();
  LPTSP_REQUIRE(worst < kInf32, "weights too large for the 32-bit Held-Karp table");
  if (worst < std::numeric_limits<std::int16_t>::max() / 2) {
    return held_karp_dp<std::int16_t>(instance, options);
  }
  return held_karp_dp<std::int32_t>(instance, options);
}

PathSolution held_karp_path(const MetricInstance& instance, const HeldKarpOptions& options) {
  HeldKarpRun run = held_karp_path_run(instance, options);
  LPTSP_REQUIRE(run.completed, "Held-Karp was cancelled before completing");
  return std::move(run.solution);
}

}  // namespace lptsp
