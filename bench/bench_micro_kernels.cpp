/// Micro-benchmarks (google-benchmark) for the hot kernels behind the
/// experiment binaries — BFS all-pairs distances, the Theorem-2 reduction,
/// Held-Karp layers, 2-opt passes, and the blossom matching — plus the
/// per-ISA kernel ablation: every dispatch tier this machine supports
/// (scalar / AVX2 / AVX-512) is timed on the same inputs and the speedups
/// are written to BENCH_micro_kernels.json.
///
/// Acceptance (when the machine has AVX2): the AVX2 APSP word-intersection
/// kernel and the AVX2 Held-Karp min-reduction must be >= 1.3x over the
/// scalar tier. The ablation runs before the google-benchmark suite; pass
/// --benchmark_filter=<none-matching> to run only the ablation (CI does).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/reduction.hpp"
#include "graph/generators.hpp"
#include "kernels/kernels.hpp"
#include "tsp/candidates.hpp"
#include "tsp/construct.hpp"
#include "tsp/held_karp.hpp"
#include "tsp/local_search.hpp"
#include "tsp/matching.hpp"
#include "util/rng.hpp"

namespace {

using namespace lptsp;

Graph make_graph(int n, double prob, std::uint64_t seed) {
  Rng rng(seed);
  return random_with_diameter_at_most(n, 3, prob, rng);
}

using kernels::supported_tiers;

/// Per-ISA ablation. Three workloads, each timed once per supported tier:
///
///  * APSP on K_{2000,49}: the two sides of a complete bipartite graph
///    make the bulk (side-A x side-A) pairs non-adjacent with all their
///    common neighbors packed into the LAST adjacency words, so the
///    word-intersection scan runs long instead of exiting on word 0 —
///    the kernel-bound case wider ISAs accelerate. A realistic random
///    diameter-2 lane rides along for context (its scan exits early on
///    most pairs, so its speedup is naturally smaller).
///  * The Held-Karp layer min-reduction on synthetic dp rows at the DP's
///    real row width (n = 22), int16 and int32 tables.
///  * The candidate-build census scans (range-min + count-equal) on a
///    two-valued weight row like reduced labeling metrics produce.
///
/// Returns 0 on acceptance, 1 when an AVX2-capable machine fails the
/// >= 1.3x floor.
int run_isa_ablation() {
  lptsp::bench::BenchJson json("micro_kernels");
  const std::vector<IsaTier> tiers = supported_tiers();
  const IsaTier restore = kernels::active_isa_tier();
  std::printf("micro_kernels ISA ablation — detected tier: %s (tiers:",
              isa_tier_name(kernels::detected_isa_tier()));
  for (const IsaTier tier : tiers) std::printf(" %s", isa_tier_name(tier));
  std::printf(")\n");
  // Tier index as the tracked value: if a future run lands on a runner
  // with a different ISA, the perf differ flags this entry alongside the
  // apsp_*/hk_* swings it explains.
  json.record_ratio("detected_tier_index", 0,
                    static_cast<double>(kernels::detected_isa_tier()));

  double apsp_ns[3] = {0, 0, 0};
  double hk16_ns[3] = {0, 0, 0};
  double hk32_ns[3] = {0, 0, 0};

  // --- APSP word-intersection kernel ---------------------------------
  {
    const Graph adversarial = complete_bipartite(2000, 49);
    const Graph realistic = lptsp::bench::workload_graph(1024, 2, 77, 0.15);
    for (const IsaTier tier : tiers) {
      kernels::set_isa_tier(tier);
      const double adv_ns =
          lptsp::bench::median_ns(3, [&] { (void)all_pairs_distances(adversarial, 1); });
      const double real_ns =
          lptsp::bench::median_ns(3, [&] { (void)all_pairs_distances(realistic, 1); });
      apsp_ns[static_cast<int>(tier)] = adv_ns;
      json.record(std::string("apsp_diam2_bipartite_") + isa_tier_name(tier), adversarial.n(),
                  adv_ns);
      json.record(std::string("apsp_diam2_er_") + isa_tier_name(tier), realistic.n(), real_ns);
      std::printf("  apsp %-6s  bipartite %8.2f ms   er(1024) %8.2f ms\n", isa_tier_name(tier),
                  adv_ns / 1e6, real_ns / 1e6);
    }
  }

  // --- Held-Karp layer min-reduction ---------------------------------
  {
    constexpr int kRowWidth = 22;  // the DP's max row width (options.max_n)
    constexpr int kRows = 1 << 15;
    Rng rng(4242);
    std::vector<std::int16_t> dp16(static_cast<std::size_t>(kRows) * kRowWidth);
    std::vector<std::int32_t> dp32(dp16.size());
    for (std::size_t i = 0; i < dp16.size(); ++i) {
      dp16[i] = static_cast<std::int16_t>(rng.uniform_index(16383));
      dp32[i] = static_cast<std::int32_t>(rng.uniform_index(1u << 30));
    }
    std::vector<std::int16_t> w16(kRowWidth);
    std::vector<std::int32_t> w32(kRowWidth);
    for (int j = 0; j < kRowWidth; ++j) {
      w16[static_cast<std::size_t>(j)] = static_cast<std::int16_t>(2 + 2 * (j % 2));
      w32[static_cast<std::size_t>(j)] = 2 + 2 * (j % 2);
    }
    for (const IsaTier tier : tiers) {
      const kernels::KernelTable& table = kernels::kernel_table_for(tier);
      long long sink = 0;
      const double ns16 = lptsp::bench::median_ns(5, [&] {
        for (int r = 0; r < kRows; ++r) {
          sink += table.hk_min_i16(dp16.data() + static_cast<std::size_t>(r) * kRowWidth,
                                   w16.data(), kRowWidth);
        }
      });
      const double ns32 = lptsp::bench::median_ns(5, [&] {
        for (int r = 0; r < kRows; ++r) {
          sink += table.hk_min_i32(dp32.data() + static_cast<std::size_t>(r) * kRowWidth,
                                   w32.data(), kRowWidth);
        }
      });
      benchmark::DoNotOptimize(sink);
      hk16_ns[static_cast<int>(tier)] = ns16;
      hk32_ns[static_cast<int>(tier)] = ns32;
      json.record(std::string("hk_min_i16_") + isa_tier_name(tier), kRows, ns16);
      json.record(std::string("hk_min_i32_") + isa_tier_name(tier), kRows, ns32);
      std::printf("  hk-min %-6s  i16 %8.0f ns/32k rows   i32 %8.0f ns/32k rows\n",
                  isa_tier_name(tier), ns16, ns32);
    }
    // End-to-end: the whole DP through the dispatched tier.
    const Graph graph = lptsp::bench::workload_graph(18, 2, 4);
    const auto reduced = reduce_to_path_tsp(graph, PVec::L21());
    for (const IsaTier tier : tiers) {
      kernels::set_isa_tier(tier);
      const double ns =
          lptsp::bench::median_ns(3, [&] { (void)held_karp_path(reduced.instance); });
      json.record(std::string("held_karp_n18_") + isa_tier_name(tier), 18, ns);
      std::printf("  held-karp(n=18) %-6s  %8.2f ms\n", isa_tier_name(tier), ns / 1e6);
    }
  }

  // --- candidate-build census scans ----------------------------------
  {
    constexpr int kWidth = 4096;
    Rng rng(99);
    std::vector<std::int64_t> weights(kWidth);
    for (auto& w : weights) w = 2 + 2 * static_cast<std::int64_t>(rng.uniform_index(2));
    for (const IsaTier tier : tiers) {
      const kernels::KernelTable& table = kernels::kernel_table_for(tier);
      long long sink = 0;
      const double ns = lptsp::bench::median_ns(5, [&] {
        for (int rep = 0; rep < 64; ++rep) {
          const std::int64_t cheapest = table.weight_range_min(weights.data(), kWidth);
          sink += table.weight_range_count_eq(weights.data(), kWidth, cheapest);
        }
      });
      benchmark::DoNotOptimize(sink);
      json.record(std::string("candidate_census_") + isa_tier_name(tier), kWidth, ns);
      std::printf("  census %-6s  %8.0f ns/64 rows\n", isa_tier_name(tier), ns);
    }
  }

  kernels::set_isa_tier(restore);

  // Speedups vs scalar, recorded for the perf differ; acceptance floors
  // only where the tier exists.
  int rc = 0;
  for (const IsaTier tier : tiers) {
    if (tier == IsaTier::Scalar) continue;
    const int t = static_cast<int>(tier);
    const double apsp_speedup = apsp_ns[0] / apsp_ns[t];
    const double hk16_speedup = hk16_ns[0] / hk16_ns[t];
    const double hk32_speedup = hk32_ns[0] / hk32_ns[t];
    json.record_ratio(std::string("apsp_bipartite_speedup_") + isa_tier_name(tier) +
                          "_vs_scalar",
                      2049, apsp_speedup);
    json.record_ratio(std::string("hk_min_i16_speedup_") + isa_tier_name(tier) + "_vs_scalar",
                      22, hk16_speedup);
    json.record_ratio(std::string("hk_min_i32_speedup_") + isa_tier_name(tier) + "_vs_scalar",
                      22, hk32_speedup);
    std::printf("  %s vs scalar: apsp %.2fx, hk-min i16 %.2fx, i32 %.2fx\n",
                isa_tier_name(tier), apsp_speedup, hk16_speedup, hk32_speedup);
    if (tier == IsaTier::Avx2) {
      if (apsp_speedup < 1.3) {
        std::printf("ACCEPTANCE FAILED: AVX2 APSP kernel %.2fx < 1.3x over scalar\n",
                    apsp_speedup);
        rc = 1;
      }
      if (hk16_speedup < 1.3) {
        std::printf("ACCEPTANCE FAILED: AVX2 Held-Karp i16 min-reduction %.2fx < 1.3x over "
                    "scalar\n",
                    hk16_speedup);
        rc = 1;
      }
    }
  }
  if (tiers.size() == 1) {
    std::printf("  (scalar-only machine: per-ISA acceptance vacuously passes)\n");
  }
  std::printf("wrote %s\n", json.write().c_str());
  return rc;
}

void BM_AllPairsBfs(benchmark::State& state) {
  const Graph graph = make_graph(static_cast<int>(state.range(0)), 0.05, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(all_pairs_distances(graph, 1));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AllPairsBfs)->Arg(64)->Arg(128)->Arg(256)->Complexity(benchmark::oNSquared);

void BM_Reduction(benchmark::State& state) {
  const Graph graph = make_graph(static_cast<int>(state.range(0)), 0.05, 2);
  const PVec p({2, 2, 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(reduce_to_path_tsp(graph, p, 1));
  }
}
BENCHMARK(BM_Reduction)->Arg(64)->Arg(128)->Arg(256);

void BM_HeldKarp(benchmark::State& state) {
  const Graph graph = make_graph(static_cast<int>(state.range(0)), 0.3, 3);
  const auto reduced = reduce_to_path_tsp(graph, PVec({2, 2, 1}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(held_karp_path(reduced.instance));
  }
}
BENCHMARK(BM_HeldKarp)->Arg(12)->Arg(14)->Arg(16);

void BM_TwoOptPass(benchmark::State& state) {
  const Graph graph = make_graph(static_cast<int>(state.range(0)), 0.05, 4);
  const auto reduced = reduce_to_path_tsp(graph, PVec({2, 2, 1}));
  Rng rng(7);
  Order order = rng.permutation(reduced.instance.n());
  for (auto _ : state) {
    Order copy = order;
    benchmark::DoNotOptimize(two_opt_pass(reduced.instance, copy));
  }
}
BENCHMARK(BM_TwoOptPass)->Arg(128)->Arg(256)->Arg(512);

void BM_NearestNeighbor(benchmark::State& state) {
  const Graph graph = make_graph(static_cast<int>(state.range(0)), 0.05, 5);
  const auto reduced = reduce_to_path_tsp(graph, PVec({2, 2, 1}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(nearest_neighbor_path(reduced.instance, 0));
  }
}
BENCHMARK(BM_NearestNeighbor)->Arg(128)->Arg(512);

void BM_BlossomMatching(benchmark::State& state) {
  Rng rng(9);
  const Graph graph = erdos_renyi(static_cast<int>(state.range(0)), 0.2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_cardinality_matching(graph));
  }
}
BENCHMARK(BM_BlossomMatching)->Arg(64)->Arg(128);

// Per-tier variants of the dispatched kernels, registered at runtime for
// exactly the tiers this machine supports (google-benchmark lane of the
// same ablation; the JSON lane above is what CI consumes).

/// Candidate-list construction at n = 512, and at n = 60 with edge
/// probability 0.15: the diameter-2 shape of the cold races the service
/// runs, where most rows take the cheapest-tier scan.
void BM_CandidateListsBuild(benchmark::State& state, IsaTier tier, int n, double edge_prob) {
  const Graph graph = lptsp::bench::workload_graph(n, 2, 11, edge_prob);
  const auto reduced = reduce_to_path_tsp(graph, PVec::L21());
  const IsaTier restore = kernels::active_isa_tier();
  kernels::set_isa_tier(tier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CandidateLists(reduced.instance));
  }
  kernels::set_isa_tier(restore);
}

void BM_HeldKarpTier(benchmark::State& state, IsaTier tier) {
  const Graph graph = lptsp::bench::workload_graph(16, 2, 4);
  const auto reduced = reduce_to_path_tsp(graph, PVec::L21());
  const IsaTier restore = kernels::active_isa_tier();
  kernels::set_isa_tier(tier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(held_karp_path(reduced.instance));
  }
  kernels::set_isa_tier(restore);
}

}  // namespace

int main(int argc, char** argv) {
  // A filter aimed at a specific gbench lane skips the multi-second
  // ablation (and leaves BENCH_micro_kernels.json untouched); plain runs
  // and the documented --benchmark_filter=ISA_ABLATION_ONLY keep it.
  bool want_ablation = true;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--benchmark_filter=", 0) == 0 &&
        arg.find("ISA_ABLATION") == std::string_view::npos) {
      want_ablation = false;
    }
  }
  const int ablation_rc = want_ablation ? run_isa_ablation() : 0;
  for (const IsaTier tier : supported_tiers()) {
    std::string lists_lane = "BM_CandidateListsBuild/";
    lists_lane += isa_tier_name(tier);
    benchmark::RegisterBenchmark(lists_lane.c_str(), BM_CandidateListsBuild, tier, 512, 0.2);
    lists_lane += "/n60";
    benchmark::RegisterBenchmark(lists_lane.c_str(), BM_CandidateListsBuild, tier, 60, 0.15);
    benchmark::RegisterBenchmark((std::string("BM_HeldKarpTier/") + isa_tier_name(tier)).c_str(),
                                 BM_HeldKarpTier, tier);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ablation_rc;
}
