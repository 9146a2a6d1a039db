/// E9 — the O(nm) reduction and the parallel substrate.
///
/// Part A: reduction wall time against n*m; the "t/(nm) [ns]" column
/// should stay roughly constant, confirming the claimed O(nm) + O(n^2)
/// complexity. Part B: serial vs shared-pool runs of the three
/// parallelizable kernels (APSP BFS fan-out, Held-Karp layers, chained-LK
/// multi-start); the pool row names the pool's worker count. On a
/// single-core host it documents overhead rather than speedup; on
/// multicore machines the same binary shows the scaling. Part C: the
/// paper's own diameter-2 target class, where the bit-parallel
/// word-intersection kernel replaces per-source adjacency-list BFS — both
/// lanes run in-binary so the speedup is measured on the same machine and
/// recorded in BENCH_e9_reduction_parallel.json.

#include <cstdio>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/reduction.hpp"
#include "graph/bfs.hpp"
#include "tsp/chained_lk.hpp"
#include "tsp/held_karp.hpp"
#include "util/thread_pool.hpp"

using namespace lptsp;

int main() {
  std::printf("E9: O(nm) reduction + parallel substrate (hardware threads: %u)\n",
              std::thread::hardware_concurrency());
  lptsp::bench::BenchJson json("e9_reduction_parallel");

  Table reduction({"n", "m", "n*m", "time[s]", "t/(nm) [ns]"});
  for (const int n : {100, 200, 400, 800}) {
    const Graph graph = lptsp::bench::workload_graph(n, 3, static_cast<std::uint64_t>(n), 0.02);
    const double ns = lptsp::bench::median_ns(3, [&] {
      const auto reduced = reduce_to_path_tsp(graph, PVec({2, 2, 1}), 1);
      (void)reduced;
    });
    const double seconds = ns / 1e9;
    const double nm = static_cast<double>(graph.n()) * graph.m();
    reduction.add_row({std::to_string(n), std::to_string(graph.m()),
                       std::to_string(static_cast<long long>(nm)), format_double(seconds, 4),
                       format_double(seconds / nm * 1e9, 2)});
    json.record("reduce_diam3", n, ns);
  }
  reduction.print("E9a — Theorem 2 reduction time (expect flat t/(nm))");

  // Every `threads` value other than 1 runs on the one shared pool, so the
  // sweep has two lanes: serial (1) and pool (0).
  const auto lane = [](unsigned t) {
    if (t == 1) return std::string("1");
    std::string name = "pool(";
    name += std::to_string(TaskPool::shared().size());
    name += ')';
    return name;
  };
  Table threads({"kernel", "threads", "time[s]", "result"});
  {
    const Graph graph = lptsp::bench::workload_graph(600, 3, 9, 0.02);
    for (const unsigned t : {1u, 0u}) {
      const Timer timer;
      const auto reduced = reduce_to_path_tsp(graph, PVec({2, 2, 1}), t);
      threads.add_row({"apsp+reduce(n=600)", lane(t), format_double(timer.seconds(), 3),
                       std::to_string(reduced.instance.max_weight())});
      if (t == 1) json.record("apsp_reduce_serial", 600, timer.seconds() * 1e9);
    }
  }
  {
    const Graph graph = lptsp::bench::workload_graph(18, 2, 4);
    const auto reduced = reduce_to_path_tsp(graph, PVec::L21());
    for (const unsigned t : {1u, 0u}) {
      HeldKarpOptions options;
      options.threads = t;
      const Timer timer;
      const PathSolution solution = held_karp_path(reduced.instance, options);
      threads.add_row({"held-karp(n=18)", lane(t), format_double(timer.seconds(), 3),
                       std::to_string(solution.cost)});
      if (t == 1) json.record("held_karp", 18, timer.seconds() * 1e9);
    }
  }
  {
    const Graph graph = lptsp::bench::workload_graph(150, 2, 5, 0.05);
    const auto reduced = reduce_to_path_tsp(graph, PVec::L21());
    for (const unsigned t : {1u, 0u}) {
      ChainedLkOptions options;
      options.restarts = 4;
      options.kicks = 10;
      options.seed = 1;
      options.threads = t;
      const Timer timer;
      const PathSolution solution = chained_lk_path(reduced.instance, options);
      threads.add_row({"chained-lk(n=150)", lane(t), format_double(timer.seconds(), 3),
                       std::to_string(solution.cost)});
      if (t == 1) json.record("chained_lk", 150, timer.seconds() * 1e9);
    }
  }
  threads.print(
      "E9b — serial vs shared pool (identical results required; speedup needs multicore)");

  // Part C: diameter-2 inputs (the paper's target class). The bit-parallel
  // kernel answers dist(u,v) from one adjacency bit and a word-wise row
  // intersection; the reference lane is the pre-optimization per-source
  // adjacency-list BFS, kept in the library exactly for this comparison.
  Table diam2({"n", "m", "apsp-bitpar[ms]", "apsp-reference[ms]", "speedup"});
  for (const int n : {256, 512, 1024}) {
    const Graph graph =
        lptsp::bench::workload_graph(n, 2, static_cast<std::uint64_t>(n) * 7 + 1, 0.15);
    const double fast_ns =
        lptsp::bench::median_ns(3, [&] { (void)all_pairs_distances(graph, 1); });
    const double reference_ns =
        lptsp::bench::median_ns(3, [&] { (void)all_pairs_distances_reference(graph, 1); });
    diam2.add_row({std::to_string(n), std::to_string(graph.m()), format_double(fast_ns / 1e6, 2),
                   format_double(reference_ns / 1e6, 2), format_ratio(reference_ns / fast_ns)});
    json.record("diam2_apsp_bitparallel", n, fast_ns);
    json.record("diam2_apsp_reference", n, reference_ns);
    json.record_ratio("diam2_apsp_speedup_vs_reference", n, reference_ns / fast_ns);
  }
  diam2.print("E9c — diameter-2 all-pairs: bit-parallel kernel vs list-BFS reference");

  std::printf("wrote %s\n", json.write().c_str());
  return 0;
}
