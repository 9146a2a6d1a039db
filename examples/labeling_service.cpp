/// Batch labeling service demo: the frequency-assignment workload the
/// paper motivates, served through the batch solver instead of one-shot
/// solve_labeling calls.
///
/// One interference graph (radio transmitters within hearing distance) is
/// queried under several constraint vectors p, and the same topology keeps
/// arriving relabeled as clients renumber their transmitters. The service
/// canonicalizes each request, dedupes isomorphic repeats, races exact vs
/// heuristic engines under a deadline, and serves repeats from the solve
/// cache.
///
/// Run: ./labeling_service

#include <cstdio>

#include "graph/generators.hpp"
#include "graph/operations.hpp"
#include "service/batch_solver.hpp"
#include "util/rng.hpp"

using namespace lptsp;

int main() {
  Rng rng(2026);
  const Graph network = random_geometric_small_diameter(40, 10.0, 2, rng);
  std::printf("Interference graph: n=%d m=%d (diameter <= 2)\n\n", network.n(), network.m());

  BatchSolver::Options options;
  options.portfolio.deadline = std::chrono::milliseconds{100};
  BatchSolver solver(options);

  // A batch mixing: the same network under three p-vectors, plus the
  // L(2,1) query repeated 5x under client-side renumberings.
  std::vector<SolveRequest> requests;
  for (const PVec& p : {PVec::L21(), PVec({2, 2}), PVec({1, 1})}) {
    SolveRequest request;
    request.graph = network;
    request.p = p;
    request.id = requests.size();
    requests.push_back(std::move(request));
  }
  for (int repeat = 0; repeat < 5; ++repeat) {
    SolveRequest request;
    request.graph = relabel(network, rng.permutation(network.n()));
    request.p = PVec::L21();
    request.id = requests.size();
    requests.push_back(std::move(request));
  }

  const std::vector<SolveResponse> responses = solver.solve_batch(requests);
  std::printf("%-4s %-8s %-6s %-8s %-12s %-10s %s\n", "id", "p", "span", "optimal", "engine",
              "source", "reduction-cached");
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const SolveResponse& r = responses[i];
    if (!r.ok()) {
      std::printf("%-4llu rejected: %s\n", static_cast<unsigned long long>(r.id),
                  r.message.c_str());
      continue;
    }
    std::printf("%-4llu %-8s %-6lld %-8s %-12s %-10s %s\n",
                static_cast<unsigned long long>(r.id),
                requests[i].p.to_string().c_str(), static_cast<long long>(r.span),
                r.optimal ? "yes" : "no", engine_name(r.engine).c_str(),
                response_source_name(r.source).c_str(), r.reduction_cached ? "yes" : "no");
  }

  // The same repeated query arriving later (streaming path): pure cache.
  SolveRequest late;
  late.graph = relabel(network, rng.permutation(network.n()));
  late.id = 99;
  const SolveResponse served = solver.submit(std::move(late)).get();
  std::printf("\nlate request 99: span=%lld source=%s\n", static_cast<long long>(served.span),
              response_source_name(served.source).c_str());

  const CacheStats stats = solver.cache().stats();
  std::printf("\ncache: result %llu hits / %llu misses, reduction %llu hits / %llu misses\n",
              static_cast<unsigned long long>(stats.result_hits),
              static_cast<unsigned long long>(stats.result_misses),
              static_cast<unsigned long long>(stats.reduction_hits),
              static_cast<unsigned long long>(stats.reduction_misses));
  std::printf("engine solves: %llu for %zu requests\n",
              static_cast<unsigned long long>(solver.engine_solves()), requests.size() + 1);
  // Per size bucket: the decayed exact/heuristic win scores, whether the
  // exact engine is trimmed, and the learned effort.
  std::printf("learned race policy: %s\n", solver.tuner().to_json().c_str());
  return 0;
}
