#pragma once

#include "core/pvec.hpp"
#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "tsp/instance.hpp"

namespace lptsp {

/// The Theorem-2 reduction output: the complete graph H with
/// w(u, v) = p_{dist_G(u,v)}, plus the distance matrix it was built from
/// (callers reuse it for verification).
struct ReducedInstance {
  MetricInstance instance;
  DistanceMatrix dist;
};

/// Theorem 2 (main result). Requires:
///   - G connected with diam(G) <= k (the dimension of p), and
///   - pmax <= 2 * pmin (which makes H metric).
/// Under these conditions lambda_p(G) equals the optimal Hamiltonian-path
/// weight of H. Runs in O(nm) (one BFS per vertex) plus O(n^2) matrix
/// fill; `threads` = 1 runs both serially, any other value on the shared
/// pool.
ReducedInstance reduce_to_path_tsp(const Graph& graph, const PVec& p, unsigned threads = 1);

/// The same construction without the pmax <= 2*pmin check, for the
/// metric-condition ablation (E10): H is still well-defined whenever
/// diam(G) <= k, but may be non-metric and its Path-TSP optimum may
/// strictly undercut lambda_p(G).
ReducedInstance reduce_to_path_tsp_unchecked(const Graph& graph, const PVec& p,
                                             unsigned threads = 1);

/// The O(n^2) matrix-fill half of the reduction on an already-computed
/// distance matrix: w(u, v) = p_{dist(u, v)}. Callers that cache distance
/// matrices (the solve cache) use this to skip the O(nm) all-pairs BFS,
/// the dominant reduction cost on dense small-diameter graphs. Requires
/// all pairs finite and max distance <= k. The fill parallelizes over
/// sources like the full reduction (`threads` = 1 serial, any other value the shared pool).
MetricInstance instance_from_distances(const DistanceMatrix& dist, const PVec& p,
                                       unsigned threads = 1);

}  // namespace lptsp
