#pragma once

#include <cassert>
#include <vector>

#include "graph/graph.hpp"

namespace lptsp {

/// Distance value used for unreachable vertex pairs.
inline constexpr int kUnreachable = -1;

/// Square matrix of pairwise shortest-path distances (hop counts).
class DistanceMatrix {
 public:
  explicit DistanceMatrix(int n);

  [[nodiscard]] int n() const noexcept { return n_; }
  [[nodiscard]] int at(int u, int v) const;
  void set(int u, int v, int distance);

  /// Unchecked read for hot kernels (debug-assert only). The checked at()
  /// remains the public API for untrusted indices.
  [[nodiscard]] int at_unchecked(int u, int v) const noexcept {
    assert(u >= 0 && u < n_ && v >= 0 && v < n_);
    return data_[static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
                 static_cast<std::size_t>(v)];
  }

  /// Row u of the matrix as a contiguous n-entry array. Kernels iterate
  /// rows linearly instead of paying a checked at() per entry.
  [[nodiscard]] const int* row(int u) const noexcept {
    assert(u >= 0 && u < n_);
    return data_.data() + static_cast<std::size_t>(u) * static_cast<std::size_t>(n_);
  }
  [[nodiscard]] int* row(int u) noexcept {
    assert(u >= 0 && u < n_);
    return data_.data() + static_cast<std::size_t>(u) * static_cast<std::size_t>(n_);
  }

  /// True if every pair is reachable (the underlying graph is connected).
  [[nodiscard]] bool all_finite() const noexcept;

  /// Maximum finite entry, i.e. the diameter when all_finite(). Returns 0
  /// for n <= 1.
  [[nodiscard]] int max_finite() const noexcept;

 private:
  int n_;
  std::vector<int> data_;
};

/// Hop distances from src to every vertex (kUnreachable where disconnected).
/// Adjacency-list BFS; the readable reference implementation.
std::vector<int> bfs_distances(const Graph& graph, int src);

/// Hop distances from src via frontier-bitset BFS: each level ORs the
/// adjacency rows of the current frontier into a visited bitset, so one
/// level costs O(|frontier| * n/64) word operations instead of scanning
/// adjacency lists. Equivalent to bfs_distances on every graph; this is the
/// fallback kernel of all_pairs_distances for diameters above 2.
std::vector<int> bfs_distances_frontier(const Graph& graph, int src);

/// All-pairs shortest paths, parallelized across sources (`threads` = 1
/// runs serially, any other value uses the shared pool). This is the O(nm) step of the
/// paper's Theorem-2 reduction, rebuilt around the paper's own target
/// class: for each source the kernel first tries the diameter-<=2 fast
/// path, deriving dist(u,v) in {1,2} from adjacency-row word intersections
/// (O(n^2/64) per source, cache-linear); any source with a vertex at
/// distance >= 3 falls back to frontier-bitset BFS for that source only.
DistanceMatrix all_pairs_distances(const Graph& graph, unsigned threads = 0);

/// The pre-optimization reference: one adjacency-list BFS per source.
/// Kept as the equivalence oracle for kernel tests and the baseline lane
/// of bench_e9; not used on any hot path.
DistanceMatrix all_pairs_distances_reference(const Graph& graph, unsigned threads = 0);

}  // namespace lptsp
