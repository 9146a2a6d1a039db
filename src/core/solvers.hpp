#pragma once

#include <string>

#include "core/labeling.hpp"
#include "core/pvec.hpp"
#include "core/reduction.hpp"
#include "graph/graph.hpp"
#include "tsp/chained_lk.hpp"
#include "tsp/held_karp.hpp"
#include "tsp/path.hpp"

namespace lptsp {

/// TSP engines pluggable behind the Theorem-2 reduction — the library's
/// realization of the paper's "solve L(p)-labeling with TSP engines".
enum class Engine {
  BruteForce,         ///< permutation enumeration (n <= 11), exact
  HeldKarp,           ///< O(2^n n^2) DP (Corollary 1), exact
  Christofides,       ///< Christofides–Hoogeveen path variant (Corollary 1)
  DoubleMst,          ///< MST preorder walk, 2-approximation
  NearestNeighbor,    ///< multi-start NN construction
  NearestNeighbor2Opt,///< NN + 2-opt local optimum
  GreedyEdge,         ///< greedy-edge construction
  LinKernighanStyle,  ///< NN + variable-neighborhood descent (LK stand-in)
  ChainedLK,          ///< kicked multi-start LK-style (strongest heuristic)
  SimulatedAnnealing, ///< 2-opt annealing + VND polish
  BranchBound,        ///< exact DFS + MST bound (O(n) memory), exact
};

/// Compile-checked engine names. The switch has no default and the project
/// builds with -Werror=switch, so adding an Engine value without a name
/// here is a build failure, not an "unknown" in a log line.
constexpr const char* engine_name_cstr(Engine engine) noexcept {
  switch (engine) {
    case Engine::BruteForce: return "brute-force";
    case Engine::HeldKarp: return "held-karp";
    case Engine::Christofides: return "christofides";
    case Engine::DoubleMst: return "double-mst";
    case Engine::NearestNeighbor: return "nearest-neighbor";
    case Engine::NearestNeighbor2Opt: return "nn+2opt";
    case Engine::GreedyEdge: return "greedy-edge";
    case Engine::LinKernighanStyle: return "lk-style";
    case Engine::ChainedLK: return "chained-lk";
    case Engine::SimulatedAnnealing: return "annealing";
    case Engine::BranchBound: return "branch-bound";
  }
  return "unknown";  // out-of-range cast, not a missing enumerator
}

std::string engine_name(Engine engine);

/// Options for solve_labeling.
struct SolveOptions {
  Engine engine = Engine::HeldKarp;
  /// Reduction BFS and parallel engines: 1 = serial, any other value =
  /// the shared pool.
  unsigned threads = 1;
  std::uint64_t seed = 1;          ///< randomized engines
  HeldKarpOptions held_karp = {};  ///< exact-engine caps
  ChainedLkOptions chained_lk = {};
  int nn_starts = 8;               ///< multi-start count for NN engines
  long long bb_node_limit = 50'000'000;  ///< BranchBound search cap
};

/// Result of the full reduce -> TSP -> relabel pipeline.
struct SolveResult {
  Labeling labeling;   ///< verified L(p)-labeling of the input graph
  Weight span = 0;     ///< its span (== Hamiltonian path weight)
  Order order;         ///< the underlying vertex order (Hamiltonian path)
  bool optimal = false;///< true when the engine certifies optimality
  double seconds = 0;  ///< wall time of reduction + engine + relabel
};

/// Solve L(p)-LABELING on a connected graph with diam(G) <= k and
/// pmax <= 2*pmin by reducing to Metric Path TSP (Theorem 2), running the
/// chosen engine, and converting the Hamiltonian path back into labels via
/// Claim 1. The produced labeling is verified against the original graph
/// before returning (an invariant failure would indicate a library bug).
SolveResult solve_labeling(const Graph& graph, const PVec& p, const SolveOptions& options = {});

/// Run the engine + relabel half of the pipeline on a precomputed
/// reduction, skipping the all-pairs BFS. `reduced` must have been built
/// from `graph` and `p` (the result is verified against them). This is the
/// injection point the solve cache uses to amortize reductions across
/// repeated requests.
SolveResult solve_labeling_reduced(const Graph& graph, const PVec& p,
                                   const ReducedInstance& reduced,
                                   const SolveOptions& options = {});

/// As above, borrowing the instance and distance matrix separately —
/// callers holding a cached DistanceMatrix avoid copying it into a
/// ReducedInstance (O(n^2) per request on hot cache paths).
SolveResult solve_labeling_injected(const Graph& graph, const PVec& p,
                                    const MetricInstance& instance, const DistanceMatrix& dist,
                                    const SolveOptions& options = {});

/// Why a labeling request cannot be served, as data instead of exceptions —
/// the service layer rejects bad requests gracefully instead of unwinding.
enum class SolveStatus {
  Ok,                        ///< preconditions hold; result is valid
  EmptyGraph,                ///< n == 0
  Disconnected,              ///< Theorem 2 requires a connected graph
  DiameterExceedsK,          ///< diam(G) > k, so some pair is unconstrained
  MetricConditionViolated,   ///< pmax > 2*pmin, reduction not exact
  EngineFailure,             ///< engine gave up (size/node caps) or crashed
  RejectedOverload,          ///< admission control turned the request away
  TimedOut,                  ///< client-side: request deadline elapsed
  TransportDisconnected,     ///< client-side: connection lost before a reply
};

/// Compile-checked status names (no default + -Werror=switch: an unnamed
/// new enumerator fails the build).
constexpr const char* status_name_cstr(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::Ok: return "ok";
    case SolveStatus::EmptyGraph: return "empty-graph";
    case SolveStatus::Disconnected: return "disconnected";
    case SolveStatus::DiameterExceedsK: return "diameter-exceeds-k";
    case SolveStatus::MetricConditionViolated: return "metric-condition-violated";
    case SolveStatus::EngineFailure: return "engine-failure";
    case SolveStatus::RejectedOverload: return "rejected-overload";
    case SolveStatus::TimedOut: return "timed-out";
    case SolveStatus::TransportDisconnected: return "transport-disconnected";
  }
  return "unknown";  // out-of-range cast, not a missing enumerator
}

std::string status_name(SolveStatus status);

/// Human-readable rejection detail for a non-Ok classification, shared by
/// every front-end (throwing, try_, service) so diagnostics cannot drift.
/// `diameter` is only consulted for DiameterExceedsK.
std::string status_message(SolveStatus status, int diameter, const PVec& p);

/// Status + result pair returned by the non-throwing front-end.
struct SolveOutcome {
  SolveStatus status = SolveStatus::EngineFailure;
  std::string message;   ///< human-readable detail when !ok()
  SolveResult result;    ///< meaningful only when ok()

  [[nodiscard]] bool ok() const noexcept { return status == SolveStatus::Ok; }
};

/// Classify a (graph, p) request against Theorem 2's preconditions using an
/// already-computed distance matrix (callers that have one avoid a second
/// all-pairs BFS). Never throws.
SolveStatus classify_labeling_request(const Graph& graph, const PVec& p,
                                      const DistanceMatrix& dist);

/// Non-throwing counterpart of solve_labeling: validates preconditions up
/// front and reports them as a typed status; engine resource-cap failures
/// (e.g. the BranchBound node limit) surface as EngineFailure rather than
/// an exception.
SolveOutcome try_solve_labeling(const Graph& graph, const PVec& p,
                                const SolveOptions& options = {});

}  // namespace lptsp
