#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "service/solve_cache.hpp"
#include "service/tuner.hpp"

namespace lptsp {

/// Serialization for the durable store's two record types. Kept in the
/// style of graph/io's binary codec (little-endian, validate-before-
/// allocate, non-throwing decode): the graph payload inside a result
/// record IS the canonical binary encoding from graph/io.hpp.

/// Upper bound on the order of a persisted graph. Re-verifying a record on
/// reload costs an O(n^2) distance matrix, so this bounds the allocation a
/// hostile or corrupt (but CRC-valid) record can force on a restarting
/// service: larger graphs are rejected at decode time and never written in
/// the first place. 4096 vertices = a 64 MB matrix, far above any instance
/// the engines solve interactively.
constexpr int kMaxPersistedGraphVertices = 4096;

/// A solve-cache result as persisted: the canonical graph and p travel
/// with the labeling, which makes every record independently verifiable on
/// reload (is_valid_labeling needs nothing but the record itself) — the
/// store never has to trust its own bytes.
struct PersistedResult {
  Graph canon{0};               ///< canonical-numbering graph
  std::vector<int> p_entries;   ///< the constraint vector p
  ResultEntry entry;            ///< labels in canonical numbering + provenance
};

/// Append the encoding of one result record to `out`.
void encode_persisted_result(std::vector<std::uint8_t>& out, const Graph& canon,
                             const std::vector<int>& p_entries, const ResultEntry& entry);

/// Decode a result record. Returns false with a diagnostic on any
/// structural problem (truncation, counts that disagree, out-of-range
/// enums); never throws and never allocates more than the input implies.
[[nodiscard]] bool decode_persisted_result(const std::uint8_t* data, std::size_t size,
                                           PersistedResult& result, std::string& error);

/// Read just (span, optimal) from a result record's fixed-size trailer —
/// the last 18 bytes of every version-1 record — without decoding the
/// graph. This is the O(1) read behind the backend's "is the record on
/// disk already better?" check; a full decode would parse the whole graph
/// under the backend's write lock. False when the bytes cannot be a
/// version-1 record.
[[nodiscard]] bool peek_persisted_result_quality(const std::uint8_t* data, std::size_t size,
                                                 Weight& span, bool& optimal);

/// The engine tuner's learned policy as persisted: a version byte, the
/// bucket count, then per bucket the exact and heuristic scores (IEEE-754
/// doubles as u64 bits) and the effort percent (u32).
void encode_tuner_state(std::vector<std::uint8_t>& out, const TunerState& state);

/// Decode a tuner-state record. Returns false with a diagnostic on a wrong
/// version or bucket count, truncation, trailing bytes, or a non-finite or
/// negative score; EngineTuner::restore clamps the effort.
[[nodiscard]] bool decode_tuner_state(const std::uint8_t* data, std::size_t size,
                                      TunerState& state, std::string& error);

}  // namespace lptsp
