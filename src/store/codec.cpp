#include "store/codec.hpp"

#include <bit>
#include <cmath>

#include "graph/io.hpp"
#include "util/endian.hpp"

namespace lptsp {

namespace {

constexpr std::uint8_t kResultFormatVersion = 1;
constexpr std::uint8_t kTunerStateFormatVersion = 1;
constexpr std::size_t kTunerBucketBytes = 8 + 8 + 4;  // two f64 scores, u32 effort

/// Engines are persisted as their enum value; anything beyond the last
/// enumerator is a corrupt or future record.
constexpr std::uint8_t kMaxEngine = static_cast<std::uint8_t>(Engine::BranchBound);

constexpr std::uint32_t kMaxPDimension = 64;  // k far beyond any real request

using endian::try_get_u32;
using endian::try_get_u64;
using endian::try_get_u8;

}  // namespace

void encode_persisted_result(std::vector<std::uint8_t>& out, const Graph& canon,
                             const std::vector<int>& p_entries, const ResultEntry& entry) {
  out.push_back(kResultFormatVersion);
  append_graph_binary(out, canon);
  endian::put_u32(out, static_cast<std::uint32_t>(p_entries.size()));
  for (const int p : p_entries) endian::put_u32(out, static_cast<std::uint32_t>(p));
  endian::put_u32(out, static_cast<std::uint32_t>(entry.labels.size()));
  for (const Weight label : entry.labels) {
    endian::put_u64(out, static_cast<std::uint64_t>(label));
  }
  // Fixed-size trailer — peek_persisted_result_quality reads span/optimal
  // straight off the record's tail, so its layout is part of format v1.
  endian::put_u64(out, static_cast<std::uint64_t>(entry.span));
  out.push_back(entry.optimal ? 1 : 0);
  out.push_back(static_cast<std::uint8_t>(entry.engine));
  endian::put_u64(out, static_cast<std::uint64_t>(entry.deadline_ms));
}

bool peek_persisted_result_quality(const std::uint8_t* data, std::size_t size, Weight& span,
                                   bool& optimal) {
  // Smallest possible v1 record: version(1) + empty graph n(4) + k(4) +
  // one p entry(4) + label count(4) + trailer(18).
  constexpr std::size_t kTrailerSize = 18;  // span u64 | optimal u8 | engine u8 | deadline u64
  constexpr std::size_t kMinRecordSize = 1 + 4 + 4 + 4 + 4 + kTrailerSize;
  if (size < kMinRecordSize || data[0] != kResultFormatVersion) return false;
  const std::uint8_t optimal_byte = data[size - 10];
  if (optimal_byte > 1) return false;
  span = static_cast<Weight>(endian::get_u64(data + size - kTrailerSize));
  if (span < 0) return false;
  optimal = optimal_byte == 1;
  return true;
}

bool decode_persisted_result(const std::uint8_t* data, std::size_t size,
                             PersistedResult& result, std::string& error) {
  std::size_t offset = 0;
  std::uint8_t version = 0;
  if (!try_get_u8(data, size, offset, version)) {
    error = "result record: truncated version byte";
    return false;
  }
  if (version != kResultFormatVersion) {
    error = "result record: unsupported format version " + std::to_string(version);
    return false;
  }
  if (!decode_graph_binary(data, size, offset, result.canon, error,
                           kMaxPersistedGraphVertices)) {
    error = "result record graph: " + error;
    return false;
  }
  std::uint32_t k = 0;
  if (!try_get_u32(data, size, offset, k) || k == 0 || k > kMaxPDimension) {
    error = "result record: bad p dimension";
    return false;
  }
  result.p_entries.assign(k, 0);
  for (std::uint32_t i = 0; i < k; ++i) {
    std::uint32_t p = 0;
    if (!try_get_u32(data, size, offset, p) || p > (1u << 30)) {
      error = "result record: bad p entry";
      return false;
    }
    result.p_entries[i] = static_cast<int>(p);
  }
  std::uint32_t label_count = 0;
  if (!try_get_u32(data, size, offset, label_count) ||
      label_count != static_cast<std::uint32_t>(result.canon.n())) {
    error = "result record: label count disagrees with graph order";
    return false;
  }
  result.entry.labels.assign(label_count, 0);
  for (std::uint32_t i = 0; i < label_count; ++i) {
    std::uint64_t label = 0;
    if (!try_get_u64(data, size, offset, label)) {
      error = "result record: truncated labels";
      return false;
    }
    result.entry.labels[i] = static_cast<Weight>(label);
    if (result.entry.labels[i] < 0) {
      error = "result record: negative label";
      return false;
    }
  }
  std::uint64_t span = 0;
  std::uint8_t optimal = 0;
  std::uint8_t engine = 0;
  std::uint64_t deadline_ms = 0;
  if (!try_get_u64(data, size, offset, span) || !try_get_u8(data, size, offset, optimal) ||
      !try_get_u8(data, size, offset, engine) || !try_get_u64(data, size, offset, deadline_ms)) {
    error = "result record: truncated trailer";
    return false;
  }
  if (optimal > 1 || engine > kMaxEngine || static_cast<Weight>(span) < 0 ||
      static_cast<std::int64_t>(deadline_ms) < 0) {
    error = "result record: out-of-range trailer field";
    return false;
  }
  if (offset != size) {
    error = "result record: trailing bytes";
    return false;
  }
  result.entry.span = static_cast<Weight>(span);
  result.entry.optimal = optimal == 1;
  result.entry.engine = static_cast<Engine>(engine);
  result.entry.deadline_ms = static_cast<std::int64_t>(deadline_ms);
  return true;
}

void encode_tuner_state(std::vector<std::uint8_t>& out, const TunerState& state) {
  out.push_back(kTunerStateFormatVersion);
  endian::put_u32(out, static_cast<std::uint32_t>(state.size()));
  for (const TunerBucketState& bucket : state) {
    endian::put_u64(out, std::bit_cast<std::uint64_t>(bucket.exact_score));
    endian::put_u64(out, std::bit_cast<std::uint64_t>(bucket.heuristic_score));
    endian::put_u32(out, static_cast<std::uint32_t>(bucket.effort_percent));
  }
}

bool decode_tuner_state(const std::uint8_t* data, std::size_t size, TunerState& state,
                        std::string& error) {
  constexpr std::size_t kHeaderBytes = 1 + 4;  // version, bucket count
  const std::size_t expected = kHeaderBytes + state.size() * kTunerBucketBytes;
  if (size == 0 || data[0] != kTunerStateFormatVersion) {
    error = "tuner state record: bad version";
    return false;
  }
  if (size >= kHeaderBytes && endian::get_u32(data + 1) != state.size()) {
    error = "tuner state record: wrong bucket count";
    return false;
  }
  if (size != expected) {
    error = size < expected ? "tuner state record: truncated" : "tuner state record: trailing bytes";
    return false;
  }
  const std::uint8_t* at = data + kHeaderBytes;
  for (TunerBucketState& bucket : state) {
    bucket.exact_score = std::bit_cast<double>(endian::get_u64(at));
    bucket.heuristic_score = std::bit_cast<double>(endian::get_u64(at + 8));
    bucket.effort_percent = static_cast<int>(endian::get_u32(at + 16));
    at += kTunerBucketBytes;
    for (const double score : {bucket.exact_score, bucket.heuristic_score}) {
      if (!std::isfinite(score) || score < 0) {
        error = "tuner state record: score not a finite non-negative number";
        return false;
      }
    }
  }
  return true;
}

}  // namespace lptsp
