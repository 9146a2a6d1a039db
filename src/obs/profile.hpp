#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

/// Work-attribution profiling: what the engines DID, not just how long
/// they took. Three pieces, all feeding the learning-loop roadmap item
/// (engine pre-trim, effort tuning, admission pricing by expected work):
///
///   - EngineWork / WorkCounters: per-attempt work counts (B&B nodes,
///     LK kicks, HK DP cells, candidate-list wakes) threaded out of the
///     engines and aggregated into the MetricRegistry next to the
///     engine_ns_* histograms. The counts are deterministic functions of
///     the instance and seed — identical across ISA dispatch tiers even
///     when nanoseconds differ — which is what makes them comparable
///     across machines.
///   - KeyProfileTable: a bounded, sharded top-K accumulator keyed by the
///     canonical graph hash, so a live daemon can answer "which graphs
///     are eating my CPU" under Zipf-repeat traffic.
///   - SloTracker: per-request deadline hit/miss counters, slack/overrun
///     histograms, and a rolling hit-ratio gauge that journals SLO
///     threshold crossings.
///
/// Everything here follows the metrics core's rules: record paths are
/// cheap (relaxed atomics, or one shard mutex on the per-solve — never
/// per-cache-hit — attribution path), storage is owned by components and
/// only *registered* into the registry, and names are a contract
/// (documented in README "Profiling & SLO").
namespace lptsp::obs {

/// Fixed-point "%.2f" without locale-sensitive formatting: the profile
/// JSON is a machine contract, so the decimal point must be a '.'
/// regardless of the process locale. Total on every double: NaN and
/// negatives render "0.00", +inf and values beyond the printable range
/// clamp to the maximum (casting a non-finite or huge double to an
/// integer is undefined behavior, and rates computed over a tiny uptime
/// right after start can be exactly that).
[[nodiscard]] std::string format_fixed2(double value);

/// Number of instance-size buckets the service learns and profiles over.
constexpr int kSizeBuckets = 32;

/// The one size bucketing rule shared by the portfolio, the tuner and the
/// key profile: bit_width(n), so bucket b holds n in [2^(b-1), 2^b), with
/// n <= 0 in bucket 0 and everything past the last bucket clamped into it.
constexpr int size_bucket(int n) noexcept {
  return std::min(static_cast<int>(std::bit_width(static_cast<unsigned>(std::max(n, 0)))),
                  kSizeBuckets - 1);
}

/// Work one engine run performed, in engine-native units. Plain data so
/// the tsp/ engines can report counts without depending on this header:
/// each Run struct carries raw integers and the portfolio assembles them.
struct EngineWork {
  std::uint64_t bb_nodes = 0;     ///< B&B search nodes expanded
  std::uint64_t bb_pruned = 0;    ///< B&B subtrees cut by the MST bound
  std::uint64_t lk_kicks = 0;     ///< chained-LK double-bridge kicks applied
  std::uint64_t lk_accepted = 0;  ///< kicks whose re-optimized tour improved
  std::uint64_t lk_wakes = 0;     ///< candidate-list don't-look queue wakes
  std::uint64_t lk_moves = 0;     ///< applied 2-opt/Or-opt improving moves
  std::uint64_t hk_layers = 0;    ///< HK DP popcount layers completed
  std::uint64_t hk_cells = 0;     ///< HK DP cells written across those layers

  void merge(const EngineWork& other) noexcept {
    bb_nodes += other.bb_nodes;
    bb_pruned += other.bb_pruned;
    lk_kicks += other.lk_kicks;
    lk_accepted += other.lk_accepted;
    lk_wakes += other.lk_wakes;
    lk_moves += other.lk_moves;
    hk_layers += other.hk_layers;
    hk_cells += other.hk_cells;
  }

  [[nodiscard]] bool any() const noexcept {
    return (bb_nodes | bb_pruned | lk_kicks | lk_accepted | lk_wakes | lk_moves | hk_layers |
            hk_cells) != 0;
  }
};

/// Registry-facing aggregate of EngineWork: one Counter per field, with
/// stable registered names (engine_work_*) that are part of the metrics
/// contract. add() is a handful of relaxed atomic adds, called once per
/// engine attempt — never on the cache-hit path.
class WorkCounters {
 public:
  void add(const EngineWork& work) noexcept;

  /// Register every counter as engine_work_<field> under `owner`.
  void register_into(MetricRegistry& registry, const void* owner) const;

  /// Point-in-time copy (monotone-racy like every counter read).
  [[nodiscard]] EngineWork totals() const noexcept;

  /// JSON object grouping totals per engine with average per-second rates
  /// over `uptime_ns`:
  /// {"held_karp":{"layers":..,"cells":..,"cells_per_s":..},
  ///  "branch_bound":{"nodes":..,"pruned":..,"nodes_per_s":..},
  ///  "chained_lk":{"kicks":..,"accepted":..,"wakes":..,"moves":..,
  ///                "kicks_per_s":..}}
  [[nodiscard]] std::string to_json(std::uint64_t uptime_ns) const;

 private:
  Counter bb_nodes_;
  Counter bb_pruned_;
  Counter lk_kicks_;
  Counter lk_accepted_;
  Counter lk_wakes_;
  Counter lk_moves_;
  Counter hk_layers_;
  Counter hk_cells_;
};

/// Bounded, sharded top-K accumulator of per-canonical-key solve cost.
/// record() takes one shard mutex (shard = key hash), finds or inserts
/// the key's entry, and accumulates. When a shard is full the entry with
/// the least attributed engine time is evicted space-saving style: the
/// newcomer inherits the victim's totals, so a genuinely hot key can
/// never be displaced by a stream of one-shot keys, at the price of the
/// reported totals being an overestimate for keys that ever evicted
/// (bounded by the victim's totals at eviction time — the classic
/// space-saving error bound). Keys are the canonical form's
/// order-insensitive hash; collisions merge attribution, which for a
/// CPU-attribution profile is an acceptable (and astronomically rare)
/// blur, never a correctness hazard.
class KeyProfileTable {
 public:
  struct Entry {
    std::uint64_t key_hash = 0;       ///< CanonicalForm::hash
    int n = 0;                        ///< vertex count of the canonical graph
    int size_bucket = 0;              ///< obs::size_bucket(n)
    std::uint64_t solves = 0;         ///< engine races attributed to this key
    std::uint64_t engine_ns = 0;      ///< total race wall time attributed
    std::uint64_t last_engine_ns = 0; ///< most recent single race wall time
    const char* last_engine = nullptr;  ///< static engine name, never owned text
    std::uint64_t deadline_hits = 0;
    std::uint64_t deadline_misses = 0;
  };

  struct Config {
    std::size_t shards = 8;     ///< lock striping; also hash distribution
    std::size_t per_shard = 16; ///< max tracked keys per shard
  };

  // Two constructors instead of `const Config& = {}`: gcc < 13 rejects a
  // braced default argument of a nested aggregate with member initializers
  // (bug 88165).
  KeyProfileTable() : KeyProfileTable(Config{}) {}
  explicit KeyProfileTable(const Config& config);

  KeyProfileTable(const KeyProfileTable&) = delete;
  KeyProfileTable& operator=(const KeyProfileTable&) = delete;

  /// Attribute one engine race to `key_hash`. `engine` must be a static
  /// string (engine_name_cstr). `had_deadline` false means the race ran
  /// unbounded and contributes no deadline outcome.
  void record(std::uint64_t key_hash, int n, std::uint64_t engine_ns, const char* engine,
              bool had_deadline, bool deadline_hit);

  /// Keys currently tracked (<= shards * per_shard).
  [[nodiscard]] std::size_t size() const;

  /// The top `k` entries by attributed engine_ns, hottest first.
  [[nodiscard]] std::vector<Entry> top(std::size_t k) const;

  /// Mean attributed race cost per solve across the tracked keys in
  /// `size_bucket` (obs::size_bucket(n)), 0 when no tracked key has that bucket.
  /// This is the admission predictor's hot-key signal: under Zipf-repeat
  /// traffic the tracked keys ARE the traffic, so their mean is a better
  /// per-request cost estimate than a global average.
  [[nodiscard]] std::uint64_t bucket_mean_ns(int size_bucket) const;

  /// Evictions performed so far (how approximate the totals are).
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_.value(); }

  /// The eviction counter itself, for registry registration.
  [[nodiscard]] const Counter& evictions_counter() const noexcept { return evictions_; }

  /// JSON array of top(k), hottest first:
  /// [{"key":"<hex hash>","n":..,"size_bucket":..,"solves":..,
  ///   "engine_ns":..,"last_engine_ns":..,"last_engine":"..",
  ///   "deadline_hits":..,"deadline_misses":..},...]
  [[nodiscard]] std::string to_json(std::size_t k) const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::vector<Entry> entries;  ///< unordered; scanned linearly (small)
  };

  Config config_;
  std::vector<Shard> shards_;
  Counter evictions_;
};

/// Deadline SLO tracking: monotone hit/miss counters, slack and overrun
/// histograms (how much margin hits had, how badly misses blew through),
/// and a rolling hit ratio over the last `window` deadline-bounded
/// requests. When the rolling ratio crosses below `breach_percent` the
/// tracker journals an SloBreach event (and SloRecovered on the way back
/// up), so the incident timeline says when the service started missing
/// its deadlines, not just how many it missed overall.
class SloTracker {
 public:
  struct Config {
    std::size_t window = 512;    ///< rolling-ratio sample window
    int breach_percent = 90;     ///< journal a breach below this rolling %
    std::size_t min_samples = 32;  ///< no breach verdicts before this many
  };

  SloTracker() : SloTracker(Config{}) {}  // see KeyProfileTable on gcc 88165
  explicit SloTracker(const Config& config);

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// One deadline-bounded request: `elapsed_ns` against `budget_ms` (> 0).
  void record(std::uint64_t elapsed_ns, std::int64_t budget_ms);

  /// A request served from cache under a deadline: counted as a hit with
  /// the full budget as slack (the pipeline spent no engine time on it).
  void record_cache_hit(std::int64_t budget_ms);

  /// Rolling hit ratio in percent over the window (100 when empty).
  [[nodiscard]] std::int64_t rolling_hit_percent() const;

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_.value(); }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_.value(); }

  /// Register deadline_hits/deadline_misses counters, the
  /// deadline_slack_ns/deadline_overrun_ns histograms, and the
  /// deadline_hit_ratio_percent gauge under `owner`.
  void register_into(MetricRegistry& registry, const void* owner);

  /// JSON object:
  /// {"deadline_hits":..,"deadline_misses":..,"hit_ratio":..,
  ///  "rolling_hit_percent":..,"window":..,"breached":..,
  ///  "slack_ns":{"p50":..,"p99":..},"overrun_ns":{"p50":..,"p99":..}}
  [[nodiscard]] std::string to_json() const;

 private:
  /// Append one outcome to the ring and emit breach/recover journal
  /// events on threshold crossings.
  void roll(bool hit);

  Config config_;
  Counter hits_;
  Counter misses_;
  LatencyHistogram slack_ns_;    ///< budget - elapsed, for hits
  LatencyHistogram overrun_ns_;  ///< elapsed - budget, for misses
  mutable std::mutex mutex_;
  std::vector<std::uint8_t> ring_;  ///< 1 = hit; circular once full
  std::size_t ring_next_ = 0;
  std::size_t ring_filled_ = 0;
  std::size_t ring_hits_ = 0;
  bool breached_ = false;
};

}  // namespace lptsp::obs
