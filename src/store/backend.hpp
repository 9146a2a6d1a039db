#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/pvec.hpp"
#include "obs/metrics.hpp"
#include "store/codec.hpp"
#include "store/kv.hpp"

namespace lptsp {

/// The durable face of the serving layer: one KvStore file holding the
/// solve cache's verified results (namespace 0, keyed by the exact
/// canonical result keys the in-memory cache uses) and the engine tuner's
/// learned state (namespace 1). SolveCache writes results through here and
/// warms itself back up via for_each_result; BatchSolver restores the
/// tuner state on open and checkpoints it on shutdown.
///
/// Persistence is best-effort by design: an IO failure flips writes into
/// counted no-ops instead of failing solves — the store is a cache of
/// re-derivable results, never the source of truth.
///
/// Degradation ladder: after `degraded_after_failures` CONSECUTIVE write
/// failures the backend enters read-only degraded mode (the
/// `store_degraded` gauge flips to 1). Serving continues from the
/// in-memory cache; writes become counted skips instead of repeated
/// syscall failures. While degraded, at most once per
/// `reopen_probe_interval` a write attempt turns into a reopen probe: a
/// forced compaction that rewrites the full live in-memory state to a
/// fresh log and atomically renames it over the old one. A successful
/// probe heals the store — including every record whose append failed
/// while degraded, because the in-memory index kept them — and exits
/// degraded mode.
class PersistentBackend {
 public:
  static constexpr std::uint8_t kResultsNamespace = 0;
  static constexpr std::uint8_t kMetaNamespace = 1;

  struct Options {
    std::string path;
    bool sync_every_put = false;
    double compact_garbage_ratio = 0.5;
    std::uint64_t compact_min_records = 256;
    /// Consecutive write failures before entering read-only degraded
    /// mode. <= 0 disables degradation (every write keeps trying).
    int degraded_after_failures = 3;
    /// While degraded, attempt a reopen/heal at most this often.
    std::chrono::milliseconds reopen_probe_interval{1000};
  };

  /// Open or create the store file. nullptr + `error` on failure (corrupt
  /// header, unwritable path); torn tails and bad records inside a valid
  /// log are repaired/skipped by the layers below, never open failures.
  static std::unique_ptr<PersistentBackend> open(const Options& options, std::string& error);

  /// Persist one verified result under its canonical cache key. The
  /// canonical graph and p are stored alongside the labels so the record
  /// re-verifies on load without trusting the key bytes. The store is
  /// monotone-improving per key: an incoming entry strictly worse than the
  /// resident record is dropped (compared under an internal lock, so
  /// racing writers cannot LWW-overwrite a better record — the in-memory
  /// cache's "accepted" gate alone cannot guarantee this once the better
  /// entry has been LRU-evicted from memory). Graphs above
  /// kMaxPersistedGraphVertices are not persisted (they could never be
  /// re-verified on reload).
  void put_result(const std::string& key, const Graph& canon, const PVec& p,
                  const ResultEntry& entry);

  /// Decode every live result record into `fn`; undecodable values are
  /// counted (returned) and skipped. Runs under the store lock.
  std::uint64_t for_each_result(
      const std::function<void(const std::string& key, PersistedResult&& record)>& fn) const;

  /// Persist the tuner state; false when the degradation ladder skipped
  /// the write or the KV put failed, so the caller can retry later.
  [[nodiscard]] bool put_tuner_state(const TunerState& state);
  /// The last persisted tuner state; nullopt when none is stored or the
  /// record does not decode (a fresh tuner is the safe fallback).
  [[nodiscard]] std::optional<TunerState> load_tuner_state() const;

  /// Writes that failed at the KV/log layer since open (observability).
  [[nodiscard]] std::uint64_t write_failures() const noexcept { return write_failures_.value(); }

  /// True while the backend is in read-only degraded mode.
  [[nodiscard]] bool degraded() const noexcept {
    return degraded_.load(std::memory_order_relaxed);
  }

  /// Attempt a heal right now regardless of the probe interval: force a
  /// compaction (full live-state rewrite + atomic rename). On success the
  /// backend leaves degraded mode. Exposed for tests and operator tooling;
  /// the write path calls this automatically on the probe cadence.
  bool probe_reopen();

  /// Publish the append-latency histogram, write-failure counter, and
  /// gauges over KvStore::stats() (live/total records, file bytes,
  /// compactions) into `registry`, tagged with `owner` (defaults to this
  /// backend).
  void register_metrics(obs::MetricRegistry& registry, const void* owner = nullptr) const;

  [[nodiscard]] KvStore& kv() noexcept { return *kv_; }
  [[nodiscard]] const KvStore& kv() const noexcept { return *kv_; }

 private:
  PersistentBackend(std::unique_ptr<KvStore> kv, const Options& options)
      : kv_(std::move(kv)), options_(options) {}

  /// Gate every durable write through the degradation ladder: true =
  /// proceed with the write; false = skip it (degraded, and no probe due
  /// or the probe failed). May heal the store as a side effect.
  bool allow_write();
  /// Account one write outcome: success resets the consecutive-failure
  /// run; failure counts it and may enter degraded mode.
  void note_write(bool ok);

  std::unique_ptr<KvStore> kv_;
  Options options_;
  /// Serializes put_result's read-compare-write so the monotonicity check
  /// is atomic across racing result writers (tuner-state puts don't need it).
  std::mutex result_put_mutex_;
  obs::Counter write_failures_;
  /// End-to-end latency of durable appends (encode + monotonicity peek +
  /// KV put), recorded in both put_result and put_tuner_state.
  obs::LatencyHistogram append_ns_;

  // Degradation ladder state. `degraded_` is the mode flag (also the
  // store_degraded gauge); the rest drives entry/exit accounting.
  std::atomic<bool> degraded_{false};
  std::atomic<int> consecutive_failures_{0};
  std::atomic<std::uint64_t> last_probe_ns_{0};
  obs::Counter degraded_entered_;   ///< times the backend flipped read-only
  obs::Counter writes_skipped_;     ///< writes dropped while degraded
  obs::Counter reopen_probes_;      ///< heal attempts (successful or not)
  obs::Counter reopens_;            ///< successful heals
};

}  // namespace lptsp
