#include "store/backend.hpp"

#include <utility>
#include <vector>

#include "obs/journal.hpp"
#include "obs/trace.hpp"

namespace lptsp {

namespace {

/// Stores written by earlier builds may also hold a "win-table" record of
/// engine win counts in this namespace; nothing reads it.
constexpr char kTunerStateKey[] = "tuner-state";

}  // namespace

std::unique_ptr<PersistentBackend> PersistentBackend::open(const Options& options,
                                                           std::string& error) {
  KvStore::Options kv_options;
  kv_options.path = options.path;
  kv_options.sync_every_put = options.sync_every_put;
  kv_options.compact_garbage_ratio = options.compact_garbage_ratio;
  kv_options.compact_min_records = options.compact_min_records;
  std::unique_ptr<KvStore> kv = KvStore::open(kv_options, error);
  if (kv == nullptr) return nullptr;
  return std::unique_ptr<PersistentBackend>(new PersistentBackend(std::move(kv), options));
}

bool PersistentBackend::allow_write() {
  if (!degraded_.load(std::memory_order_relaxed)) return true;
  const std::uint64_t now_ns = obs::steady_now_ns();
  const auto interval_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(options_.reopen_probe_interval)
          .count());
  std::uint64_t last_ns = last_probe_ns_.load(std::memory_order_relaxed);
  // One writer wins the probe slot per interval (CAS): a heal attempt is
  // a full live-state rewrite, not something every racing put should pay.
  if (now_ns - last_ns >= interval_ns &&
      last_probe_ns_.compare_exchange_strong(last_ns, now_ns, std::memory_order_relaxed)) {
    if (probe_reopen()) return true;
  }
  writes_skipped_.add();
  return false;
}

bool PersistentBackend::probe_reopen() {
  reopen_probes_.add();
  // compact() rewrites the complete in-memory live set to a fresh log and
  // renames it over the (possibly poisoned) old one — so a successful
  // heal also recovers every record whose append failed while degraded.
  if (!kv_->compact()) return false;
  reopens_.add();
  consecutive_failures_.store(0, std::memory_order_relaxed);
  degraded_.store(false, std::memory_order_relaxed);
  obs::journal().emit(obs::EventType::StoreHealed, obs::EventLevel::Info);
  return true;
}

void PersistentBackend::note_write(bool ok) {
  if (ok) {
    consecutive_failures_.store(0, std::memory_order_relaxed);
    return;
  }
  write_failures_.add();
  if (options_.degraded_after_failures <= 0) return;
  const int failures = consecutive_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (failures >= options_.degraded_after_failures &&
      !degraded_.exchange(true, std::memory_order_relaxed)) {
    degraded_entered_.add();
    obs::journal().emit(obs::EventType::StoreDegraded, obs::EventLevel::Error, nullptr, 0, 0,
                        failures);
    last_probe_ns_.store(obs::steady_now_ns(), std::memory_order_relaxed);
  }
}

void PersistentBackend::put_result(const std::string& key, const Graph& canon, const PVec& p,
                                   const ResultEntry& entry) {
  // A record this size could never be re-verified on reload (the O(n^2)
  // verification matrix is bounded by the same constant), so writing it
  // would only burn disk.
  if (canon.n() > kMaxPersistedGraphVertices) return;
  if (!allow_write()) return;
  const std::uint64_t begin_ns = obs::steady_now_ns();
  const std::lock_guard lock(result_put_mutex_);
  // Monotone-improving per key: the in-memory cache's better-entry policy
  // cannot vouch for an entry it has already evicted, so the comparison
  // against the resident DISK record happens here, atomically — via the
  // O(1) trailer peek, not a full graph decode under the lock.
  if (const std::optional<std::string> existing_value = kv_->get(kResultsNamespace, key)) {
    Weight existing_span = 0;
    bool existing_optimal = false;
    if (peek_persisted_result_quality(
            reinterpret_cast<const std::uint8_t*>(existing_value->data()),
            existing_value->size(), existing_span, existing_optimal) &&
        (existing_span < entry.span ||
         (existing_span == entry.span && existing_optimal && !entry.optimal))) {
      return;  // the record on disk is strictly better; keep it
    }
  }
  std::vector<std::uint8_t> value;
  encode_persisted_result(value, canon, p.entries(), entry);
  note_write(kv_->put(kResultsNamespace, key,
                      std::string(reinterpret_cast<const char*>(value.data()), value.size())));
  append_ns_.record(obs::steady_now_ns() - begin_ns);
}

std::uint64_t PersistentBackend::for_each_result(
    const std::function<void(const std::string&, PersistedResult&&)>& fn) const {
  std::uint64_t undecodable = 0;
  kv_->for_each(kResultsNamespace, [&](const std::string& key, const std::string& value) {
    PersistedResult record;
    std::string error;
    if (decode_persisted_result(reinterpret_cast<const std::uint8_t*>(value.data()),
                                value.size(), record, error)) {
      fn(key, std::move(record));
    } else {
      ++undecodable;
    }
  });
  return undecodable;
}

bool PersistentBackend::put_tuner_state(const TunerState& state) {
  if (!allow_write()) return false;
  const std::uint64_t begin_ns = obs::steady_now_ns();
  std::vector<std::uint8_t> value;
  encode_tuner_state(value, state);
  const bool ok = kv_->put(kMetaNamespace, kTunerStateKey,
                           std::string(reinterpret_cast<const char*>(value.data()), value.size()));
  note_write(ok);
  append_ns_.record(obs::steady_now_ns() - begin_ns);
  return ok;
}

void PersistentBackend::register_metrics(obs::MetricRegistry& registry, const void* owner) const {
  if (owner == nullptr) owner = this;
  registry.register_counter("store_write_failures", &write_failures_, owner);
  registry.register_histogram("store_append_ns", &append_ns_, owner);
  registry.register_gauge(
      "store_live_records",
      [this] { return static_cast<std::int64_t>(kv_->stats().live_records); }, owner);
  registry.register_gauge(
      "store_total_records",
      [this] { return static_cast<std::int64_t>(kv_->stats().total_records); }, owner);
  registry.register_gauge(
      "store_file_bytes", [this] { return static_cast<std::int64_t>(kv_->stats().file_bytes); },
      owner);
  registry.register_gauge(
      "store_compactions", [this] { return static_cast<std::int64_t>(kv_->stats().compactions); },
      owner);
  registry.register_gauge(
      "store_degraded",
      [this] { return degraded_.load(std::memory_order_relaxed) ? 1 : 0; }, owner);
  registry.register_counter("store_degraded_entered", &degraded_entered_, owner);
  registry.register_counter("store_writes_skipped_degraded", &writes_skipped_, owner);
  registry.register_counter("store_reopen_probes", &reopen_probes_, owner);
  registry.register_counter("store_reopens", &reopens_, owner);
}

std::optional<TunerState> PersistentBackend::load_tuner_state() const {
  const std::optional<std::string> value = kv_->get(kMetaNamespace, kTunerStateKey);
  if (!value.has_value()) return std::nullopt;
  TunerState state;
  std::string error;
  if (!decode_tuner_state(reinterpret_cast<const std::uint8_t*>(value->data()), value->size(),
                          state, error)) {
    return std::nullopt;
  }
  return state;
}

}  // namespace lptsp
