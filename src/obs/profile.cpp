#include "obs/profile.hpp"

#include <algorithm>

#include "obs/journal.hpp"

namespace lptsp::obs {

std::string format_fixed2(double value) {
  // Largest value whose hundredths fit a uint64 with headroom; every
  // double at or below it converts exactly defined. NaN (the only value
  // failing both comparisons) falls through to 0.
  constexpr double kMax = 1e15;
  std::uint64_t hundredths = 0;
  if (value >= kMax) {
    hundredths = static_cast<std::uint64_t>(kMax) * 100;  // +inf clamps here too
  } else if (value > 0) {
    hundredths = static_cast<std::uint64_t>(value * 100.0 + 0.5);
  }
  std::string out = std::to_string(hundredths / 100);
  out.push_back('.');
  const std::uint64_t frac = hundredths % 100;
  out.push_back(static_cast<char>('0' + frac / 10));
  out.push_back(static_cast<char>('0' + frac % 10));
  return out;
}

namespace {

/// Average events per second over an uptime; 0 when no time has passed.
std::string rate_per_s(std::uint64_t total, std::uint64_t uptime_ns) {
  if (uptime_ns == 0) return "0.00";
  return format_fixed2(static_cast<double>(total) * 1e9 / static_cast<double>(uptime_ns));
}

std::string hex_u64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = "0x";
  bool started = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const auto nibble = static_cast<std::size_t>((value >> shift) & 0xF);
    if (!started && nibble == 0 && shift != 0) continue;
    started = true;
    out.push_back(kDigits[nibble]);
  }
  return out;
}

void append_hist_quantiles(std::string& out, const LatencyHistogram& hist) {
  const HistogramSnapshot snap = hist.snapshot();
  out += "{\"count\":" + std::to_string(snap.count);
  out += ",\"p50\":" + std::to_string(snap.quantile(0.50));
  out += ",\"p99\":" + std::to_string(snap.quantile(0.99));
  out += ",\"max\":" + std::to_string(snap.max);
  out.push_back('}');
}

}  // namespace

void WorkCounters::add(const EngineWork& work) noexcept {
  if (work.bb_nodes != 0) bb_nodes_.add(work.bb_nodes);
  if (work.bb_pruned != 0) bb_pruned_.add(work.bb_pruned);
  if (work.lk_kicks != 0) lk_kicks_.add(work.lk_kicks);
  if (work.lk_accepted != 0) lk_accepted_.add(work.lk_accepted);
  if (work.lk_wakes != 0) lk_wakes_.add(work.lk_wakes);
  if (work.lk_moves != 0) lk_moves_.add(work.lk_moves);
  if (work.hk_layers != 0) hk_layers_.add(work.hk_layers);
  if (work.hk_cells != 0) hk_cells_.add(work.hk_cells);
}

void WorkCounters::register_into(MetricRegistry& registry, const void* owner) const {
  registry.register_counter("engine_work_bb_nodes", &bb_nodes_, owner);
  registry.register_counter("engine_work_bb_pruned", &bb_pruned_, owner);
  registry.register_counter("engine_work_lk_kicks", &lk_kicks_, owner);
  registry.register_counter("engine_work_lk_accepted", &lk_accepted_, owner);
  registry.register_counter("engine_work_lk_wakes", &lk_wakes_, owner);
  registry.register_counter("engine_work_lk_moves", &lk_moves_, owner);
  registry.register_counter("engine_work_hk_layers", &hk_layers_, owner);
  registry.register_counter("engine_work_hk_cells", &hk_cells_, owner);
}

EngineWork WorkCounters::totals() const noexcept {
  EngineWork work;
  work.bb_nodes = bb_nodes_.value();
  work.bb_pruned = bb_pruned_.value();
  work.lk_kicks = lk_kicks_.value();
  work.lk_accepted = lk_accepted_.value();
  work.lk_wakes = lk_wakes_.value();
  work.lk_moves = lk_moves_.value();
  work.hk_layers = hk_layers_.value();
  work.hk_cells = hk_cells_.value();
  return work;
}

std::string WorkCounters::to_json(std::uint64_t uptime_ns) const {
  const EngineWork w = totals();
  std::string out = "{\"held_karp\":{";
  out += "\"layers\":" + std::to_string(w.hk_layers);
  out += ",\"cells\":" + std::to_string(w.hk_cells);
  out += ",\"cells_per_s\":" + rate_per_s(w.hk_cells, uptime_ns);
  out += "},\"branch_bound\":{";
  out += "\"nodes\":" + std::to_string(w.bb_nodes);
  out += ",\"pruned\":" + std::to_string(w.bb_pruned);
  out += ",\"nodes_per_s\":" + rate_per_s(w.bb_nodes, uptime_ns);
  out += "},\"chained_lk\":{";
  out += "\"kicks\":" + std::to_string(w.lk_kicks);
  out += ",\"accepted\":" + std::to_string(w.lk_accepted);
  out += ",\"wakes\":" + std::to_string(w.lk_wakes);
  out += ",\"moves\":" + std::to_string(w.lk_moves);
  out += ",\"kicks_per_s\":" + rate_per_s(w.lk_kicks, uptime_ns);
  out += "}}";
  return out;
}

KeyProfileTable::KeyProfileTable(const Config& config) : config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.per_shard == 0) config_.per_shard = 1;
  shards_ = std::vector<Shard>(config_.shards);
}

void KeyProfileTable::record(std::uint64_t key_hash, int n, std::uint64_t engine_ns,
                             const char* engine, bool had_deadline, bool deadline_hit) {
  Shard& shard = shards_[key_hash % config_.shards];
  const std::lock_guard lock(shard.mutex);

  Entry* slot = nullptr;
  for (Entry& entry : shard.entries) {
    if (entry.key_hash == key_hash && entry.n == n) {
      slot = &entry;
      break;
    }
  }
  if (slot == nullptr) {
    if (shard.entries.size() < config_.per_shard) {
      slot = &shard.entries.emplace_back();
    } else {
      // Space-saving eviction: displace the coldest entry and inherit its
      // totals, so a genuinely hot key cannot be rotated out by a stream
      // of one-shot keys (the inherited totals bound the overestimate).
      slot = &shard.entries.front();
      for (Entry& entry : shard.entries) {
        if (entry.engine_ns < slot->engine_ns) slot = &entry;
      }
      evictions_.add();
      slot->solves = 0;
      slot->last_engine_ns = 0;
      slot->deadline_hits = 0;
      slot->deadline_misses = 0;
    }
    slot->key_hash = key_hash;
    slot->n = n;
    slot->size_bucket = size_bucket(n);
  }

  slot->solves += 1;
  slot->engine_ns += engine_ns;
  slot->last_engine_ns = engine_ns;
  slot->last_engine = engine;
  if (had_deadline) {
    if (deadline_hit) {
      slot->deadline_hits += 1;
    } else {
      slot->deadline_misses += 1;
    }
  }
}

std::size_t KeyProfileTable::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard lock(shard.mutex);
    total += shard.entries.size();
  }
  return total;
}

std::vector<KeyProfileTable::Entry> KeyProfileTable::top(std::size_t k) const {
  std::vector<Entry> all;
  for (const Shard& shard : shards_) {
    const std::lock_guard lock(shard.mutex);
    all.insert(all.end(), shard.entries.begin(), shard.entries.end());
  }
  std::sort(all.begin(), all.end(), [](const Entry& a, const Entry& b) {
    if (a.engine_ns != b.engine_ns) return a.engine_ns > b.engine_ns;
    return a.key_hash < b.key_hash;  // total order: stable JSON across calls
  });
  if (all.size() > k) all.resize(k);
  return all;
}

std::uint64_t KeyProfileTable::bucket_mean_ns(int size_bucket) const {
  std::uint64_t total_ns = 0;
  std::uint64_t solves = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard lock(shard.mutex);
    for (const Entry& entry : shard.entries) {
      if (entry.size_bucket != size_bucket) continue;
      total_ns += entry.engine_ns;
      solves += entry.solves;
    }
  }
  return solves == 0 ? 0 : total_ns / solves;
}

std::string KeyProfileTable::to_json(std::size_t k) const {
  const std::vector<Entry> entries = top(k);
  std::string out = "[";
  bool first = true;
  for (const Entry& entry : entries) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"key\":\"" + hex_u64(entry.key_hash) + "\"";
    out += ",\"n\":" + std::to_string(entry.n);
    out += ",\"size_bucket\":" + std::to_string(entry.size_bucket);
    out += ",\"solves\":" + std::to_string(entry.solves);
    out += ",\"engine_ns\":" + std::to_string(entry.engine_ns);
    out += ",\"last_engine_ns\":" + std::to_string(entry.last_engine_ns);
    out += ",\"last_engine\":\"";
    out += entry.last_engine != nullptr ? entry.last_engine : "none";
    out += "\"";
    out += ",\"deadline_hits\":" + std::to_string(entry.deadline_hits);
    out += ",\"deadline_misses\":" + std::to_string(entry.deadline_misses);
    out.push_back('}');
  }
  out.push_back(']');
  return out;
}

SloTracker::SloTracker(const Config& config) : config_(config) {
  if (config_.window == 0) config_.window = 1;
  ring_.assign(config_.window, 0);
}

void SloTracker::record(std::uint64_t elapsed_ns, std::int64_t budget_ms) {
  const std::uint64_t budget_ns = static_cast<std::uint64_t>(budget_ms) * 1'000'000ULL;
  const bool hit = elapsed_ns <= budget_ns;
  if (hit) {
    hits_.add();
    slack_ns_.record(budget_ns - elapsed_ns);
  } else {
    misses_.add();
    overrun_ns_.record(elapsed_ns - budget_ns);
  }
  roll(hit);
}

void SloTracker::record_cache_hit(std::int64_t budget_ms) {
  hits_.add();
  slack_ns_.record(static_cast<std::uint64_t>(budget_ms) * 1'000'000ULL);
  roll(true);
}

void SloTracker::roll(bool hit) {
  bool emit_breach = false;
  bool emit_recover = false;
  std::int64_t pct = 100;
  {
    const std::lock_guard lock(mutex_);
    if (ring_filled_ == ring_.size()) {
      ring_hits_ -= ring_[ring_next_];
    } else {
      ring_filled_ += 1;
    }
    ring_[ring_next_] = hit ? 1 : 0;
    ring_hits_ += ring_[ring_next_];
    ring_next_ = (ring_next_ + 1) % ring_.size();

    pct = static_cast<std::int64_t>(ring_hits_ * 100 / ring_filled_);
    if (ring_filled_ >= config_.min_samples) {
      const bool below = pct < config_.breach_percent;
      if (below && !breached_) {
        breached_ = true;
        emit_breach = true;
      } else if (!below && breached_) {
        breached_ = false;
        emit_recover = true;
      }
    }
  }
  // Journal emission outside our mutex: the journal has its own lock and
  // crossings are incidents, not per-request work.
  if (emit_breach) {
    journal().emit(EventType::SloBreach, EventLevel::Warn, "deadline-hit-ratio", 0, 0, pct,
                   config_.breach_percent);
  } else if (emit_recover) {
    journal().emit(EventType::SloRecovered, EventLevel::Info, "deadline-hit-ratio", 0, 0, pct,
                   config_.breach_percent);
  }
}

std::int64_t SloTracker::rolling_hit_percent() const {
  const std::lock_guard lock(mutex_);
  if (ring_filled_ == 0) return 100;
  return static_cast<std::int64_t>(ring_hits_ * 100 / ring_filled_);
}

void SloTracker::register_into(MetricRegistry& registry, const void* owner) {
  registry.register_counter("deadline_hits", &hits_, owner);
  registry.register_counter("deadline_misses", &misses_, owner);
  registry.register_histogram("deadline_slack_ns", &slack_ns_, owner);
  registry.register_histogram("deadline_overrun_ns", &overrun_ns_, owner);
  registry.register_gauge("deadline_hit_ratio_percent",
                          [this] { return rolling_hit_percent(); }, owner);
}

std::string SloTracker::to_json() const {
  const std::uint64_t hits = hits_.value();
  const std::uint64_t misses = misses_.value();
  const std::uint64_t total = hits + misses;
  std::string out = "{\"deadline_hits\":" + std::to_string(hits);
  out += ",\"deadline_misses\":" + std::to_string(misses);
  out += ",\"hit_ratio\":";
  out += total == 0 ? "1.00"
                    : format_fixed2(static_cast<double>(hits) / static_cast<double>(total));
  out += ",\"rolling_hit_percent\":" + std::to_string(rolling_hit_percent());
  {
    const std::lock_guard lock(mutex_);
    out += ",\"window\":" + std::to_string(ring_.size());
    out += ",\"breached\":";
    out += breached_ ? "true" : "false";
  }
  out += ",\"slack_ns\":";
  append_hist_quantiles(out, slack_ns_);
  out += ",\"overrun_ns\":";
  append_hist_quantiles(out, overrun_ns_);
  out.push_back('}');
  return out;
}

}  // namespace lptsp::obs
