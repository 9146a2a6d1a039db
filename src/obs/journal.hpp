#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

/// Crash-safe structured event journal: the *story* of an incident.
///
/// Metrics say how much and how slow; the journal says what happened,
/// in order — brownout rung changes, store degrade/heal flips, wire
/// faults attributed to a peer connection, armed fault sites firing.
/// Events are fixed-size plain data (static-string details, no
/// allocation per event beyond the ring slot), appended under one
/// mutex; emission points are incidents, not per-request work, so the
/// lock is cold in steady state. The ring is bounded and process-global
/// (obs::journal()), rendered as JSON over the wire (StatsFormat::
/// Journal) and dumped atomically by lptspd on SIGQUIT and clean
/// shutdown.
namespace lptsp::obs {

/// What kind of thing happened. Extend freely: journal_event_name is
/// compile-checked (defaultless switch + -Werror=switch).
enum class EventType : std::uint8_t {
  BrownoutRung,    ///< heuristic-only rung flipped; arg0/arg1 = old/new (1 = engaged)
  StoreDegraded,   ///< durable store flipped read-only; arg0 = consecutive failures
  StoreHealed,     ///< probe compaction restored writes
  WireFault,       ///< protocol error sent to a peer; peer = connection id
  FaultFired,      ///< an armed fault site fired; detail = site name
  OverloadReject,  ///< admission gate refused a request; trace_id = its trace, detail = gate
  SloBreach,       ///< rolling deadline-hit ratio fell below target; arg0 = pct, arg1 = target
  SloRecovered,    ///< rolling deadline-hit ratio back at/above target
  TunerEffort,     ///< per-bucket effort changed; peer = bucket, arg0 = old %, arg1 = new %
  TunerPretrim,    ///< exact pre-trim flipped; peer = bucket, arg0/arg1 = old/new (1 = trimmed)
};

constexpr const char* journal_event_name(EventType type) noexcept {
  switch (type) {
    case EventType::BrownoutRung: return "brownout-rung";
    case EventType::StoreDegraded: return "store-degraded";
    case EventType::StoreHealed: return "store-healed";
    case EventType::WireFault: return "wire-fault";
    case EventType::FaultFired: return "fault-fired";
    case EventType::OverloadReject: return "overload-reject";
    case EventType::SloBreach: return "slo-breach";
    case EventType::SloRecovered: return "slo-recovered";
    case EventType::TunerEffort: return "tuner-effort";
    case EventType::TunerPretrim: return "tuner-pretrim";
  }
  return "unknown";  // out-of-range cast, not a missing enumerator
}

enum class EventLevel : std::uint8_t {
  Info,  ///< expected lifecycle (heal, rung release)
  Warn,  ///< degraded but serving (rung engage, fault fired)
  Error, ///< work refused or lost (overload reject, wire fault, store degrade)
};

constexpr const char* journal_level_name(EventLevel level) noexcept {
  switch (level) {
    case EventLevel::Info: return "info";
    case EventLevel::Warn: return "warn";
    case EventLevel::Error: return "error";
  }
  return "unknown";
}

/// One journal entry. `detail` must be a static string (enum names,
/// fault-site names) — the journal never owns heap text.
struct JournalEvent {
  std::uint64_t seq = 0;       ///< monotone per-journal sequence
  std::uint64_t t_ns = 0;      ///< steady_now_ns() at emission
  EventType type = EventType::BrownoutRung;
  EventLevel level = EventLevel::Info;
  std::uint64_t trace_id = 0;  ///< correlating request trace id (0 = none)
  std::uint64_t peer = 0;      ///< connection id (0 = none)
  std::int64_t arg0 = 0;
  std::int64_t arg1 = 0;
  const char* detail = nullptr;
};

/// Bounded MPMC event ring. Appends are mutex-guarded but events are
/// incidents (rung flips, faults), not requests — in steady state the
/// mutex is untouched.
class Journal {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit Journal(std::size_t capacity = kDefaultCapacity) : capacity_(capacity) {}

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  void emit(EventType type, EventLevel level, const char* detail = nullptr,
            std::uint64_t trace_id = 0, std::uint64_t peer = 0, std::int64_t arg0 = 0,
            std::int64_t arg1 = 0);

  /// Events currently retained, oldest first.
  [[nodiscard]] std::vector<JournalEvent> snapshot() const;

  /// Total events ever emitted (retained or evicted).
  [[nodiscard]] std::uint64_t emitted() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const;

  /// Resize the ring in place, keeping the newest events that still fit.
  /// Sequence numbering is untouched (emitted() stays truthful), so an
  /// incremental reader's --since cursor survives a resize.
  void set_capacity(std::size_t capacity);

  /// JSON array, oldest first, of retained events with seq > since_seq
  /// (0 = everything). The seq field is the incremental-scrape cursor:
  /// pass the largest seq you have seen to fetch only newer events.
  [[nodiscard]] std::string dump_json(std::uint64_t since_seq = 0) const;

  /// Drop every retained event (tests).
  void clear();

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::uint64_t next_seq_ = 1;
  std::vector<JournalEvent> ring_;  ///< circular once full
  std::size_t head_ = 0;            ///< oldest element when ring_ is full
};

/// The process-global journal every emission point writes to. One
/// journal per process matches one daemon per process; tests that need
/// isolation clear() it.
[[nodiscard]] Journal& journal();

}  // namespace lptsp::obs
