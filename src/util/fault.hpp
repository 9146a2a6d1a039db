#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace lptsp {

/// Deterministic fault injection for the serving stack's failure paths.
///
/// Every named site below sits on one real failure surface (a write(2)
/// that can fail, a socket that can reset, an engine that can stall) and
/// is compiled in unconditionally: the disarmed cost is a single relaxed
/// atomic load per crossing, so production binaries carry the sites for
/// free and chaos tests arm them without a rebuild.
///
/// Arming is programmatic (tests) or environmental (whole-process runs):
///
///   LPTSP_FAULTS=site:prob:seed[:param],site:prob:seed[:param],...
///
/// e.g. `LPTSP_FAULTS=store.append:1:42` fails every log append, and
/// `LPTSP_FAULTS=engine.stall:0.2:7:50` stalls 20% of engine races for
/// 50ms. Firing is seeded-deterministic: a site armed with the same
/// (probability, seed) produces the same fire/no-fire sequence across
/// runs — concurrency may interleave which thread draws which value, but
/// the drawn sequence itself never changes, so single-threaded schedules
/// replay exactly.
enum class FaultSite : std::uint8_t {
  StoreAppend,         ///< RecordLog::append fails (log poisons, as a real torn write would)
  StoreFsync,          ///< RecordLog::sync reports failure
  StoreCompactRename,  ///< KvStore compaction "crashes" in the rename window
  NetReadShort,        ///< socket reads truncated to one byte
  NetWriteShort,       ///< socket writes truncated to one byte
  NetDisconnect,       ///< connection reset injected at the transport
  EngineStall,         ///< artificial sleep on the engine-race path
};

inline constexpr std::size_t kFaultSiteCount = 7;

/// Compile-checked site names (no default + -Werror=switch: an unnamed
/// new enumerator fails the build). These are the LPTSP_FAULTS spellings.
constexpr const char* fault_site_name(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::StoreAppend: return "store.append";
    case FaultSite::StoreFsync: return "store.fsync";
    case FaultSite::StoreCompactRename: return "store.compact_rename";
    case FaultSite::NetReadShort: return "net.read_short";
    case FaultSite::NetWriteShort: return "net.write_short";
    case FaultSite::NetDisconnect: return "net.disconnect";
    case FaultSite::EngineStall: return "engine.stall";
  }
  return "unknown";  // out-of-range cast, not a missing enumerator
}

/// The inverse of fault_site_name; nullopt for unknown names.
std::optional<FaultSite> parse_fault_site(const std::string& name);

namespace fault {

namespace detail {
// One armed flag per site at namespace scope (no function-local-static
// guard on the hot path). Everything else a site needs — probability,
// RNG state, fire caps — lives behind a mutex in fault.cpp, touched only
// when the flag is already set.
extern std::atomic<bool> g_armed[kFaultSiteCount];
bool fire_slow(FaultSite site);
}  // namespace detail

/// Should this crossing of `site` fail? Disarmed (the default, and the
/// production state) this is one relaxed atomic load and a branch.
inline bool should_fail(FaultSite site) {
  if (!detail::g_armed[static_cast<std::size_t>(site)].load(std::memory_order_relaxed)) {
    return false;
  }
  return detail::fire_slow(site);
}

/// Arm `site`: each crossing fails with `probability`, drawn from a
/// deterministic stream seeded by `seed`. `max_fires` > 0 caps the total
/// number of failures (a one-shot fault is prob=1, max_fires=1);
/// `param` is a site-specific argument — for engine.stall, milliseconds
/// to sleep (default 25). Re-arming resets the stream and the fire count.
void arm(FaultSite site, double probability, std::uint64_t seed, std::uint64_t max_fires = 0,
         std::uint64_t param = 0);

void disarm(FaultSite site);
void disarm_all();

[[nodiscard]] bool armed(FaultSite site);
/// Failures injected at `site` since it was (re)armed.
[[nodiscard]] std::uint64_t fires(FaultSite site);
/// The site's `param` (0 when disarmed or unset).
[[nodiscard]] std::uint64_t param(FaultSite site);

/// Sleep for the site's param milliseconds (default 25) when the site
/// fires, or until the site is disarmed, whichever comes first. The stall
/// helper for FaultSite::EngineStall: a test holds an engine race with a
/// long one-shot stall and releases it by disarming.
void maybe_stall(FaultSite site);

/// Parse and apply one LPTSP_FAULTS spec ("site:prob:seed[:param],...").
/// Returns false with `error` set on the first malformed entry; entries
/// before it are already armed.
bool arm_from_spec(const std::string& spec, std::string& error);

/// One-line description of every armed site ("none" when all disarmed),
/// for daemon startup logs.
[[nodiscard]] std::string describe();

}  // namespace fault

}  // namespace lptsp
