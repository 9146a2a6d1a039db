#include "util/fault.hpp"

#include "obs/journal.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>

namespace lptsp {

std::optional<FaultSite> parse_fault_site(const std::string& name) {
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    const auto site = static_cast<FaultSite>(i);
    if (name == fault_site_name(site)) return site;
  }
  return std::nullopt;
}

namespace fault {

namespace detail {
std::atomic<bool> g_armed[kFaultSiteCount]{};
}  // namespace detail

namespace {

constexpr std::uint64_t kDefaultStallMs = 25;

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct SiteState {
  double probability = 0;
  std::uint64_t rng_state = 0;
  std::uint64_t max_fires = 0;  ///< 0 = unlimited
  std::uint64_t param = 0;
  std::uint64_t fires = 0;
};

// The slow path's shared state: one mutex for all sites. Contention only
// exists while a chaos schedule is armed; the disarmed hot path never
// takes it.
std::mutex g_mutex;
SiteState g_sites[kFaultSiteCount];
/// Bumped by every disarm of a site; a stall in progress ends when it moves.
std::uint64_t g_disarm_epoch[kFaultSiteCount]{};
std::condition_variable g_disarmed;

/// Process-wide LPTSP_FAULTS arming, run once before main() from this
/// TU's initializer. It touches only this file's own statics (constant-
/// initialized), so static-init order cannot bite; a malformed spec is
/// reported on stderr rather than aborting a production daemon.
struct EnvArmer {
  EnvArmer() {
    const char* spec = std::getenv("LPTSP_FAULTS");
    if (spec == nullptr || spec[0] == '\0') return;
    std::string error;
    if (!arm_from_spec(spec, error)) {
      std::fprintf(stderr, "lptsp: ignoring malformed LPTSP_FAULTS entry: %s\n", error.c_str());
    }
  }
} g_env_armer;

}  // namespace

namespace detail {

bool fire_slow(FaultSite site) {
  const auto index = static_cast<std::size_t>(site);
  const std::lock_guard lock(g_mutex);
  // Re-check under the lock: a concurrent disarm between the relaxed
  // check and here must win.
  if (!g_armed[index].load(std::memory_order_relaxed)) return false;
  SiteState& state = g_sites[index];
  if (state.max_fires != 0 && state.fires >= state.max_fires) return false;
  // Deterministic draw: the k-th value of this stream is a pure function
  // of (seed, k), so a schedule replays bit-identically.
  const double draw =
      static_cast<double>(splitmix64(state.rng_state) >> 11) * 0x1.0p-53;  // [0, 1)
  if (draw >= state.probability) return false;
  ++state.fires;
  // Chaos forensics: the journal records which site fired, so a failing
  // schedule can be read back as a timeline instead of a diff of counters.
  obs::journal().emit(obs::EventType::FaultFired, obs::EventLevel::Warn, fault_site_name(site),
                      0, 0, static_cast<std::int64_t>(state.fires));
  return true;
}

}  // namespace detail

void arm(FaultSite site, double probability, std::uint64_t seed, std::uint64_t max_fires,
         std::uint64_t param) {
  const auto index = static_cast<std::size_t>(site);
  const std::lock_guard lock(g_mutex);
  SiteState& state = g_sites[index];
  state.probability = probability < 0 ? 0.0 : (probability > 1 ? 1.0 : probability);
  std::uint64_t mix = seed;
  (void)splitmix64(mix);  // decorrelate adjacent seeds
  state.rng_state = mix;
  state.max_fires = max_fires;
  state.param = param;
  state.fires = 0;
  detail::g_armed[index].store(true, std::memory_order_relaxed);
}

void disarm(FaultSite site) {
  const auto index = static_cast<std::size_t>(site);
  {
    const std::lock_guard lock(g_mutex);
    detail::g_armed[index].store(false, std::memory_order_relaxed);
    g_sites[index] = SiteState{};
    ++g_disarm_epoch[index];
  }
  g_disarmed.notify_all();
}

void disarm_all() {
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) disarm(static_cast<FaultSite>(i));
}

bool armed(FaultSite site) {
  return detail::g_armed[static_cast<std::size_t>(site)].load(std::memory_order_relaxed);
}

std::uint64_t fires(FaultSite site) {
  const std::lock_guard lock(g_mutex);
  return g_sites[static_cast<std::size_t>(site)].fires;
}

std::uint64_t param(FaultSite site) {
  const std::lock_guard lock(g_mutex);
  return g_sites[static_cast<std::size_t>(site)].param;
}

void maybe_stall(FaultSite site) {
  if (!should_fail(site)) return;
  const auto index = static_cast<std::size_t>(site);
  std::unique_lock lock(g_mutex);
  if (!detail::g_armed[index].load(std::memory_order_relaxed)) return;  // disarmed meanwhile
  const std::uint64_t stall_ms =
      g_sites[index].param != 0 ? g_sites[index].param : kDefaultStallMs;
  const std::uint64_t epoch = g_disarm_epoch[index];
  g_disarmed.wait_for(lock, std::chrono::milliseconds{stall_ms},
                      [&] { return g_disarm_epoch[index] != epoch; });
}

bool arm_from_spec(const std::string& spec, std::string& error) {
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;  // tolerate trailing/double commas

    // site:prob:seed[:param]
    const std::size_t c1 = entry.find(':');
    const std::size_t c2 = c1 == std::string::npos ? std::string::npos : entry.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
      error = "'" + entry + "' (want site:prob:seed[:param])";
      return false;
    }
    const std::size_t c3 = entry.find(':', c2 + 1);
    const std::string site_name = entry.substr(0, c1);
    const std::optional<FaultSite> site = parse_fault_site(site_name);
    if (!site.has_value()) {
      error = "unknown fault site '" + site_name + "'";
      return false;
    }
    try {
      const double probability = std::stod(entry.substr(c1 + 1, c2 - c1 - 1));
      const auto seed = static_cast<std::uint64_t>(
          std::stoull(entry.substr(c2 + 1, (c3 == std::string::npos ? entry.size() : c3) - c2 - 1)));
      const std::uint64_t site_param =
          c3 == std::string::npos ? 0
                                  : static_cast<std::uint64_t>(std::stoull(entry.substr(c3 + 1)));
      arm(*site, probability, seed, /*max_fires=*/0, site_param);
    } catch (const std::exception&) {
      error = "'" + entry + "' has a non-numeric prob/seed/param";
      return false;
    }
  }
  return true;
}

std::string describe() {
  std::string out;
  const std::lock_guard lock(g_mutex);
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    if (!detail::g_armed[i].load(std::memory_order_relaxed)) continue;
    const SiteState& state = g_sites[i];
    if (!out.empty()) out += ", ";
    out += fault_site_name(static_cast<FaultSite>(i));
    out += ":p=" + std::to_string(state.probability);
    if (state.param != 0) out += ":param=" + std::to_string(state.param);
  }
  return out.empty() ? "none" : out;
}

}  // namespace fault

}  // namespace lptsp
