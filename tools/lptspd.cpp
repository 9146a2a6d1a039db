/// lptspd — the L(p)-labeling service daemon.
///
/// Binds the batch labeling service (canonical solve cache, engine
/// portfolio, admission control) to a TCP port speaking the lptspd binary
/// wire protocol (src/net/wire.hpp). Clients are LabelingClient or
/// anything that writes the documented frames.
///
/// Usage:
///   lptspd [--bind=127.0.0.1] [--port=4780]
///          [--deadline-ms=250] [--cache-capacity=4096] [--no-cache]
///          [--cache-file=PATH | --state-dir=DIR] [--cache-sync]
///          [--request-workers=0] [--engine-workers=0]
///          [--max-pending=256] [--max-connections=64]
///          [--max-inflight=64] [--seed=1] [--stats-every=10]
///          [--stats-json=PATH] [--journal-json=PATH]
///          [--journal-cap=N] [--profile-json=PATH]
///          [--trace-keep=64] [--trace-slow-ms=0]
///          [--store-degraded-after=3] [--store-probe-ms=1000]
///          [--brownout-heuristic-pending=N] [--brownout-retry-after-ms=250]
///          [--no-learn] [--learn-reprobe=16] [--learn-decay-every=64]
///          [--learn-effort-every=32] [--admission-work-budget=MS]
///
/// Worker counts of 0 mean hardware concurrency. --max-pending is the
/// service-wide admission bound (RejectedOverload beyond it); 0 disables
/// it. --cache-capacity bounds EACH of the two cache namespaces (solve
/// results and reductions) separately, so peak residency is up to twice
/// the flag's value. --stats-every=N prints one key=value metrics line
/// every N seconds (0 = quiet). SIGINT/SIGTERM shut down cleanly.
///
/// Observability: every metric is scrapeable live over the wire
/// (lptsp_stats, or any client sending a StatsRequest frame).
/// --stats-json=PATH additionally writes the full JSON snapshot to PATH
/// atomically (temp file + rename) on every stats tick and at shutdown,
/// for file-based collectors. --trace-keep bounds the in-memory ring of
/// recent request traces; --trace-slow-ms keeps only requests slower than
/// the threshold (0 keeps every request, newest win once full).
/// The structured event journal (brownout rung changes, overload
/// rejections, store degrade/heal, wire faults, fault-injection fires) is
/// dumped as JSON — atomically, like the snapshot — to --journal-json=PATH
/// (default: <stats-json>.journal when --stats-json is set) on SIGQUIT
/// and on clean shutdown, so a postmortem always has the incident
/// timeline.
/// --journal-cap=N resizes the journal ring (default 256 events); the
/// sequence numbering is unaffected, so lptsp_stats --since cursors keep
/// working across a resize. --profile-json=PATH dumps the work-attribution
/// profile (per-engine work counters, top-K hot keys, deadline SLO
/// summary — the same JSON lptsp_stats --profile scrapes) atomically on
/// SIGQUIT and on clean shutdown.
///
/// Persistence: --cache-file points at the durable store (created if
/// absent); --state-dir is the directory flavor (uses DIR/lptspd.store,
/// creating DIR). A restarted daemon reloads, re-verifies, and serves its
/// previously solved results without re-running an engine, and resumes the
/// tuner's engine-choice learning where it stopped. --cache-sync adds
/// an fsync per persisted result (default: OS page-cache durability).
///
/// Degradation ladder: --store-degraded-after=K flips the durable store
/// into read-only degraded mode after K consecutive write failures (0
/// disables; serving continues from memory, the store_degraded gauge goes
/// to 1, and a reopen/heal is probed every --store-probe-ms). Overload
/// is decided in one place, the solver's admission: a request admitted
/// with --brownout-heuristic-pending already pending (default half of
/// --max-pending; 0 disables) forces heuristic-only solving until pending
/// falls to half that, and --max-pending rejects, with no hysteresis.
/// Every RejectedOverload carries a retry-after hint of
/// --brownout-retry-after-ms, stretched to the predicted drain time of
/// the pending work.
/// Fault injection for drills: set LPTSP_FAULTS=site:prob:seed[:param],...
/// (sites: store.append store.fsync store.compact_rename net.read_short
/// net.write_short net.disconnect engine.stall).
///
/// Learning loop: the tuner (on by default) pre-trims the exact engine
/// per size bucket from decayed win scores but re-probes it every
/// --learn-reprobe-th skipped race (so a heuristic-heavy persisted state
/// can bias but never freeze it), decays scores every
/// --learn-decay-every races, and re-tunes per-bucket engine effort every
/// --learn-effort-every deadline-bounded races. --no-learn detaches the
/// tuner: every race launches the exact engine at fixed effort, and the
/// learned state already in the store is left as it was.
/// --admission-work-budget=MS admits requests against predicted pending
/// engine work (rejecting when the backlog's predicted cost exceeds MS
/// milliseconds) instead of only counting them;
/// the retry-after hint stretches with the predicted drain time either
/// way. See README "Learning loop".

#include <sys/stat.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "kernels/kernels.hpp"
#include "net/server.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "store/backend.hpp"
#include "util/cli.hpp"
#include "util/fault.hpp"

using namespace lptsp;

namespace {

std::atomic<bool> g_stop{false};
std::atomic<bool> g_dump_journal{false};

void handle_signal(int) { g_stop.store(true); }

/// SIGQUIT asks for an on-demand journal dump without stopping the
/// daemon — the crash-safe half of the postmortem story: the handler
/// only flips a flag, the 200ms main loop does the file IO.
void handle_dump_signal(int) { g_dump_journal.store(true); }

/// Write `payload` to `path` via temp-file + rename so a collector
/// reading the path never sees a torn snapshot.
bool write_snapshot_file(const std::string& path, const std::string& payload) {
  const std::string temp = path + ".tmp";
  std::FILE* file = std::fopen(temp.c_str(), "w");
  if (file == nullptr) return false;
  const bool wrote = std::fwrite(payload.data(), 1, payload.size(), file) == payload.size();
  const bool flushed = std::fclose(file) == 0;
  if (!wrote || !flushed) {
    std::remove(temp.c_str());
    return false;
  }
  return std::rename(temp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);

  BatchSolver::Options solver_options;
  solver_options.portfolio.deadline =
      std::chrono::milliseconds{args.get_int("deadline-ms", 250)};
  solver_options.cache.capacity = static_cast<std::size_t>(args.get_int("cache-capacity", 4096));
  solver_options.use_cache = !args.has("no-cache");
  solver_options.request_workers = static_cast<unsigned>(args.get_int("request-workers", 0));
  solver_options.engine_workers = static_cast<unsigned>(args.get_int("engine-workers", 0));
  solver_options.max_pending_requests = static_cast<std::size_t>(args.get_int("max-pending", 256));
  solver_options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  solver_options.trace_capacity = static_cast<std::size_t>(args.get_int("trace-keep", 64));
  solver_options.trace_threshold = std::chrono::milliseconds{args.get_int("trace-slow-ms", 0)};
  solver_options.tuner.enabled = !args.has("no-learn");
  solver_options.tuner.reprobe_every =
      static_cast<std::uint32_t>(args.get_int("learn-reprobe", 16));
  solver_options.tuner.decay_every =
      static_cast<std::uint32_t>(args.get_int("learn-decay-every", 64));
  solver_options.tuner.effort_update_every =
      static_cast<std::uint32_t>(args.get_int("learn-effort-every", 32));
  solver_options.max_pending_work_ns =
      static_cast<std::uint64_t>(args.get_int("admission-work-budget", 0)) * 1'000'000ULL;
  // Shed the exact engines at half the pending cap; the RejectedOverload
  // at --max-pending stays the last resort.
  solver_options.brownout_heuristic_pending = static_cast<std::size_t>(args.get_int(
      "brownout-heuristic-pending", static_cast<int>(solver_options.max_pending_requests / 2)));
  solver_options.retry_after_ms =
      static_cast<std::uint32_t>(args.get_int("brownout-retry-after-ms", 250));

  std::string store_path = args.get("cache-file", "");
  const std::string state_dir = args.get("state-dir", "");
  solver_options.store_sync_every_put = args.has("cache-sync");
  if (store_path.empty() && !state_dir.empty()) {
    if (::mkdir(state_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "lptspd: cannot create --state-dir %s: %s\n", state_dir.c_str(),
                   std::strerror(errno));
      return 1;
    }
    store_path = state_dir + "/lptspd.store";
  }
  solver_options.store_path = store_path;
  solver_options.store_degraded_after_failures = args.get_int("store-degraded-after", 3);
  solver_options.store_reopen_probe_interval =
      std::chrono::milliseconds{args.get_int("store-probe-ms", 1000)};

  LabelingServer::Options server_options;
  server_options.bind_address = args.get("bind", "127.0.0.1");
  server_options.port = static_cast<std::uint16_t>(args.get_int("port", 4780));
  server_options.max_connections = args.get_int("max-connections", 64);
  server_options.max_inflight_per_connection =
      static_cast<std::size_t>(args.get_int("max-inflight", 64));

  const int stats_every = args.get_int("stats-every", 10);
  const std::string stats_json = args.get("stats-json", "");
  std::string journal_json = args.get("journal-json", "");
  if (journal_json.empty() && !stats_json.empty()) journal_json = stats_json + ".journal";
  const std::string profile_json = args.get("profile-json", "");
  const int journal_cap = args.get_int("journal-cap", -1);
  if (journal_cap >= 0) {
    // Resize before any traffic so no early event is dropped by accident;
    // seq numbering is unaffected, --since cursors survive the resize.
    obs::journal().set_capacity(static_cast<std::size_t>(journal_cap));
  }

  const std::vector<std::string> unknown = args.unused_keys();
  if (!unknown.empty()) {
    for (const std::string& key : unknown) {
      std::fprintf(stderr, "lptspd: unknown flag --%s\n", key.c_str());
    }
    return 2;
  }

  std::unique_ptr<BatchSolver> solver_holder;
  try {
    solver_holder = std::make_unique<BatchSolver>(solver_options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lptspd: %s\n", e.what());
    return 1;
  }
  BatchSolver& solver = *solver_holder;
  if (!store_path.empty()) {
    const SolveCache::WarmStats warm = solver.warm_stats();
    std::printf("lptspd: durable store %s — %llu results loaded, %llu rejected in %.3fs\n",
                store_path.c_str(), static_cast<unsigned long long>(warm.loaded),
                static_cast<unsigned long long>(warm.rejected), warm.seconds);
  }
  LabelingServer server(solver, server_options);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lptspd: %s\n", e.what());
    return 1;
  }
  std::printf("lptspd listening on %s:%u (deadline=%lldms cache=%s workers=%u/%u "
              "max-pending=%zu isa=%s/detected=%s)\n",
              server_options.bind_address.c_str(), server.port(),
              static_cast<long long>(solver_options.portfolio.deadline.count()),
              solver_options.use_cache ? "on" : "off", solver_options.request_workers,
              solver_options.engine_workers, solver_options.max_pending_requests,
              isa_tier_name(kernels::active_isa_tier()),
              isa_tier_name(kernels::detected_isa_tier()));
  std::printf("lptspd: heuristic-only at %zu pending, reject at %zu, retry-after=%ums; "
              "store degraded after %d failures; journal-cap=%zu; faults armed: %s\n",
              solver_options.brownout_heuristic_pending, solver_options.max_pending_requests,
              solver_options.retry_after_ms,
              solver_options.store_degraded_after_failures, obs::journal().capacity(),
              fault::describe().c_str());
  if (solver_options.tuner.enabled) {
    std::printf("lptspd: learning on (reprobe every %u skips, decay every %u races, "
                "effort window %u); admission work budget %llums%s\n",
                solver_options.tuner.reprobe_every, solver_options.tuner.decay_every,
                solver_options.tuner.effort_update_every,
                static_cast<unsigned long long>(solver_options.max_pending_work_ns / 1'000'000),
                solver_options.max_pending_work_ns == 0 ? " (gauge only, count gate active)" : "");
  } else {
    std::printf("lptspd: learning off (--no-learn): exact engine always raced, fixed effort, "
                "count-based admission\n");
  }
  std::fflush(stdout);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGQUIT, handle_dump_signal);

  auto last_stats = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds{200});
    if (g_dump_journal.exchange(false)) {
      if (!journal_json.empty()) {
        if (write_snapshot_file(journal_json, obs::journal().dump_json())) {
          std::printf("lptspd: journal dumped to %s (%llu events emitted)\n", journal_json.c_str(),
                      static_cast<unsigned long long>(obs::journal().emitted()));
          std::fflush(stdout);
        } else {
          std::fprintf(stderr, "lptspd: cannot write --journal-json %s: %s\n", journal_json.c_str(),
                       std::strerror(errno));
        }
      }
      if (!profile_json.empty()) {
        if (write_snapshot_file(profile_json, solver.profile_json())) {
          std::printf("lptspd: profile dumped to %s\n", profile_json.c_str());
          std::fflush(stdout);
        } else {
          std::fprintf(stderr, "lptspd: cannot write --profile-json %s: %s\n", profile_json.c_str(),
                       std::strerror(errno));
        }
      }
    }
    if (stats_every > 0 &&
        std::chrono::steady_clock::now() - last_stats >= std::chrono::seconds{stats_every}) {
      last_stats = std::chrono::steady_clock::now();
      // One registry snapshot feeds both consumers: the human-readable
      // stats line and the machine-readable JSON file.
      const obs::MetricsSnapshot snapshot = solver.metrics_registry().snapshot();
      std::printf("[lptspd] isa=%s %s\n", isa_tier_name(kernels::active_isa_tier()),
                  snapshot.to_logline().c_str());
      std::fflush(stdout);
      if (!stats_json.empty() && !write_snapshot_file(stats_json, snapshot.to_json())) {
        std::fprintf(stderr, "lptspd: cannot write --stats-json %s: %s\n", stats_json.c_str(),
                     std::strerror(errno));
      }
      // Piggyback a tuner checkpoint on the stats tick so a crash loses
      // at most one interval of engine-choice learning.
      solver.checkpoint_tuner();
    }
  }

  std::printf("lptspd: shutting down\n");
  server.stop();
  // Final snapshots after the server stops, so the files reflect every
  // request that was served. The solver's destructor drains its requests
  // and then checkpoints the tuner.
  if (!stats_json.empty()) {
    write_snapshot_file(stats_json, solver.metrics_registry().snapshot().to_json());
  }
  if (!journal_json.empty()) {
    write_snapshot_file(journal_json, obs::journal().dump_json());
  }
  if (!profile_json.empty()) {
    write_snapshot_file(profile_json, solver.profile_json());
  }
  return 0;
}
