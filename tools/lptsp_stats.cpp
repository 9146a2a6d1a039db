/// lptsp_stats — scrape a running lptspd's metrics snapshot.
///
/// Connects over the same wire protocol the solve clients use, optionally
/// drives a small solve workload first (so a freshly started daemon has
/// nonzero counters to show), then sends a StatsRequest and prints the
/// server-rendered payload.
///
///   lptsp_stats [--host=127.0.0.1] [--port=4780]
///               [--json | --prom | --traces | --journal | --profile]
///               [--since=SEQ]                     (--journal: events after SEQ)
///               [--drive=N] [--seed=S]            (send N requests first)
///               [--client-traces=PATH]            (dump the driver's trace ring)
///               [--watch[=SECONDS]] [--watch-count=N]
///               [--timeout-ms=5000]               (connect + scrape budget)
///
/// Driven requests carry trace context (the server adopts the client's
/// trace id, so the server's --traces ring and the client ring written by
/// --client-traces hold one joined trace per request). --journal scrapes
/// the structured event journal; --since=SEQ fetches only events
/// with seq > SEQ, so a poller can resume from its last cursor instead of
/// re-reading the ring. --profile scrapes the work-attribution profile
/// (per-engine work counters and rates, top-K hot canonical keys, deadline
/// SLO summary, and the "tuner" block — per-bucket decayed win scores,
/// trim state, effort percent, and predicted request cost) as JSON.
/// --watch turns the tool into a live rate view: it scrapes the
/// Prometheus exposition every SECONDS (default 2), diffs consecutive
/// snapshots with SnapshotDelta, and redraws a top-style screen of
/// per-second rates and interval percentiles; --watch-count=N exits 0
/// after N redraws (0 = until killed).
///
/// Exit codes: 0 scrape succeeded, 1 transport/protocol failure, 2 bad
/// usage. A server speaking another wire version refuses the handshake
/// with a bad-version Error, reported here as a refusal. A dead, absent,
/// or wedged daemon produces a one-line diagnostic and exit 1 within
/// --timeout-ms — never a hang (0 disables the timeout).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/operations.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "obs/delta.hpp"
#include "obs/metrics.hpp"
#include "service/request.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace lptsp;

/// Small L(2,1) instances mirroring the serving benchmark's repeat-heavy
/// pattern: a few base graphs, most requests isomorphic relabelings.
std::vector<SolveRequest> make_drive_workload(int count, std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  std::vector<Graph> bases;
  for (int b = 0; b < 3; ++b) {
    bases.push_back(random_with_diameter_at_most(24, 2, 0.2, rng));
  }
  std::vector<SolveRequest> requests;
  requests.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    SolveRequest request;
    if (rng.bernoulli(0.7)) {
      const Graph& base = bases[rng.uniform_index(bases.size())];
      request.graph = relabel(base, rng.permutation(base.n()));
    } else {
      request.graph = random_with_diameter_at_most(24, 2, 0.2, rng);
    }
    request.p = PVec::L21();
    request.deadline = std::chrono::milliseconds{200};
    request.id = static_cast<std::uint64_t>(i + 1);
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Write `payload` to `path` ("-" = stdout). Plain write is fine here:
/// the file is produced once at exit, not concurrently scraped.
bool write_text_file(const std::string& path, const std::string& payload) {
  if (path == "-") {
    std::fputs(payload.c_str(), stdout);
    if (!payload.empty() && payload.back() != '\n') std::fputc('\n', stdout);
    return true;
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool wrote = std::fwrite(payload.data(), 1, payload.size(), file) == payload.size();
  return (std::fclose(file) == 0) && wrote;
}

/// The --watch loop: scrape the Prometheus exposition every `interval`
/// seconds, diff consecutive snapshots, redraw. Returns the exit code.
int run_watch(LabelingClient& client, double interval_s, int max_redraws) {
  std::optional<obs::MetricsSnapshot> previous;
  int redraws = 0;
  while (true) {
    const std::string exposition = client.stats(StatsFormat::Prometheus);
    std::optional<obs::MetricsSnapshot> current = obs::parse_prometheus(exposition);
    if (!current) {
      std::fprintf(stderr, "lptsp_stats: --watch could not parse the Prometheus scrape\n");
      return 1;
    }
    if (previous) {
      const obs::SnapshotDelta delta = obs::SnapshotDelta::between(*previous, *current);
      // Home the cursor and clear below (top-style redraw) rather than
      // clearing the whole screen, so the view never visibly flickers.
      std::fputs("\x1b[H\x1b[J", stdout);
      std::printf("lptsp_stats --watch: %.3gs interval\n\n%s", interval_s,
                  delta.to_text().c_str());
      std::fflush(stdout);
      if (max_redraws > 0 && ++redraws >= max_redraws) return 0;
    }
    previous = std::move(current);
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
  }
}

}  // namespace

int main(int argc, char** argv) {
  lptsp::CliArgs args(argc, argv);
  const std::string host = args.get("host", "127.0.0.1");
  const int port = args.get_int("port", 4780);
  const int drive = args.get_int("drive", 0);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int timeout_ms = args.get_int("timeout-ms", 5000);
  const std::string client_traces = args.get("client-traces", "");
  const bool watch = args.has("watch");
  const double watch_interval = args.get_double("watch", 2.0);
  const int watch_count = args.get_int("watch-count", 0);

  StatsFormat format = StatsFormat::Text;
  int format_flags = 0;
  if (args.has("json")) {
    format = StatsFormat::Json;
    ++format_flags;
  }
  if (args.has("prom")) {
    format = StatsFormat::Prometheus;
    ++format_flags;
  }
  if (args.has("traces")) {
    format = StatsFormat::Traces;
    ++format_flags;
  }
  if (args.has("journal")) {
    format = StatsFormat::Journal;
    ++format_flags;
  }
  if (args.has("profile")) {
    format = StatsFormat::Profile;
    ++format_flags;
  }
  if (format_flags > 1) {
    std::fprintf(stderr,
                 "lptsp_stats: pick at most one of --json / --prom / --traces / --journal / "
                 "--profile\n");
    return 2;
  }
  const int since_raw = args.get_int("since", 0);
  if (since_raw != 0 && format != StatsFormat::Journal) {
    std::fprintf(stderr, "lptsp_stats: --since only applies to --journal\n");
    return 2;
  }
  if (since_raw < 0) {
    std::fprintf(stderr, "lptsp_stats: --since must be >= 0\n");
    return 2;
  }
  const auto since = static_cast<std::uint64_t>(since_raw);
  if (watch && format_flags > 0) {
    std::fprintf(stderr, "lptsp_stats: --watch scrapes Prometheus; drop the format flag\n");
    return 2;
  }
  if (watch && !(watch_interval > 0.0)) {
    std::fprintf(stderr, "lptsp_stats: --watch interval must be positive\n");
    return 2;
  }
  const std::vector<std::string> unused = args.unused_keys();
  if (!unused.empty()) {
    std::fprintf(stderr, "lptsp_stats: unknown flag --%s\n", unused.front().c_str());
    std::fprintf(stderr,
                 "usage: lptsp_stats [--host=H] [--port=P] "
                 "[--json|--prom|--traces|--journal|--profile] [--since=SEQ] "
                 "[--drive=N] [--seed=S] [--client-traces=PATH] [--watch[=S]] [--watch-count=N] "
                 "[--timeout-ms=T]\n");
    return 2;
  }

  try {
    ClientOptions client_options;
    client_options.connect_timeout = std::chrono::milliseconds{timeout_ms};
    client_options.request_timeout = std::chrono::milliseconds{timeout_ms};
    // Driven requests carry trace context so the server records the same
    // trace ids this client's ring holds — one joined trace per request.
    client_options.trace = drive > 0;
    client_options.trace_capacity = drive > 0 ? static_cast<std::size_t>(drive) : 64;
    lptsp::LabelingClient client(client_options);
    client.connect(host, static_cast<std::uint16_t>(port));

    if (drive > 0) {
      const std::vector<SolveRequest> workload = make_drive_workload(drive, seed);
      int ok = 0;
      for (const SolveRequest& request : workload) {
        if (client.solve_retry(request).ok()) ++ok;
      }
      std::fprintf(stderr, "lptsp_stats: drove %d requests (%d ok, wire v%u) against %s:%d\n",
                   drive, ok, static_cast<unsigned>(kWireVersion), host.c_str(), port);
      if (!client_traces.empty() &&
          !write_text_file(client_traces, client.traces().dump_json())) {
        std::fprintf(stderr, "lptsp_stats: cannot write --client-traces %s\n",
                     client_traces.c_str());
        return 1;
      }
    }

    if (watch) return run_watch(client, watch_interval, watch_count);

    const std::string payload = client.stats(format, since);
    std::fputs(payload.c_str(), stdout);
    if (!payload.empty() && payload.back() != '\n') std::fputc('\n', stdout);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "lptsp_stats: %s\n", error.what());
    return 1;
  }
}
