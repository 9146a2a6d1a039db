#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/operations.hpp"
#include "service/batch_solver.hpp"
#include "store/backend.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace lptsp {
namespace {

std::string temp_store(const std::string& name) {
  return ::testing::TempDir() + "lptsp_" + name + "_" + std::to_string(::getpid()) + ".store";
}

std::vector<Graph> make_graphs(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Graph> graphs;
  graphs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    graphs.push_back(random_with_diameter_at_most(12, 2, 0.3, rng));
  }
  return graphs;
}

SolveRequest request_for(const Graph& graph) {
  SolveRequest request;
  request.graph = graph;
  request.p = PVec::L21();
  return request;
}

BatchSolver::Options durable_options(const std::string& path) {
  BatchSolver::Options options;
  options.store_path = path;
  options.request_workers = 2;
  options.engine_workers = 2;
  return options;
}

/// Serve `count` fresh graphs through a durable solver and return what its
/// tuner holds afterwards (the destructor then checkpoints it).
TunerState serve(const std::string& path, int count, std::uint64_t seed, bool learn = true) {
  BatchSolver::Options options = durable_options(path);
  options.tuner.enabled = learn;
  BatchSolver solver(options);
  for (const Graph& graph : make_graphs(count, seed)) {
    EXPECT_TRUE(solver.solve_one(request_for(graph)).ok());
  }
  return solver.tuner().snapshot();
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<char>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// The acceptance scenario: a restarted solver serves everything the
/// previous process solved straight from disk — zero engine runs — and
/// reports the hits as cache hits, even when the graphs arrive relabeled.
TEST(DurableService, RestartServesFromDiskWithZeroResolves) {
  const std::string path = temp_store("restart");
  std::remove(path.c_str());
  const std::vector<Graph> graphs = make_graphs(6, 11);
  {
    BatchSolver solver(durable_options(path));
    EXPECT_EQ(solver.warm_stats().loaded, 0u);
    for (const Graph& graph : graphs) {
      const SolveResponse response = solver.solve_one(request_for(graph));
      ASSERT_TRUE(response.ok()) << response.message;
    }
    EXPECT_GT(solver.engine_solves(), 0u);
  }
  {
    BatchSolver solver(durable_options(path));
    EXPECT_EQ(solver.warm_stats().loaded, 6u);
    EXPECT_EQ(solver.warm_stats().rejected, 0u);
    Rng rng(99);
    for (const Graph& graph : graphs) {
      // A relabeled copy must still hit: the durable key is canonical.
      const SolveResponse response =
          solver.solve_one(request_for(relabel(graph, rng.permutation(graph.n()))));
      ASSERT_TRUE(response.ok()) << response.message;
      EXPECT_EQ(response.source, ResponseSource::ResultCache);
    }
    EXPECT_EQ(solver.engine_solves(), 0u);
    EXPECT_EQ(solver.cache().stats().persisted_hits, 6u);
  }
  std::remove(path.c_str());
}

TEST(DurableService, TruncatedStoreReopensAndOnlyDamagedEntriesResolve) {
  const std::string path = temp_store("truncated");
  std::remove(path.c_str());
  const std::vector<Graph> graphs = make_graphs(6, 23);
  {
    BatchSolver solver(durable_options(path));
    for (const Graph& graph : graphs) {
      ASSERT_TRUE(solver.solve_one(request_for(graph)).ok());
    }
  }
  // Kill two thirds of the file mid-record: everything after the cut is a
  // damaged tail the store must repair away without losing the prefix.
  std::vector<char> file = read_file(path);
  ASSERT_GT(file.size(), 64u);
  file.resize(file.size() * 2 / 3);
  write_file(path, file);

  BatchSolver solver(durable_options(path));
  const std::uint64_t loaded = solver.warm_stats().loaded;
  EXPECT_GE(loaded, 1u);
  EXPECT_LT(loaded, 6u);
  for (const Graph& graph : graphs) {
    ASSERT_TRUE(solver.solve_one(request_for(graph)).ok());
  }
  // Exactly the lost entries re-solved; the surviving prefix served.
  EXPECT_EQ(solver.engine_solves(), 6u - loaded);
  std::remove(path.c_str());
}

TEST(DurableService, BitFlippedRecordDropsOnlyThatEntry) {
  const std::string path = temp_store("bitflip");
  std::remove(path.c_str());
  const std::vector<Graph> graphs = make_graphs(5, 37);
  {
    BatchSolver solver(durable_options(path));
    for (const Graph& graph : graphs) {
      ASSERT_TRUE(solver.solve_one(request_for(graph)).ok());
    }
  }
  // Flip one byte inside the FIRST record's payload (the log header is 16
  // bytes, each record frame 8 — offset 40 is safely inside record 1).
  std::vector<char> file = read_file(path);
  ASSERT_GT(file.size(), 64u);
  file[40] = static_cast<char>(file[40] ^ 0x10);
  write_file(path, file);

  BatchSolver solver(durable_options(path));
  EXPECT_EQ(solver.warm_stats().loaded, 4u);  // CRC catches the flip
  for (const Graph& graph : graphs) {
    ASSERT_TRUE(solver.solve_one(request_for(graph)).ok());
  }
  EXPECT_EQ(solver.engine_solves(), 1u);
  std::remove(path.c_str());
}

TEST(DurableService, TunerStatePersistsAcrossRestart) {
  const std::string path = temp_store("tuner");
  std::remove(path.c_str());
  const TunerState before = serve(path, 8, 53);
  ASSERT_NE(before, TunerState{}) << "expected at least one contested race";
  for (const TunerBucketState& bucket : before) {
    // Under restore()'s cap (4 x skip_score), so every score must come back as is.
    ASSERT_LT(std::max(bucket.exact_score, bucket.heuristic_score), 32.0);
  }
  EXPECT_EQ(serve(path, 0, 0), before);
  std::remove(path.c_str());
}

/// A run with learning off must not overwrite what an earlier run learned:
/// its tuner holds defaults, and checkpointing them would erase the record.
TEST(DurableService, NoLearnRunKeepsTheLearnedTunerState) {
  const std::string path = temp_store("nolearn");
  std::remove(path.c_str());
  const TunerState learned = serve(path, 8, 53);
  ASSERT_NE(learned, TunerState{});
  EXPECT_EQ(serve(path, 8, 54, /*learn=*/false), TunerState{});
  EXPECT_EQ(serve(path, 0, 0), learned);
  std::remove(path.c_str());
}

/// Stores written before the tuner state was persisted hold a version-1
/// "win-table" record of per-bucket engine win counts. It is not read: the
/// service starts with a fresh tuner and serves as usual.
TEST(DurableService, LegacyWinCountRecordIsIgnored) {
  const std::string path = temp_store("oldwins");
  std::remove(path.c_str());
  {
    PersistentBackend::Options options;
    options.path = path;
    std::string error;
    auto backend = PersistentBackend::open(options, error);
    ASSERT_NE(backend, nullptr) << error;
    // Version 1, 32 buckets x 3 engine slots of u64 win counts, with 200
    // heuristic wins in the n = 12 bucket.
    std::string record(1 + 4 + 4 + 32 * 3 * 8, '\0');
    record[0] = 1;
    record[1] = 32;
    record[5] = 3;
    record[9 + (4 * 3 + 2) * 8] = static_cast<char>(200);
    ASSERT_TRUE(backend->kv().put(PersistentBackend::kMetaNamespace, "win-table", record));
  }
  BatchSolver solver(durable_options(path));
  EXPECT_EQ(solver.tuner().snapshot(), TunerState{});
  ASSERT_TRUE(solver.solve_one(request_for(make_graphs(1, 61)[0])).ok());
  EXPECT_EQ(solver.tuner().pretrim_skips(), 0u);
  std::remove(path.c_str());
}

/// Checkpoints read the tuner under its mutex while engine workers report
/// races into it; the sanitizer legs run this for data races.
TEST(DurableService, CheckpointTunerWhileRequestsRace) {
  const std::string path = temp_store("checkpoint_race");
  std::remove(path.c_str());
  BatchSolver::Options options = durable_options(path);
  options.use_cache = false;  // every request races
  BatchSolver solver(options);
  // Declared after the solver, so it stops and joins first on every path.
  std::jthread checkpointer([&solver](const std::stop_token& stop) {
    while (!stop.stop_requested()) {
      solver.checkpoint_tuner();
      std::this_thread::sleep_for(std::chrono::microseconds{200});
    }
  });
  std::vector<std::future<SolveResponse>> responses;
  for (const Graph& graph : make_graphs(12, 67)) {
    responses.push_back(solver.submit(request_for(graph)));
  }
  for (auto& response : responses) EXPECT_TRUE(response.get().ok());
  checkpointer.request_stop();
  checkpointer.join();

  solver.checkpoint_tuner();
  EXPECT_EQ(solver.store()->load_tuner_state(), solver.tuner().snapshot());
  std::remove(path.c_str());
}

std::uint64_t store_records(const std::string& path) {
  PersistentBackend::Options options;
  options.path = path;
  std::string error;
  const auto backend = PersistentBackend::open(options, error);
  EXPECT_NE(backend, nullptr) << error;
  return backend == nullptr ? 0 : backend->kv().stats().total_records;
}

/// A checkpoint appends a tuner-state record only when the tuner learned
/// something since the last one; shutdown adds none after that.
TEST(DurableService, CheckpointAppendsOnlyWhenTheTunerChanged) {
  const std::string path = temp_store("checkpoint_dedup");
  std::remove(path.c_str());
  BatchSolver::Options options = durable_options(path);
  options.use_cache = false;  // no result records, and every request races
  {
    BatchSolver solver(options);
    const auto records = [&solver] { return solver.store()->kv().stats().total_records; };
    solver.checkpoint_tuner();
    solver.checkpoint_tuner();
    EXPECT_EQ(records(), 1u);
    ASSERT_TRUE(solver.solve_one(request_for(make_graphs(1, 71)[0])).ok());
    solver.checkpoint_tuner();
    EXPECT_EQ(records(), 2u);
  }
  EXPECT_EQ(store_records(path), 2u);
  std::remove(path.c_str());
}

/// Restarts that serve nothing leave the one record the first run wrote.
TEST(DurableService, IdleRestartsLeaveOneTunerRecord) {
  const std::string path = temp_store("idle_restarts");
  std::remove(path.c_str());
  for (int cycle = 0; cycle < 2; ++cycle) BatchSolver solver(durable_options(path));
  EXPECT_EQ(store_records(path), 1u);
  std::remove(path.c_str());
}

/// A checkpoint the degraded store refused is not remembered as written:
/// once the store heals, the next checkpoint writes the state it missed.
TEST(DurableService, RefusedCheckpointIsRetriedAfterTheStoreHeals) {
  const std::string path = temp_store("checkpoint_retry");
  std::remove(path.c_str());
  BatchSolver::Options options = durable_options(path);
  options.use_cache = false;
  options.store_degraded_after_failures = 1;
  options.store_reopen_probe_interval = std::chrono::hours(24 * 365 * 100);  // heal by hand only
  BatchSolver solver(options);
  fault::arm(FaultSite::StoreAppend, 1.0, 1, /*max_fires=*/1);
  solver.checkpoint_tuner();  // the append fails and the store turns read-only
  fault::disarm_all();
  ASSERT_TRUE(solver.store()->degraded());
  ASSERT_TRUE(solver.solve_one(request_for(make_graphs(1, 73)[0])).ok());
  solver.checkpoint_tuner();  // refused while degraded
  EXPECT_NE(solver.store()->load_tuner_state(), solver.tuner().snapshot());
  ASSERT_TRUE(solver.store()->probe_reopen());
  solver.checkpoint_tuner();
  EXPECT_EQ(solver.store()->load_tuner_state(), solver.tuner().snapshot());
  std::remove(path.c_str());
}

TEST(TunerStateCodec, RoundTripsAndRejectsEachMalformedRecord) {
  TunerState state;
  state[4] = {3.0, 0.25, 175};
  std::vector<std::uint8_t> good;
  encode_tuner_state(good, state);
  TunerState decoded;
  std::string error;
  ASSERT_TRUE(decode_tuner_state(good.data(), good.size(), decoded, error)) << error;
  EXPECT_EQ(decoded, state);

  const auto rejects = [&](const std::vector<std::uint8_t>& bytes, const std::string& why) {
    EXPECT_FALSE(decode_tuner_state(bytes.data(), bytes.size(), decoded, error)) << why;
    EXPECT_NE(error.find(why), std::string::npos) << error;
  };
  std::vector<std::uint8_t> bad = good;
  bad[0] = 2;
  rejects(bad, "bad version");
  bad = good;
  bad[1] = 31;  // little-endian u32 bucket count right after the version
  rejects(bad, "wrong bucket count");
  for (std::size_t size = 1; size < good.size(); ++size) {
    rejects({good.begin(), good.begin() + static_cast<std::ptrdiff_t>(size)}, "truncated");
  }
  bad = good;
  bad.push_back(0);
  rejects(bad, "trailing bytes");
  for (const double score : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), -1.0}) {
    TunerState poisoned;
    poisoned[7].heuristic_score = score;
    bad.clear();
    encode_tuner_state(bad, poisoned);
    rejects(bad, "score");
  }
}

/// Records whose bytes are intact (CRC passes) but whose contents are
/// wrong — tampering, a buggy foreign writer — are caught by the
/// re-verification pass and never served.
TEST(DurableService, TamperedRecordsAreRejectedByVerifyOnLoad) {
  const std::string path = temp_store("tampered");
  std::remove(path.c_str());
  Graph triangle(3);
  triangle.add_edge(0, 1);
  triangle.add_edge(1, 2);
  triangle.add_edge(0, 2);
  const PVec p = PVec::L21();
  {
    PersistentBackend::Options options;
    options.path = path;
    std::string error;
    auto backend = PersistentBackend::open(options, error);
    ASSERT_NE(backend, nullptr) << error;
    // Valid: K3 under L(2,1) wants pairwise label gaps >= 2.
    backend->put_result("good", triangle, p,
                        ResultEntry{{0, 2, 4}, 4, true, Engine::HeldKarp, 0, false});
    // Invalid labels: every pair violates the distance-1 constraint.
    backend->put_result("bad-labels", triangle, p,
                        ResultEntry{{0, 0, 0}, 0, true, Engine::HeldKarp, 0, false});
    // Valid labels but a lying span.
    backend->put_result("bad-span", triangle, p,
                        ResultEntry{{0, 2, 4}, 7, true, Engine::HeldKarp, 0, false});
  }
  PersistentBackend::Options options;
  options.path = path;
  std::string error;
  std::shared_ptr<PersistentBackend> backend = PersistentBackend::open(options, error);
  ASSERT_NE(backend, nullptr) << error;
  SolveCache cache;
  cache.attach_backend(backend);
  const SolveCache::WarmStats warm = cache.warm_from_disk();
  EXPECT_EQ(warm.loaded, 1u);
  EXPECT_EQ(warm.rejected, 2u);
  EXPECT_NE(cache.find_result("good"), nullptr);
  EXPECT_EQ(cache.find_result("bad-labels"), nullptr);
  EXPECT_EQ(cache.find_result("bad-span"), nullptr);
  std::remove(path.c_str());
}

/// The store is monotone-improving per key even when the in-memory cache
/// can no longer vouch for the better entry (it was evicted): a later,
/// worse write must not overwrite a better disk record.
TEST(DurableService, WorseLaterWriteCannotDegradeABetterStoredRecord) {
  const std::string path = temp_store("monotone");
  std::remove(path.c_str());
  Graph triangle(3);
  triangle.add_edge(0, 1);
  triangle.add_edge(1, 2);
  triangle.add_edge(0, 2);
  const PVec p = PVec::L21();
  {
    PersistentBackend::Options options;
    options.path = path;
    std::string error;
    auto backend = PersistentBackend::open(options, error);
    ASSERT_NE(backend, nullptr) << error;
    backend->put_result("k", triangle, p,
                        ResultEntry{{0, 2, 4}, 4, true, Engine::HeldKarp, 0, false});
    // Strictly worse (span 6, not optimal) but a valid labeling: the kind
    // of entry a short-deadline re-solve produces after an LRU eviction.
    backend->put_result("k", triangle, p,
                        ResultEntry{{0, 3, 6}, 6, false, Engine::ChainedLK, 40, false});
  }
  PersistentBackend::Options options;
  options.path = path;
  std::string error;
  std::shared_ptr<PersistentBackend> backend = PersistentBackend::open(options, error);
  ASSERT_NE(backend, nullptr) << error;
  SolveCache cache;
  cache.attach_backend(backend);
  EXPECT_EQ(cache.warm_from_disk().loaded, 1u);
  const auto entry = cache.find_result("k");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->span, 4);
  EXPECT_TRUE(entry->optimal);
  std::remove(path.c_str());
}

/// A CRC-valid record declaring a huge graph must be rejected at decode
/// time — reopening a store can never cost an O(n^2) verification matrix
/// beyond the documented bound, let alone OOM the restarting service.
TEST(DurableService, OversizedRecordIsRejectedNotFatal) {
  const std::string path = temp_store("oversized");
  std::remove(path.c_str());
  {
    PersistentBackend::Options options;
    options.path = path;
    std::string error;
    auto backend = PersistentBackend::open(options, error);
    ASSERT_NE(backend, nullptr) << error;
    const int n = kMaxPersistedGraphVertices + 1;
    ResultEntry entry;
    entry.labels.assign(static_cast<std::size_t>(n), 0);
    // put_result refuses to write it in the first place...
    backend->put_result("huge", Graph(n), PVec::L21(), entry);
    EXPECT_EQ(backend->kv().size(PersistentBackend::kResultsNamespace), 0u);
    // ...and a record smuggled past that gate (foreign writer) is
    // rejected by the decoder on reload, before any allocation.
    std::vector<std::uint8_t> encoded;
    encode_persisted_result(encoded, Graph(n), PVec::L21().entries(), entry);
    ASSERT_TRUE(backend->kv().put(
        PersistentBackend::kResultsNamespace, "huge",
        std::string(reinterpret_cast<const char*>(encoded.data()), encoded.size())));
  }
  PersistentBackend::Options options;
  options.path = path;
  std::string error;
  std::shared_ptr<PersistentBackend> backend = PersistentBackend::open(options, error);
  ASSERT_NE(backend, nullptr) << error;
  SolveCache cache;
  cache.attach_backend(backend);
  const SolveCache::WarmStats warm = cache.warm_from_disk();
  EXPECT_EQ(warm.loaded, 0u);
  EXPECT_EQ(warm.rejected, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lptsp
