#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "store/kv.hpp"
#include "util/fault.hpp"

namespace lptsp {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "lptsp_" + name + ".store";
}

KvStore::Options options_for(const std::string& path) {
  KvStore::Options options;
  options.path = path;
  return options;
}

std::unique_ptr<KvStore> must_open(const KvStore::Options& options) {
  std::string error;
  auto store = KvStore::open(options, error);
  EXPECT_NE(store, nullptr) << error;
  return store;
}

TEST(KvStore, PutGetOverwriteEraseSurviveReopen) {
  const std::string path = temp_path("basic");
  std::remove(path.c_str());
  {
    auto store = must_open(options_for(path));
    EXPECT_TRUE(store->put(0, "alpha", "1"));
    EXPECT_TRUE(store->put(0, "beta", "2"));
    EXPECT_TRUE(store->put(0, "alpha", "one"));  // overwrite
    EXPECT_TRUE(store->put(1, "gamma", "3"));
    EXPECT_TRUE(store->erase(0, "beta"));
    EXPECT_TRUE(store->erase(0, "never-existed"));  // no-op, still true
    EXPECT_EQ(store->get(0, "alpha"), "one");
    EXPECT_EQ(store->get(0, "beta"), std::nullopt);
  }
  auto store = must_open(options_for(path));
  EXPECT_EQ(store->get(0, "alpha"), "one");
  EXPECT_EQ(store->get(0, "beta"), std::nullopt);
  EXPECT_EQ(store->get(1, "gamma"), "3");
  EXPECT_EQ(store->size(0), 1u);
  EXPECT_EQ(store->size(1), 1u);
  const KvStore::Stats stats = store->stats();
  EXPECT_EQ(stats.live_records, 2u);
  // 4 puts + 1 tombstone replayed (the no-op erase wrote nothing).
  EXPECT_EQ(stats.total_records, 5u);
  EXPECT_EQ(stats.dropped_records, 0u);
  std::remove(path.c_str());
}

TEST(KvStore, NamespacesAreIndependentKeySpaces) {
  const std::string path = temp_path("namespaces");
  std::remove(path.c_str());
  auto store = must_open(options_for(path));
  EXPECT_TRUE(store->put(0, "key", "results-value"));
  EXPECT_TRUE(store->put(1, "key", "meta-value"));
  EXPECT_EQ(store->get(0, "key"), "results-value");
  EXPECT_EQ(store->get(1, "key"), "meta-value");
  EXPECT_TRUE(store->erase(0, "key"));
  EXPECT_EQ(store->get(0, "key"), std::nullopt);
  EXPECT_EQ(store->get(1, "key"), "meta-value");
  // Out-of-range namespaces are rejected, not UB.
  EXPECT_FALSE(store->put(KvStore::kNamespaces, "key", "x"));
  EXPECT_EQ(store->get(KvStore::kNamespaces, "key"), std::nullopt);
  std::remove(path.c_str());
}

TEST(KvStore, CompactionShrinksTheFileAndPreservesEveryLiveKey) {
  const std::string path = temp_path("compaction");
  std::remove(path.c_str());
  KvStore::Options options = options_for(path);
  options.compact_min_records = 32;
  options.compact_garbage_ratio = 0.5;
  {
    auto store = must_open(options);
    // Churn one hot key far past the garbage threshold while a few cold
    // keys sit alongside it.
    for (int i = 0; i < 8; ++i) {
      store->put(0, "cold-" + std::to_string(i), std::string(64, 'c'));
    }
    for (int i = 0; i < 500; ++i) {
      store->put(0, "hot", "value-" + std::to_string(i));
    }
    const KvStore::Stats stats = store->stats();
    EXPECT_GE(stats.compactions, 1u);
    EXPECT_EQ(stats.live_records, 9u);
    // Post-compaction the log holds (close to) only live records.
    EXPECT_LT(stats.total_records, 80u);
    EXPECT_EQ(store->get(0, "hot"), "value-499");
  }
  auto store = must_open(options);
  EXPECT_EQ(store->size(0), 9u);
  EXPECT_EQ(store->get(0, "hot"), "value-499");
  EXPECT_EQ(store->get(0, "cold-7"), std::string(64, 'c'));
  std::remove(path.c_str());
}

TEST(KvStore, ExplicitCompactAndSyncWork) {
  const std::string path = temp_path("explicit");
  std::remove(path.c_str());
  auto store = must_open(options_for(path));
  for (int i = 0; i < 50; ++i) store->put(0, "k", std::to_string(i));
  const std::uint64_t before = store->stats().file_bytes;
  EXPECT_TRUE(store->compact());
  EXPECT_TRUE(store->sync());
  const KvStore::Stats stats = store->stats();
  EXPECT_LT(stats.file_bytes, before);
  EXPECT_EQ(stats.total_records, 1u);
  EXPECT_EQ(store->get(0, "k"), "49");
  std::remove(path.c_str());
}

/// Returns true when `path` exists on disk.
bool file_exists(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  std::fclose(file);
  return true;
}

/// Compaction "crashes" inside the rename window: the fully written
/// .compact sibling is left on disk (as a killed process would leave it)
/// and the old log stays live. Nothing is lost, the orphan is reclaimed on
/// reopen, and a later compaction succeeds.
TEST(KvStore, CompactionCrashInRenameWindowLosesNothing) {
  const std::string path = temp_path("compact_crash");
  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());
  fault::disarm_all();
  {
    auto store = must_open(options_for(path));
    for (int i = 0; i < 40; ++i) {
      // += rather than "k" + rvalue: GCC 12 flags the latter with a
      // -Wrestrict false positive (PR105651).
      std::string key = "k";
      key += std::to_string(i % 4);
      store->put(0, key, std::to_string(i));
    }

    fault::arm(FaultSite::StoreCompactRename, 1.0, 7, /*max_fires=*/1);
    EXPECT_FALSE(store->compact());
    fault::disarm_all();
    // The sibling survives the simulated crash; the live state is intact
    // through the in-memory index AND through the still-valid old log.
    EXPECT_TRUE(file_exists(path + ".compact"));
    EXPECT_EQ(store->get(0, "k3"), "39");
    EXPECT_EQ(store->size(0), 4u);
    EXPECT_EQ(store->stats().compactions, 0u);
    // The store keeps accepting writes after the failed compaction.
    EXPECT_TRUE(store->put(0, "post-crash", "alive"));
  }
  // Reopen: pre-compaction state is fully served, no record lost, and the
  // leftover sibling is reclaimed.
  auto store = must_open(options_for(path));
  EXPECT_FALSE(file_exists(path + ".compact"));
  EXPECT_EQ(store->size(0), 5u);
  EXPECT_EQ(store->get(0, "k0"), "36");
  EXPECT_EQ(store->get(0, "k3"), "39");
  EXPECT_EQ(store->get(0, "post-crash"), "alive");
  // With the fault gone, compaction completes and still loses nothing.
  EXPECT_TRUE(store->compact());
  EXPECT_EQ(store->size(0), 5u);
  EXPECT_EQ(store->get(0, "post-crash"), "alive");
  EXPECT_EQ(store->stats().compactions, 1u);
  std::remove(path.c_str());
}

/// Compaction interrupted by an injected fsync failure on the fresh log:
/// the abandon path removes the sibling, the old log stays authoritative,
/// and reopen serves the pre-compaction state.
TEST(KvStore, CompactionFsyncFailureAbandonsCleanly) {
  const std::string path = temp_path("compact_fsync");
  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());
  fault::disarm_all();
  {
    auto store = must_open(options_for(path));
    for (int i = 0; i < 30; ++i) store->put(0, "key", std::to_string(i));

    fault::arm(FaultSite::StoreFsync, 1.0, 11, /*max_fires=*/1);
    EXPECT_FALSE(store->compact());
    fault::disarm_all();
    // Abandoned, not crashed: no orphan left beside the log.
    EXPECT_FALSE(file_exists(path + ".compact"));
    EXPECT_EQ(store->get(0, "key"), "29");
  }
  auto store = must_open(options_for(path));
  EXPECT_EQ(store->get(0, "key"), "29");
  EXPECT_EQ(store->size(0), 1u);
  EXPECT_TRUE(store->compact());
  EXPECT_EQ(store->get(0, "key"), "29");
  std::remove(path.c_str());
}

TEST(KvStore, SyncEveryPutRoundTrips) {
  const std::string path = temp_path("synced");
  std::remove(path.c_str());
  KvStore::Options options = options_for(path);
  options.sync_every_put = true;
  {
    auto store = must_open(options);
    EXPECT_TRUE(store->put(0, "durable", "yes"));
  }
  auto store = must_open(options);
  EXPECT_EQ(store->get(0, "durable"), "yes");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lptsp
