#include <gtest/gtest.h>

#include <fstream>

#include "common/temp_dir.hpp"
#include "graphdb/graphdb.hpp"
#include "graphdb/metadata_store.hpp"

namespace mssg {
namespace {

TEST(InMemoryMetadata, DefaultsToFill) {
  InMemoryMetadata store;
  EXPECT_EQ(store.get(0), kUnvisited);
  EXPECT_EQ(store.get(1'000'000), kUnvisited);
}

TEST(InMemoryMetadata, SetGetAndClear) {
  InMemoryMetadata store;
  store.set(10, 3);
  store.set(0, -7);
  EXPECT_EQ(store.get(10), 3);
  EXPECT_EQ(store.get(0), -7);
  EXPECT_EQ(store.get(5), kUnvisited);
  store.clear(0);
  EXPECT_EQ(store.get(10), 0);
}

TEST(ExternalMetadata, DefaultsToFill) {
  TempDir dir;
  ExternalMetadata store(dir.path() / "meta.dat", 100'000, 1 << 16);
  EXPECT_EQ(store.get(0), kUnvisited);
  EXPECT_EQ(store.get(99'999), kUnvisited);
}

TEST(ExternalMetadata, SetGetAcrossPages) {
  TempDir dir;
  ExternalMetadata store(dir.path() / "meta.dat", 100'000, 1 << 16);
  store.set(0, 1);
  store.set(5'000, 2);   // a different page
  store.set(99'999, 3);  // yet another
  EXPECT_EQ(store.get(0), 1);
  EXPECT_EQ(store.get(5'000), 2);
  EXPECT_EQ(store.get(99'999), 3);
  // Untouched neighbors on a touched page still read as fill.
  EXPECT_EQ(store.get(1), kUnvisited);
  EXPECT_EQ(store.get(99'998), kUnvisited);
}

TEST(ExternalMetadata, ClearIsGenerational) {
  TempDir dir;
  ExternalMetadata store(dir.path() / "meta.dat", 10'000, 1 << 16);
  store.set(42, 7);
  store.clear(kUnvisited);
  EXPECT_EQ(store.get(42), kUnvisited);
  store.set(42, 9);
  EXPECT_EQ(store.get(42), 9);
  store.clear(-1);
  EXPECT_EQ(store.get(42), -1);
  EXPECT_EQ(store.get(43), -1);
}

TEST(ExternalMetadata, ManyClearsStayCorrect) {
  TempDir dir;
  ExternalMetadata store(dir.path() / "meta.dat", 1'000, 1 << 14);
  for (int round = 0; round < 50; ++round) {
    store.clear(kUnvisited);
    store.set(round % 1000, round);
    EXPECT_EQ(store.get(round % 1000), round);
    EXPECT_EQ(store.get((round + 1) % 1000), kUnvisited);
  }
}

TEST(ExternalMetadata, SmallCacheStillCorrect) {
  TempDir dir;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  // Cache of a single page: every page switch is an eviction.
  ExternalMetadata store(dir.path() / "meta.dat", 100'000, 4096, &stats);
  for (VertexId v = 0; v < 100'000; v += 1017) {
    store.set(v, static_cast<Metadata>(v % 1000));
  }
  for (VertexId v = 0; v < 100'000; v += 1017) {
    EXPECT_EQ(store.get(v), static_cast<Metadata>(v % 1000));
  }
  EXPECT_GT(stats.writes, 0u);  // evictions really hit the disk
}

// In the Figs 5.8/5.9 configuration the visited store is part of its
// node: its preads and cache traffic land in the node's io.* counters,
// and a page that fails its checksum on a later open is reset (reads as
// fill) AND counted in storage.checksum_failures.
TEST(ExternalMetadata, NodeCountsVisitedStoreIoAndCorruption) {
  for (const Backend backend : {Backend::kHashMap, Backend::kGrDB}) {
    SCOPED_TRACE(to_string(backend));
    TempDir dir;
    GraphDBConfig config;
    config.dir = dir.path();
    config.external_metadata = true;
    config.max_vertices = 1000;
    {
      auto db = make_graphdb(backend, config);
      db->set_metadata(5, 3);
      EXPECT_EQ(db->get_metadata(5), 3);
    }  // page 0 is written back when the store closes
    {
      // Flip one payload word of page 0 (vertex 0's slot).
      std::fstream f(dir.path() / "metadata.dat",
                     std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.is_open());
      char word[4];
      f.read(word, sizeof(word));
      for (char& c : word) c = static_cast<char>(~c);
      f.seekp(0);
      f.write(word, sizeof(word));
    }
    auto db = make_graphdb(backend, config);
    EXPECT_EQ(db->get_metadata(5), kUnvisited);  // self-repaired to fill
    MetricsSnapshot snap;
    db->publish_metrics(snap);
    EXPECT_EQ(snap.counter("storage.checksum_failures"), 1u);
    EXPECT_GT(snap.counter("io.reads"), 0u);
    EXPECT_GT(snap.counter("io.cache_misses"), 0u);
  }
}

TEST(ExternalMetadata, OutOfRangeRejected) {
  TempDir dir;
  ExternalMetadata store(dir.path() / "meta.dat", 100, 1 << 12);
  EXPECT_THROW((void)store.get(100), UsageError);
  EXPECT_THROW(store.set(200, 1), UsageError);
}

}  // namespace
}  // namespace mssg
