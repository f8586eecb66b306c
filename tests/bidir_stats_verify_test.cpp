// Tests for bidirectional BFS, the distributed stats analysis, and the
// grDB integrity verifier.
#include <gtest/gtest.h>

#include <functional>

#include "common/rng.hpp"
#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "gen/stats.hpp"
#include "graphdb/grdb/grdb.hpp"
#include "mssg/mssg.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

// ---- Bidirectional BFS -----------------------------------------------------

TEST(BidirectionalBfs, BasicDistances) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i + 1 < 10; ++i) edges.push_back({i, i + 1});
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 3;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  EXPECT_EQ(cluster.bidirectional_bfs(0, 0).distance, 0);
  EXPECT_EQ(cluster.bidirectional_bfs(0, 1).distance, 1);
  EXPECT_EQ(cluster.bidirectional_bfs(0, 5).distance, 5);
  EXPECT_EQ(cluster.bidirectional_bfs(0, 9).distance, 9);
  EXPECT_EQ(cluster.bidirectional_bfs(9, 0).distance, 9);
}

TEST(BidirectionalBfs, UnreachableReturnsUnvisited) {
  const std::vector<Edge> edges{{0, 1}, {5, 6}};
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 2;
  MssgCluster cluster(config);
  cluster.ingest(edges);
  EXPECT_EQ(cluster.bidirectional_bfs(0, 6).distance, kUnvisited);
}

TEST(BidirectionalBfs, MatchesUnidirectionalOnRandomGraphs) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    ChungLuConfig gen{.vertices = 300, .edges = 1300, .seed = seed};
    const auto edges = generate_chung_lu(gen);
    const MemoryGraph reference(gen.vertices, edges);

    ClusterConfig config;
    config.backend = Backend::kGrDB;
    config.backend_nodes = 4;
    MssgCluster cluster(config);
    cluster.ingest(edges);

    for (const auto& pair : sample_random_pairs(reference, 8, seed * 3)) {
      EXPECT_EQ(cluster.bidirectional_bfs(pair.src, pair.dst).distance,
                pair.distance)
          << pair.src << "->" << pair.dst << " seed " << seed;
    }
  }
}

TEST(BidirectionalBfs, ScansFewerEdgesOnLongPaths) {
  ChungLuConfig gen{.vertices = 3000, .edges = 15000, .seed = 17};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);

  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 4;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  const auto pairs = sample_stratified_pairs(reference, 5, 3, 19);
  std::uint64_t uni_total = 0, bidir_total = 0;
  int compared = 0;
  for (const auto& pair : pairs) {
    if (pair.distance < 4) continue;
    uni_total += cluster.bfs(pair.src, pair.dst).edges_scanned;
    bidir_total +=
        cluster.bidirectional_bfs(pair.src, pair.dst).edges_scanned;
    ++compared;
  }
  ASSERT_GT(compared, 0);
  // Meeting in the middle must save a substantial fraction of the scan.
  EXPECT_LT(bidir_total * 2, uni_total);
}

// ---- Distributed stats -----------------------------------------------------

TEST(DistributedStats, MatchesGeneratorStats) {
  ChungLuConfig gen{.vertices = 400, .edges = 2000, .seed = 23};
  const auto edges = generate_chung_lu(gen);

  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 4;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  const auto stats = cluster.graph_stats();
  const auto expected = compute_stats(gen.vertices, edges);
  EXPECT_EQ(stats.vertices, expected.vertices);
  EXPECT_EQ(stats.directed_edges, 2 * expected.undirected_edges);
  EXPECT_EQ(stats.min_degree, expected.min_degree);
  EXPECT_EQ(stats.max_degree, expected.max_degree);
  EXPECT_NEAR(stats.avg_degree, expected.avg_degree, 1e-9);
}

TEST(DistributedStats, EmptyCluster) {
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 2;
  MssgCluster cluster(config);
  const auto stats = cluster.graph_stats();
  EXPECT_EQ(stats.vertices, 0u);
  EXPECT_EQ(stats.directed_edges, 0u);
}

TEST(DistributedStats, RegisteredAsAnalysis) {
  const std::vector<Edge> edges{{0, 1}, {0, 2}};
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 2;
  MssgCluster cluster(config);
  cluster.ingest(edges);
  const auto result = cluster.run_analysis("stats", {});
  ASSERT_EQ(result.size(), 5u);
  EXPECT_DOUBLE_EQ(result[0], 3.0);  // vertices
  EXPECT_DOUBLE_EQ(result[1], 4.0);  // directed edges
}

// ---- grDB verify -----------------------------------------------------------

GrDBOptions tiny_geometry() {
  GrDBOptions options;
  options.geometry.levels = {grdb::LevelSpec{2, 64}, grdb::LevelSpec{4, 64},
                             grdb::LevelSpec{8, 64}};
  options.geometry.max_file_bytes = 1024;
  return options;
}

TEST(GrdbVerify, CleanInstancePasses) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  std::filesystem::create_directories(config.dir);
  GrDB db(config, tiny_geometry());
  Rng rng(31);
  std::vector<Edge> edges;
  for (int i = 0; i < 3000; ++i) {
    edges.push_back({rng.below(200), rng.below(200)});
  }
  db.store_edges(edges);
  const auto report = db.verify();
  EXPECT_TRUE(report.ok()) << report.errors.front();
  EXPECT_EQ(report.entries, edges.size());
  EXPECT_GT(report.chains_checked, 0u);
}

TEST(GrdbVerify, CleanAfterDefragment) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  std::filesystem::create_directories(config.dir);
  GrDB db(config, tiny_geometry());
  for (std::uint64_t i = 1; i <= 40; ++i) {
    db.store_edges(std::vector<Edge>{{3, 100 + i}, {7, 200 + i}});
  }
  ASSERT_TRUE(db.verify().ok());
  db.defragment();
  const auto report = db.verify();
  EXPECT_TRUE(report.ok()) << report.errors.front();
  EXPECT_EQ(report.entries, 80u);
}

TEST(GrdbVerify, DetectsCorruptedPointer) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  std::filesystem::create_directories(config.dir);
  {
    GrDB db(config, tiny_geometry());
    db.store_edges(std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {0, 4}});
    // Vertex 0's level-0 sub-block has a level-1 pointer in its second
    // entry.  Point it past level 1's allocated extent — through the
    // cache, so the block's sidecar CRC reseals and the structural fsck
    // (not the checksum) is what must catch it.
    db.poke_entry(0, 0, 1, grdb::make_pointer_entry(1, 999));
    db.flush();
  }
  GrDB db(config, tiny_geometry());
  const auto report = db.verify();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.errors.front().find("allocated extent"),
            std::string::npos);
}

// ---- Corrupt chains --------------------------------------------------------
// Pointer entries planted through poke_entry reseal the block's sidecar CRC,
// so the bytes pass the checksum and reach the chain decoder.  Every walk
// (the read, the tail walk and append's) must end in StorageError, never in
// UB, an abort or a hang.

using Chain = std::vector<std::pair<int, std::uint64_t>>;

/// Stores vertex 0 with a chain through levels 0, 1 and 2 of the tiny
/// geometry — [1, ptr] -> [2, 3, 4, ptr] -> [5..11, empty] — lets `corrupt`
/// poke it, then reopens the store so the walks read it back from disk.
std::unique_ptr<GrDB> corrupt_chain(
    const TempDir& dir,
    const std::function<void(GrDB&, const Chain&)>& corrupt) {
  GraphDBConfig config;
  config.dir = dir.path();
  std::filesystem::create_directories(config.dir);
  {
    GrDB db(config, tiny_geometry());
    std::vector<Edge> edges;
    for (VertexId dst = 1; dst <= 11; ++dst) edges.push_back({0, dst});
    db.store_edges(edges);
    const Chain chain = db.chain_of(0);
    EXPECT_EQ(chain.size(), 3u);
    corrupt(db, chain);
    db.flush();
  }
  return std::make_unique<GrDB>(config, tiny_geometry());
}

void expect_every_walk_throws(GrDB& db) {
  // The read, and the staged batch walk with healthy chains of the same
  // level-0 block around the corrupt one, throw the same error.
  std::string single;
  try {
    std::vector<VertexId> out;
    db.get_adjacency(0, out);
    ADD_FAILURE() << "read of a corrupt chain did not throw";
  } catch (const StorageError& e) {
    single = e.what();
  }
  try {
    (void)testing::batch_lists(db, std::vector<VertexId>{1, 0, 2});
    ADD_FAILURE() << "batch read of a corrupt chain did not throw";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.what(), single);
  }
  EXPECT_THROW((void)db.chain_of(0), StorageError);
  EXPECT_THROW(db.store_edges(std::vector<Edge>{{0, 99}}), StorageError);
}

TEST(GrdbCorruptChain, LevelBeyondGeometry) {
  TempDir dir;
  // Tag 5 is a pointer tag, but the tiny geometry has only levels 0-2.
  auto db = corrupt_chain(dir, [](GrDB& g, const Chain&) {
    g.poke_entry(0, 0, 1, grdb::make_pointer_entry(5, 0));
  });
  expect_every_walk_throws(*db);
}

TEST(GrdbCorruptChain, BlockIndexPastCacheKey) {
  TempDir dir;
  // Level 1 packs 2 sub-blocks per block, so sub-block 2^49 is block
  // 2^48: one past the 48-bit block field of the cache key.
  auto db = corrupt_chain(dir, [](GrDB& g, const Chain&) {
    g.poke_entry(0, 0, 1, grdb::make_pointer_entry(1, std::uint64_t{1} << 49));
  });
  expect_every_walk_throws(*db);
}

TEST(GrdbCorruptChain, TagSevenThatIsNotTheEmptySentinel) {
  TempDir dir;
  auto db = corrupt_chain(dir, [](GrDB& g, const Chain&) {
    g.poke_entry(0, 0, 1, (std::uint64_t{7} << grdb::kTagShift) | 5);
  });
  expect_every_walk_throws(*db);
}

TEST(GrdbCorruptChain, TagSevenBetweenVertexEntriesOfALevelTwoSubblock) {
  TempDir dir;
  const std::uint64_t word = (std::uint64_t{7} << grdb::kTagShift) | 5;
  // Slot 3 of the level-2 sub-block [5..11, empty]: vertex entries on
  // both sides, so the decoder's run of vertex entries ends on it.
  auto db = corrupt_chain(dir, [word](GrDB& g, const Chain& chain) {
    g.poke_entry(chain[2].first, chain[2].second, 3, word);
  });
  std::string per_entry;
  try {
    (void)grdb::classify(word);
  } catch (const StorageError& e) {
    per_entry = e.what();
  }
  ASSERT_FALSE(per_entry.empty()) << "classify accepted a tag-7 word";
  try {
    std::vector<VertexId> out;
    db->get_adjacency(0, out);
    ADD_FAILURE() << "read of a corrupt sub-block did not throw";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.what(), per_entry);
  }
  try {
    (void)testing::batch_lists(*db, std::vector<VertexId>{1, 0, 2});
    ADD_FAILURE() << "batch read of a corrupt sub-block did not throw";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.what(), per_entry);
  }
  // append scans the tail sub-block for its first empty slot.
  EXPECT_THROW(db->store_edges(std::vector<Edge>{{0, 99}}), StorageError);
}

TEST(GrdbCorruptChain, SubblockPointingAtItself) {
  TempDir dir;
  auto db = corrupt_chain(dir, [](GrDB& g, const Chain& chain) {
    const auto [level, subblock] = chain[1];
    g.poke_entry(level, subblock, 3, grdb::make_pointer_entry(level, subblock));
  });
  expect_every_walk_throws(*db);
}

TEST(GrdbCorruptChain, CycleThroughTwoLevels) {
  TempDir dir;
  // The level-2 sub-block's free last slot points back at level 1:
  // 0 -> 1 -> 2 -> 1 -> 2 -> ...
  auto db = corrupt_chain(dir, [](GrDB& g, const Chain& chain) {
    g.poke_entry(chain[2].first, chain[2].second, 7,
                 grdb::make_pointer_entry(chain[1].first, chain[1].second));
  });
  expect_every_walk_throws(*db);
}

TEST(GrdbCorruptChain, WritersRejectPointerPastAllocatedExtent) {
  TempDir dir;
  auto db = corrupt_chain(dir, [](GrDB& g, const Chain&) {
    g.poke_entry(0, 0, 1, grdb::make_pointer_entry(1, 999));
  });
  // Readers see the never-written sub-block as empty.  Writers must neither
  // append through the pointer nor put its target on a free list.
  std::vector<VertexId> out;
  db->get_adjacency(0, out);
  EXPECT_EQ(out, std::vector<VertexId>{1});
  EXPECT_EQ(testing::batch_lists(*db, std::vector<VertexId>{0}),
            std::vector<std::vector<VertexId>>{out});
  EXPECT_THROW(db->store_edges(std::vector<Edge>{{0, 99}}), StorageError);
  EXPECT_THROW(db->defragment(), StorageError);
}

TEST(GrdbVerify, DetectsSharedSubblock) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  std::filesystem::create_directories(config.dir);
  {
    GrDB db(config, tiny_geometry());
    // Two vertices with level-1 chains.
    for (std::uint64_t i = 1; i <= 4; ++i) {
      db.store_edges(std::vector<Edge>{{0, 10 + i}, {1, 20 + i}});
    }
    ASSERT_EQ(db.chain_of(0).size(), 2u);
    ASSERT_EQ(db.chain_of(1).size(), 2u);
    const std::uint64_t target_subblock = db.chain_of(0)[1].second;
    ASSERT_NE(target_subblock, db.chain_of(1)[1].second);
    // Redirect vertex 1's pointer at vertex 0's level-1 sub-block: two
    // chains now share it.
    db.poke_entry(0, 1, 1, grdb::make_pointer_entry(1, target_subblock));
    db.flush();
  }
  GrDB db(config, tiny_geometry());
  const auto report = db.verify();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.errors.front().find("two chains"), std::string::npos);
}

TEST(GrdbVerify, ReportsOutOfBandDiskPatchAsChecksumFinding) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  std::filesystem::create_directories(config.dir);
  {
    GrDB db(config, tiny_geometry());
    db.store_edges(std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {0, 4}});
    db.flush();
  }
  // Patch the file behind grDB's back: the sidecar CRC must reject the
  // block, and verify() must report that instead of dying.
  {
    const auto bogus = grdb::make_pointer_entry(1, 999);
    std::fstream f(dir.path() / "level0.0.dat",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  }
  GrDB db(config, tiny_geometry());
  const auto report = db.verify();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.errors.front().find("sidecar checksum"), std::string::npos);
}

}  // namespace
}  // namespace mssg
