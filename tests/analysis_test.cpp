// Tests for the extension features: adjacency prefetching (§4.2 future
// work), the k-hop neighborhood analysis, and cluster-wide grDB
// defragmentation.
#include <gtest/gtest.h>

#include <mutex>

#include "common/rng.hpp"
#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "graphdb/grdb/grdb.hpp"
#include "mssg/mssg.hpp"
#include "query/bfs.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

// ---- grDB prefetch ---------------------------------------------------------

TEST(GrdbPrefetch, WarmsTheCache) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  config.cache_bytes = 8u << 20;
  std::filesystem::create_directories(config.dir);
  GrDB db(config);

  std::vector<Edge> edges;
  for (VertexId v = 0; v < 5000; ++v) edges.push_back({v, (v + 1) % 5000});
  db.store_edges(edges);
  db.flush();

  // Drop everything from the cache by reopening.
  db.flush();
  const std::uint64_t misses_before = db.metrics().counter("io.cache_misses");
  std::vector<VertexId> fringe;
  for (VertexId v = 0; v < 5000; v += 7) fringe.push_back(v);
  db.prefetch(fringe);
  const std::uint64_t misses_after_prefetch =
      db.metrics().counter("io.cache_misses");
  EXPECT_GE(misses_after_prefetch, misses_before);  // prefetch did the loads

  // Reads after prefetch are all hits.
  const std::uint64_t hits_before = db.metrics().counter("io.cache_hits");
  std::vector<VertexId> out;
  for (const VertexId v : fringe) db.get_adjacency(v, out);
  EXPECT_EQ(db.metrics().counter("io.cache_misses"), misses_after_prefetch);
  EXPECT_GT(db.metrics().counter("io.cache_hits"), hits_before);
}

TEST(GrdbPrefetch, UnknownVerticesIgnored) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  std::filesystem::create_directories(config.dir);
  GrDB db(config);
  const std::vector<VertexId> fringe{1, 2, 3};
  db.prefetch(fringe);  // empty database: no crash, no effect
  db.store_edges(std::vector<Edge>{{1, 2}});
  const std::vector<VertexId> wild{1, 999'999};
  db.prefetch(wild);  // out-of-extent ids skipped
}

TEST(BfsWithPrefetch, MatchesPlainBfs) {
  ChungLuConfig gen{.vertices = 300, .edges = 1400, .seed = 61};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);

  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 4;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  BfsOptions prefetching;
  prefetching.prefetch = true;
  for (const auto& pair : sample_random_pairs(reference, 6, 67)) {
    EXPECT_EQ(cluster.bfs(pair.src, pair.dst, prefetching).distance,
              pair.distance);
  }
}

// ---- K-hop analysis --------------------------------------------------------

using testing::reference_khop;

TEST(KHop, MatchesReferenceOnPath) {
  // 0-1-2-3-4-5 path.
  std::vector<Edge> edges;
  for (VertexId i = 0; i + 1 < 6; ++i) edges.push_back({i, i + 1});
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 3;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  EXPECT_EQ(cluster.khop(0, 1).vertices_within, 1u);
  EXPECT_EQ(cluster.khop(0, 3).vertices_within, 3u);
  EXPECT_EQ(cluster.khop(0, 10).vertices_within, 5u);
  EXPECT_EQ(cluster.khop(2, 2).vertices_within, 4u);
  EXPECT_EQ(cluster.khop(0, 0).vertices_within, 0u);
}

TEST(KHop, MatchesReferenceOnRandomGraphAcrossBackends) {
  ChungLuConfig gen{.vertices = 250, .edges = 1000, .seed = 71};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);
  Rng rng(5);

  for (const Backend backend :
       {Backend::kHashMap, Backend::kGrDB, Backend::kKVStore}) {
    ClusterConfig config;
    config.backend = backend;
    config.backend_nodes = 4;
    MssgCluster cluster(config);
    cluster.ingest(edges);
    for (int q = 0; q < 5; ++q) {
      VertexId src = rng.below(gen.vertices);
      while (reference.degree(src) == 0) src = rng.below(gen.vertices);
      const Metadata k = static_cast<Metadata>(1 + rng.below(4));
      EXPECT_EQ(cluster.khop(src, k).vertices_within,
                reference_khop(reference, src, k))
          << to_string(backend) << " src=" << src << " k=" << k;
    }
  }
}

TEST(KHop, BroadcastModeAgrees) {
  ChungLuConfig gen{.vertices = 200, .edges = 800, .seed = 73};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);

  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 3;
  config.decluster = DeclusterPolicy::kEdgeRoundRobin;  // forces broadcast
  MssgCluster cluster(config);
  cluster.ingest(edges);

  Rng rng(7);
  for (int q = 0; q < 4; ++q) {
    VertexId src = rng.below(gen.vertices);
    while (reference.degree(src) == 0) src = rng.below(gen.vertices);
    EXPECT_EQ(cluster.khop(src, 2).vertices_within,
              reference_khop(reference, src, 2));
  }
}

TEST(KHop, RegisteredAsAnalysis) {
  std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}};
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 2;
  MssgCluster cluster(config);
  cluster.ingest(edges);
  EXPECT_TRUE(cluster.queries().has("khop"));
  const auto result = cluster.run_analysis("khop", {0, 2});
  ASSERT_GE(result.size(), 1u);
  EXPECT_DOUBLE_EQ(result[0], 2.0);
}

// ---- Cluster-wide defragmentation ------------------------------------------

TEST(ClusterDefrag, RewritesChainsAndPreservesQueries) {
  ChungLuConfig gen{.vertices = 300, .edges = 2000, .seed = 79};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);

  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 3;
  // Tiny ingest windows = maximal chain fragmentation.
  config.ingest.window_edges = 64;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  const auto pairs = sample_random_pairs(reference, 5, 83);
  std::vector<Metadata> before;
  for (const auto& pair : pairs) {
    before.push_back(cluster.bfs(pair.src, pair.dst).distance);
  }

  const auto rewritten = cluster.defragment_all();
  EXPECT_GT(rewritten, 0u);

  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(cluster.bfs(pairs[i].src, pairs[i].dst).distance, before[i]);
  }
}

TEST(ClusterDefrag, NoOpForInMemoryBackends) {
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 2;
  MssgCluster cluster(config);
  cluster.ingest(std::vector<Edge>{{0, 1}});
  EXPECT_EQ(cluster.defragment_all(), 0u);
}

}  // namespace
}  // namespace mssg
