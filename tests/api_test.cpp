// API-surface tests: QueryService registry behaviour, BFS option
// combinations, and boundary conditions not covered by the per-module
// suites.
#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "mssg/mssg.hpp"
#include "query/query_service.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

TEST(QueryServiceApi, BuiltInAnalysesListed) {
  QueryService service;
  const auto names = service.names();
  const std::vector<std::string> expected{
      "bfs",           "bidir-bfs", "cbfs",      "cc",        "kcore",
      "khop",          "lp-cc",     "ms-bfs",    "pagerank",  "pipelined-bfs",
      "sssp",          "stats",     "toprank",   "triangles"};
  EXPECT_EQ(names, expected);  // names() is sorted
  for (const auto& name : expected) EXPECT_TRUE(service.has(name));
  EXPECT_FALSE(service.has("page-rank"));
}

TEST(QueryServiceApi, BfsAnalysisValidatesParams) {
  QueryService service;
  MetricsRegistry traffic;
  CommWorld world(1, traffic);
  auto comm = world.comm(0);
  TempDir dir;
  auto db = testing::make_db(Backend::kHashMap, dir);
  QueryContext ctx;
  EXPECT_THROW(service.run("bfs", comm, *db, {}, ctx), UsageError);
  EXPECT_THROW(service.run("bfs", comm, *db, {1}, ctx), UsageError);
  EXPECT_THROW(service.run("khop", comm, *db, {1}, ctx), UsageError);
  // k is a Metadata level bound: a value that wraps negative is refused.
  EXPECT_THROW(service.run("khop", comm, *db, {1, 0xFFFFFFFFu}, ctx),
               UsageError);
  EXPECT_THROW(service.run("page-rank", comm, *db, {}, ctx), UsageError);
}

TEST(QueryServiceApi, ReRegisteringReplacesAnalysis) {
  QueryService service;
  service.register_analysis("bfs", [](Communicator&, GraphDB&,
                                      const std::vector<std::uint64_t>&,
                                      QueryContext&) {
    return std::vector<double>{42.0};
  });
  MetricsRegistry traffic;
  CommWorld world(1, traffic);
  auto comm = world.comm(0);
  TempDir dir;
  auto db = testing::make_db(Backend::kHashMap, dir);
  QueryContext ctx;
  EXPECT_EQ(service.run("bfs", comm, *db, {}, ctx), std::vector<double>{42.0});
  // The replacement carries its own admission flag.
  EXPECT_FALSE(service.find("bfs")->exclusive);
}

TEST(BfsOptionCombos, PrefetchPlusPipelined) {
  ChungLuConfig gen{.vertices = 250, .edges = 1100, .seed = 141};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);

  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 3;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  BfsOptions options;
  options.pipelined = true;
  options.prefetch = true;
  options.pipeline_threshold = 32;
  for (const auto& pair : sample_random_pairs(reference, 5, 151)) {
    EXPECT_EQ(cluster.bfs(pair.src, pair.dst, options).distance,
              pair.distance);
  }
}

TEST(BfsOptionCombos, MaxLevelsTruncatesSearch) {
  // 0-1-2-3-4-5 path: a bound of 3 cannot reach vertex 5.
  std::vector<Edge> edges;
  for (VertexId i = 0; i + 1 < 6; ++i) edges.push_back({i, i + 1});
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 2;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  BfsOptions options;
  options.max_levels = 3;
  EXPECT_EQ(cluster.bfs(0, 5, options).distance, kUnvisited);
  EXPECT_EQ(cluster.bfs(0, 3, options).distance, 3);
}

TEST(ClusterApi, NodeDbAccessAndBounds) {
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 2;
  MssgCluster cluster(config);
  cluster.ingest(std::vector<Edge>{{0, 1}, {1, 2}});
  EXPECT_EQ(cluster.backend_nodes(), 2);
  // Vertex 0's edges sit on node 0 (hash-mod).
  std::vector<VertexId> out;
  cluster.node_db(0).get_adjacency(0, out);
  EXPECT_EQ(out, (std::vector<VertexId>{1}));
  EXPECT_THROW((void)cluster.node_db(5), std::out_of_range);
}

TEST(ClusterApi, StorageRootReuseAcrossClusterObjects) {
  TempDir dir;
  {
    ClusterConfig config;
    config.backend = Backend::kGrDB;
    config.backend_nodes = 2;
    config.storage_root = dir.path();
    MssgCluster cluster(config);
    cluster.ingest(std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
  }
  // A new cluster over the same root sees the persisted data.
  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 2;
  config.storage_root = dir.path();
  MssgCluster cluster(config);
  EXPECT_EQ(cluster.bfs(0, 3).distance, 3);
}

TEST(ClusterApi, MismatchedSourceCountRejected) {
  ClusterConfig config;
  config.frontend_nodes = 2;
  config.backend_nodes = 2;
  config.backend = Backend::kHashMap;
  MssgCluster cluster(config);
  std::vector<std::unique_ptr<EdgeSource>> sources;  // 0 != 2 front-ends
  EXPECT_THROW(cluster.ingest(std::move(sources)), UsageError);
}

TEST(MetadataOpsApi, AllOperatorsViaExternalStore) {
  // The fused filter call must behave identically over the external
  // metadata store.
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  config.external_metadata = true;
  config.max_vertices = 100;
  auto db = make_graphdb(Backend::kGrDB, config);
  db->store_edges(std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}});
  db->set_metadata(1, 5);
  db->set_metadata(2, 7);

  std::vector<VertexId> out;
  db->get_adjacency_using_metadata(0, out, 5, MetadataOp::kEqual);
  EXPECT_EQ(out, (std::vector<VertexId>{1}));
  out.clear();
  db->get_adjacency_using_metadata(0, out, 6, MetadataOp::kLess);
  EXPECT_EQ(testing::sorted(out), (std::vector<VertexId>{1}));
  out.clear();
  db->get_adjacency_using_metadata(0, out, 6, MetadataOp::kGreater);
  EXPECT_EQ(testing::sorted(out), (std::vector<VertexId>{2, 3}));
}

}  // namespace
}  // namespace mssg
