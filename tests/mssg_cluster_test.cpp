// End-to-end framework tests: ingest + query through the MssgCluster
// facade, across backends and configurations.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "mssg/mssg.hpp"

namespace mssg {
namespace {

class ClusterEndToEnd : public ::testing::TestWithParam<Backend> {};

TEST_P(ClusterEndToEnd, IngestThenSearchMatchesReference) {
  ChungLuConfig config{.vertices = 250, .edges = 1100, .seed = 101};
  const auto edges = generate_chung_lu(config);
  const MemoryGraph reference(config.vertices, edges);

  ClusterConfig cluster_config;
  cluster_config.frontend_nodes = 2;
  cluster_config.backend_nodes = 4;
  cluster_config.backend = GetParam();
  MssgCluster cluster(cluster_config);

  const auto report = cluster.ingest(edges);
  EXPECT_EQ(report.edges_stored, 2 * edges.size());
  EXPECT_GT(report.seconds, 0.0);

  for (const auto& pair : sample_random_pairs(reference, 6, 11)) {
    const auto result = cluster.bfs(pair.src, pair.dst);
    EXPECT_EQ(result.distance, pair.distance);
    EXPECT_GT(result.edges_scanned, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ClusterEndToEnd,
                         ::testing::Values(Backend::kArray, Backend::kHashMap,
                                           Backend::kKVStore,
                                           Backend::kRelational,
                                           Backend::kStream, Backend::kGrDB),
                         [](const ::testing::TestParamInfo<Backend>& param_info) {
                           auto name = to_string(param_info.param);
                           return name.substr(0, name.find('('));
                         });

TEST(Cluster, DiskBackendsReportIo) {
  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 2;
  MssgCluster cluster(config);
  std::vector<Edge> edges;
  for (VertexId i = 0; i < 2000; ++i) edges.push_back({i % 97, i});
  cluster.ingest(edges);
  cluster.bfs(0, 96);
  const auto io = cluster.metrics_snapshot();
  EXPECT_GT(io.counter("io.cache_misses") + io.counter("io.cache_hits"), 0u);
}

// live_ingest checks every node's share before any node stores: a batch
// that one node rejects must land on none of them.
TEST(Cluster, LiveIngestStoresNothingWhenAnyNodeRejects) {
  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 2;
  config.decluster = DeclusterPolicy::kHashMod;
  MssgCluster cluster(config);
  // Vertex 2 routes to node 0; 2^56 + 1 routes to node 1, which cannot
  // address it.
  const std::vector<Edge> batch{{2, 3}, {(VertexId{1} << 56) + 1, 1}};
  EXPECT_THROW(cluster.live_ingest(batch), UsageError);
  std::vector<VertexId> out;
  cluster.node_db(0).get_adjacency(2, out);
  EXPECT_TRUE(out.empty());
  // A valid batch still lands afterwards.
  cluster.live_ingest(std::vector<Edge>{{2, 3}});
  cluster.node_db(0).get_adjacency(2, out);
  EXPECT_EQ(out, (std::vector<VertexId>{3}));
}

TEST(Cluster, PipelinedBfsAgreesWithPlain) {
  ChungLuConfig gen{.vertices = 300, .edges = 1500, .seed = 7};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);

  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 4;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  BfsOptions pipelined;
  pipelined.pipelined = true;
  pipelined.pipeline_threshold = 16;
  for (const auto& pair : sample_random_pairs(reference, 5, 23)) {
    EXPECT_EQ(cluster.bfs(pair.src, pair.dst).distance, pair.distance);
    EXPECT_EQ(cluster.bfs(pair.src, pair.dst, pipelined).distance,
              pair.distance);
  }
}

TEST(Cluster, EdgeGranularityDeclusteringStillAnswersQueries) {
  ChungLuConfig gen{.vertices = 150, .edges = 700, .seed = 19};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);

  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 3;
  config.decluster = DeclusterPolicy::kEdgeRoundRobin;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  // Adjacency lists are spread over all nodes: searches must broadcast.
  for (const auto& pair : sample_random_pairs(reference, 5, 29)) {
    EXPECT_EQ(cluster.bfs(pair.src, pair.dst).distance, pair.distance);
  }
}

TEST(Cluster, VertexRoundRobinDeclustering) {
  ChungLuConfig gen{.vertices = 150, .edges = 700, .seed = 37};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);

  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 3;
  config.decluster = DeclusterPolicy::kVertexRoundRobin;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  for (const auto& pair : sample_random_pairs(reference, 5, 41)) {
    EXPECT_EQ(cluster.bfs(pair.src, pair.dst).distance, pair.distance);
  }
}

TEST(Cluster, BlockClusterDeclustering) {
  ChungLuConfig gen{.vertices = 150, .edges = 700, .seed = 43};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);

  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 3;
  config.decluster = DeclusterPolicy::kBlockCluster;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  for (const auto& pair : sample_random_pairs(reference, 5, 47)) {
    EXPECT_EQ(cluster.bfs(pair.src, pair.dst).distance, pair.distance);
  }
}

TEST(Cluster, QueryServiceRegistryRunsBfs) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}};
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 2;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  EXPECT_TRUE(cluster.queries().has("bfs"));
  EXPECT_TRUE(cluster.queries().has("pipelined-bfs"));
  const auto result = cluster.run_analysis("bfs", {0, 3});
  ASSERT_GE(result.size(), 1u);
  EXPECT_DOUBLE_EQ(result[0], 3.0);

  EXPECT_THROW(cluster.run_analysis("page-rank", {}), UsageError);
}

TEST(Cluster, CustomAnalysisCanBeRegistered) {
  const std::vector<Edge> edges{{0, 1}, {0, 2}, {0, 3}};
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 2;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  // Degree-count analysis: total adjacency entries across the cluster.
  cluster.queries().register_analysis(
      "degree", [](Communicator& comm, GraphDB& db,
                   const std::vector<std::uint64_t>& params, QueryContext&) {
        std::vector<VertexId> out;
        db.get_adjacency(params[0], out);
        const auto total = comm.allreduce_sum(out.size());
        return std::vector<double>{static_cast<double>(total)};
      });
  const auto result = cluster.run_analysis("degree", {0});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_DOUBLE_EQ(result[0], 3.0);
}

TEST(Cluster, ExternalMetadataConfiguration) {
  ChungLuConfig gen{.vertices = 120, .edges = 500, .seed = 53};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);

  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 2;
  config.db.external_metadata = true;
  config.db.max_vertices = gen.vertices;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  for (const auto& pair : sample_random_pairs(reference, 4, 59)) {
    EXPECT_EQ(cluster.bfs(pair.src, pair.dst).distance, pair.distance);
  }
}

TEST(Cluster, SingleNodeDegenerateCase) {
  ClusterConfig config;
  config.frontend_nodes = 1;
  config.backend_nodes = 1;
  config.backend = Backend::kGrDB;
  MssgCluster cluster(config);
  cluster.ingest(std::vector<Edge>{{0, 1}, {1, 2}});
  EXPECT_EQ(cluster.bfs(0, 2).distance, 2);
}

}  // namespace
}  // namespace mssg
