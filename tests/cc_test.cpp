// Connected-components analysis tests: for_each_vertex across backends
// and the distributed min-label propagation vs a sequential reference.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "mssg/mssg.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

using testing::make_db;

// ---- for_each_vertex contract ----------------------------------------------

class ForEachVertex : public ::testing::TestWithParam<Backend> {};

TEST_P(ForEachVertex, VisitsExactlyTheStoredSources) {
  TempDir dir;
  auto db = make_db(GetParam(), dir);
  db->store_edges(std::vector<Edge>{{5, 1}, {9, 2}, {5, 3}, {1000, 4}});
  db->finalize_ingest();
  std::set<VertexId> seen;
  db->for_each_vertex([&](VertexId v) {
    EXPECT_TRUE(seen.insert(v).second) << "duplicate visit of " << v;
    return true;
  });
  EXPECT_EQ(seen, (std::set<VertexId>{5, 9, 1000}));
}

TEST_P(ForEachVertex, EmptyDatabaseVisitsNothing) {
  TempDir dir;
  auto db = make_db(GetParam(), dir);
  db->finalize_ingest();
  int visits = 0;
  db->for_each_vertex([&](VertexId) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0);
}

TEST_P(ForEachVertex, EarlyStopHonoured) {
  TempDir dir;
  auto db = make_db(GetParam(), dir);
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 50; ++v) edges.push_back({v, v + 100});
  db->store_edges(edges);
  db->finalize_ingest();
  int visits = 0;
  db->for_each_vertex([&](VertexId) { return ++visits < 10; });
  EXPECT_EQ(visits, 10);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ForEachVertex,
    ::testing::Values(Backend::kArray, Backend::kHashMap, Backend::kRelational,
                      Backend::kKVStore, Backend::kStream, Backend::kGrDB),
    [](const ::testing::TestParamInfo<Backend>& param_info) {
      auto name = to_string(param_info.param);
      return name.substr(0, name.find('('));
    });

TEST(ForEachVertexDeterminism, StreamBackendVisitsInAscendingOrder) {
  // Regression: StreamDB used to iterate an unordered_set, so an
  // early-exit visitor (CC seeding, k-th vertex sampling) saw a
  // run-dependent prefix and downstream counters stopped being a pure
  // function of the seed.
  TempDir dir;
  auto db = make_db(Backend::kStream, dir);
  db->store_edges(
      std::vector<Edge>{{70, 1}, {3, 2}, {41, 3}, {9, 4}, {1000, 5}, {5, 6}});
  db->finalize_ingest();

  std::vector<VertexId> order;
  db->for_each_vertex([&](VertexId v) {
    order.push_back(v);
    return true;
  });
  EXPECT_EQ(order, (std::vector<VertexId>{3, 5, 9, 41, 70, 1000}));

  // An early exit therefore always observes the same (smallest) prefix.
  std::vector<VertexId> prefix;
  db->for_each_vertex([&](VertexId v) {
    prefix.push_back(v);
    return prefix.size() < 3;
  });
  EXPECT_EQ(prefix, (std::vector<VertexId>{3, 5, 9}));
}

// ---- Connected components ---------------------------------------------------

/// Reference: count components over non-isolated vertices via BFS.
std::uint64_t reference_components(const MemoryGraph& g) {
  std::vector<bool> seen(g.vertex_count(), false);
  std::uint64_t components = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (seen[v] || g.degree(v) == 0) continue;
    ++components;
    const auto levels = g.bfs_levels(v);
    for (VertexId u = 0; u < g.vertex_count(); ++u) {
      if (levels[u] != kUnvisited) seen[u] = true;
    }
  }
  return components;
}

TEST(ConnectedComponents, TwoTrianglesAndAPath) {
  // Components: {0,1,2}, {10,11,12}, {20,21,22,23}.
  const std::vector<Edge> edges{{0, 1},   {1, 2},   {2, 0},   {10, 11},
                                {11, 12}, {12, 10}, {20, 21}, {21, 22},
                                {22, 23}};
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 3;
  MssgCluster cluster(config);
  cluster.ingest(edges);
  const auto stats = cluster.connected_components();
  EXPECT_EQ(stats.components, 3u);
  EXPECT_EQ(stats.vertices, 10u);
  EXPECT_GE(stats.iterations, 1u);
}

TEST(ConnectedComponents, SingleComponentRing) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 100; ++v) edges.push_back({v, (v + 1) % 100});
  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 4;
  MssgCluster cluster(config);
  cluster.ingest(edges);
  const auto stats = cluster.connected_components();
  EXPECT_EQ(stats.components, 1u);
  EXPECT_EQ(stats.vertices, 100u);
  // Ring of 100: min-label needs ~diameter/2 rounds, well over 1.
  EXPECT_GT(stats.iterations, 10u);
}

class CcBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(CcBackends, MatchesReferenceOnFragmentedRandomGraph) {
  // Sparse random graph: avg degree < 1 leaves many small components.
  Rng rng(2027);
  std::vector<Edge> edges;
  constexpr VertexId kVertices = 600;
  for (int i = 0; i < 260; ++i) {
    const VertexId a = rng.below(kVertices);
    const VertexId b = rng.below(kVertices);
    if (a != b) edges.push_back({a, b});
  }
  const MemoryGraph reference(kVertices, edges);

  ClusterConfig config;
  config.backend = GetParam();
  config.backend_nodes = 4;
  MssgCluster cluster(config);
  cluster.ingest(edges);
  const auto stats = cluster.connected_components();
  EXPECT_EQ(stats.components, reference_components(reference));
}

INSTANTIATE_TEST_SUITE_P(Backends, CcBackends,
                         ::testing::Values(Backend::kHashMap, Backend::kGrDB,
                                           Backend::kKVStore,
                                           Backend::kRelational),
                         [](const ::testing::TestParamInfo<Backend>& param_info) {
                           auto name = to_string(param_info.param);
                           return name.substr(0, name.find('('));
                         });

TEST(ConnectedComponents, SingleNode) {
  const std::vector<Edge> edges{{0, 1}, {2, 3}};
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 1;
  MssgCluster cluster(config);
  cluster.ingest(edges);
  EXPECT_EQ(cluster.connected_components().components, 2u);
}

TEST(ConnectedComponents, RegisteredAsAnalysis) {
  const std::vector<Edge> edges{{0, 1}, {2, 3}, {4, 5}};
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 2;
  MssgCluster cluster(config);
  cluster.ingest(edges);
  EXPECT_TRUE(cluster.queries().has("cc"));
  const auto result = cluster.run_analysis("cc", {});
  ASSERT_GE(result.size(), 2u);
  EXPECT_DOUBLE_EQ(result[0], 3.0);  // components
  EXPECT_DOUBLE_EQ(result[1], 6.0);  // vertices
}

}  // namespace
}  // namespace mssg
