#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>

#include "gen/generators.hpp"
#include "ingest/decluster.hpp"
#include "ingest/edge_source.hpp"
#include "ingest/ingest_service.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

using testing::make_db;

// ---- Edge sources ----------------------------------------------------------

TEST(EdgeSource, VectorSourceServesBlocks) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i < 10; ++i) edges.push_back({i, i + 1});
  VectorEdgeSource source(edges);
  std::vector<Edge> block;
  ASSERT_TRUE(source.next_block(4, block));
  EXPECT_EQ(block.size(), 4u);
  ASSERT_TRUE(source.next_block(4, block));
  ASSERT_TRUE(source.next_block(4, block));
  EXPECT_EQ(block.size(), 2u);
  EXPECT_FALSE(source.next_block(4, block));
}

TEST(EdgeSource, AsciiRoundTrip) {
  TempDir dir;
  const std::vector<Edge> edges{{1, 2}, {3, 4}, {1234567890123ull, 7}};
  const auto path = dir.path() / "edges.txt";
  write_ascii_edges(path, edges);

  AsciiEdgeSource source(path);
  std::vector<Edge> block;
  ASSERT_TRUE(source.next_block(10, block));
  EXPECT_EQ(block, edges);
}

TEST(EdgeSource, AsciiSkipsComments) {
  TempDir dir;
  const auto path = dir.path() / "edges.txt";
  std::ofstream(path) << "# comment\n1 2\n% other comment\n\n3 4\n";
  AsciiEdgeSource source(path);
  std::vector<Edge> block;
  ASSERT_TRUE(source.next_block(10, block));
  EXPECT_EQ(block, (std::vector<Edge>{{1, 2}, {3, 4}}));
}

TEST(EdgeSource, AsciiMalformedLineThrows) {
  TempDir dir;
  const auto path = dir.path() / "edges.txt";
  std::ofstream(path) << "1 banana\n";
  AsciiEdgeSource source(path);
  std::vector<Edge> block;
  EXPECT_THROW(source.next_block(10, block), FormatError);
}

TEST(EdgeSource, BinaryRoundTrip) {
  TempDir dir;
  std::vector<Edge> edges;
  for (VertexId i = 0; i < 1000; ++i) edges.push_back({i, i * 3});
  const auto path = dir.path() / "edges.bin";
  write_binary_edges(path, edges);

  BinaryEdgeSource source(path);
  std::vector<Edge> all, block;
  while (source.next_block(128, block)) {
    all.insert(all.end(), block.begin(), block.end());
  }
  EXPECT_EQ(all, edges);
}

TEST(EdgeSource, ShardCoversEverythingOnce) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i < 103; ++i) edges.push_back({i, i});
  const auto shards = shard_edges(edges, 4);
  ASSERT_EQ(shards.size(), 4u);
  std::size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  EXPECT_EQ(total, edges.size());
  EXPECT_EQ(shards[0].front(), edges.front());
  EXPECT_EQ(shards[3].back(), edges.back());
}

// ---- Partitioners ----------------------------------------------------------

TEST(Partitioner, HashModRoutesBySource) {
  HashModPartitioner part(4);
  const std::vector<Edge> block{{0, 9}, {5, 9}, {7, 1}};
  std::vector<Rank> targets(block.size());
  part.route(block, targets);
  EXPECT_EQ(targets, (std::vector<Rank>{0, 1, 3}));
  EXPECT_TRUE(part.globally_known_map());
}

TEST(Partitioner, VertexRoundRobinIsSticky) {
  auto map = std::make_shared<SharedVertexMap>();
  VertexRoundRobinPartitioner part(3, map);
  const std::vector<Edge> block{{10, 1}, {20, 2}, {10, 3}, {30, 4}, {20, 5}};
  std::vector<Rank> targets(block.size());
  part.route(block, targets);
  // First-seen assignment cycles 0,1,2; repeats stick.
  EXPECT_EQ(targets[0], targets[2]);  // vertex 10
  EXPECT_EQ(targets[1], targets[4]);  // vertex 20
  EXPECT_NE(targets[0], targets[1]);
  EXPECT_FALSE(part.globally_known_map());

  // A later block must honour earlier assignments (vertex granularity).
  const std::vector<Edge> block2{{20, 9}};
  std::vector<Rank> targets2(1);
  part.route(block2, targets2);
  EXPECT_EQ(targets2[0], targets[1]);
}

TEST(Partitioner, EdgeRoundRobinSpreadsEvenly) {
  EdgeRoundRobinPartitioner part(4);
  std::vector<Edge> block(100, Edge{1, 2});  // same vertex every time
  std::vector<Rank> targets(block.size());
  part.route(block, targets);
  std::vector<int> counts(4, 0);
  for (const auto t : targets) ++counts[t];
  for (const int c : counts) EXPECT_EQ(c, 25);
}

TEST(Partitioner, BlockClusterKeepsVertexGranularity) {
  auto map = std::make_shared<SharedVertexMap>();
  BlockClusterPartitioner part(3, map);
  // Two disjoint components in one block.
  const std::vector<Edge> block{{1, 2}, {2, 3}, {10, 11}, {11, 12}, {1, 3}};
  std::vector<Rank> targets(block.size());
  part.route(block, targets);
  // All edges of one component share a node.
  EXPECT_EQ(targets[0], targets[1]);
  EXPECT_EQ(targets[0], targets[4]);
  EXPECT_EQ(targets[2], targets[3]);

  // Across blocks, a vertex's assignment is stable.
  const std::vector<Edge> block2{{2, 99}};
  std::vector<Rank> targets2(1);
  part.route(block2, targets2);
  EXPECT_EQ(targets2[0], targets[0]);
}

TEST(Partitioner, BlockClusterBalancesComponents) {
  auto map = std::make_shared<SharedVertexMap>();
  BlockClusterPartitioner part(2, map);
  // Four independent components of equal size, one block each.
  std::vector<Rank> seen;
  for (VertexId base = 0; base < 400; base += 100) {
    const std::vector<Edge> block{{base, base + 1}, {base + 1, base + 2}};
    std::vector<Rank> targets(block.size());
    part.route(block, targets);
    seen.push_back(targets[0]);
  }
  // Least-loaded placement alternates nodes.
  EXPECT_NE(seen[0], seen[1]);
  EXPECT_NE(seen[2], seen[3]);
}

// ---- Ingestion pipeline ----------------------------------------------------

TEST(Ingestion, AllEdgesLandOnTheirOwners) {
  constexpr int kBackends = 4;
  std::vector<TempDir> dirs;
  std::vector<std::unique_ptr<GraphDB>> dbs;
  std::vector<GraphDB*> raw;
  for (int i = 0; i < kBackends; ++i) {
    dirs.emplace_back();
    dbs.push_back(make_db(Backend::kHashMap, dirs.back()));
    raw.push_back(dbs.back().get());
  }

  ChungLuConfig config{.vertices = 200, .edges = 1000, .seed = 66};
  const auto edges = generate_chung_lu(config);

  std::vector<std::unique_ptr<EdgeSource>> sources;
  sources.push_back(std::make_unique<VectorEdgeSource>(edges));
  HashModPartitioner partitioner(kBackends);
  IngestOptions options;
  options.window_edges = 128;
  const auto report = run_ingestion(std::move(sources), partitioner, raw,
                                    options);

  // Symmetrized: both orientations stored.
  EXPECT_EQ(report.edges_stored, 2 * edges.size());

  // Every vertex's full adjacency list sits on its owner, and only there.
  std::unordered_map<VertexId, std::vector<VertexId>> expected;
  for (const auto& e : edges) {
    expected[e.src].push_back(e.dst);
    expected[e.dst].push_back(e.src);
  }
  for (const auto& [v, neighbors] : expected) {
    for (int node = 0; node < kBackends; ++node) {
      std::vector<VertexId> out;
      raw[node]->get_adjacency(v, out);
      if (node == static_cast<int>(v % kBackends)) {
        ASSERT_EQ(testing::sorted(out), testing::sorted(neighbors)) << v;
      } else {
        ASSERT_TRUE(out.empty()) << v << " leaked to node " << node;
      }
    }
  }
}

TEST(Ingestion, MultipleFrontEndsStoreSameTotal) {
  constexpr int kBackends = 3;
  ChungLuConfig config{.vertices = 150, .edges = 800, .seed = 67};
  const auto edges = generate_chung_lu(config);

  for (const int frontends : {1, 2, 4}) {
    std::vector<TempDir> dirs;
    std::vector<std::unique_ptr<GraphDB>> dbs;
    std::vector<GraphDB*> raw;
    for (int i = 0; i < kBackends; ++i) {
      dirs.emplace_back();
      dbs.push_back(make_db(Backend::kHashMap, dirs.back()));
      raw.push_back(dbs.back().get());
    }
    std::vector<std::unique_ptr<EdgeSource>> sources;
    for (const auto shard : shard_edges(edges, frontends)) {
      sources.push_back(std::make_unique<VectorEdgeSource>(shard));
    }
    HashModPartitioner partitioner(kBackends);
    const auto report =
        run_ingestion(std::move(sources), partitioner, raw, {});
    EXPECT_EQ(report.edges_stored, 2 * edges.size()) << frontends;
  }
}

TEST(Ingestion, NoSymmetrizeStoresDirectedOnly) {
  TempDir dir;
  auto db = make_db(Backend::kHashMap, dir);
  GraphDB* raw = db.get();
  const std::vector<Edge> edges{{0, 1}, {0, 2}};
  std::vector<std::unique_ptr<EdgeSource>> sources;
  sources.push_back(std::make_unique<VectorEdgeSource>(edges));
  HashModPartitioner partitioner(1);
  IngestOptions options;
  options.symmetrize = false;
  const auto report = run_ingestion(std::move(sources), partitioner,
                                    std::span(&raw, 1), options);
  EXPECT_EQ(report.edges_stored, 2u);
  std::vector<VertexId> out;
  raw->get_adjacency(1, out);
  EXPECT_TRUE(out.empty());
}

// A back end slower than the front end: each store_edges call sleeps, so
// the stream queues fill up behind it, and records how many edges it got.
class SlowBackEnd final : public GraphDB {
 public:
  explicit SlowBackEnd(GraphDB& inner)
      : GraphDB(GraphDBConfig{}), inner_(inner) {}

  void store_edges(std::span<const Edge> edges) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    calls.push_back(edges.size());
    inner_.store_edges(edges);
  }
  void get_adjacency(VertexId v, std::vector<VertexId>& out) override {
    inner_.get_adjacency(v, out);
  }
  void for_each_vertex(const std::function<bool(VertexId)>& visit) override {
    inner_.for_each_vertex(visit);
  }
  [[nodiscard]] std::string name() const override { return "slow"; }

  std::vector<std::size_t> calls;  ///< edges per store_edges call

 private:
  GraphDB& inner_;
};

TEST(Ingestion, BackEndBatchHoldsAtMostOneWindow) {
  constexpr int kBackends = 2;
  constexpr std::size_t kWindow = 64;
  constexpr std::size_t kWindows = 40;
  // Sources alternate between the two back ends, so every window ships
  // exactly half a window to each: a store call that coalesces buffers
  // reaches one window after two of them.
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < kWindow * kWindows; ++i) {
    edges.push_back(Edge{i, (i * 7 + 3) % 1000});
  }
  std::vector<TempDir> dirs;
  std::vector<std::unique_ptr<GraphDB>> inner;
  std::vector<std::unique_ptr<SlowBackEnd>> slow;
  std::vector<GraphDB*> raw;
  for (int i = 0; i < kBackends; ++i) {
    dirs.emplace_back();
    inner.push_back(make_db(Backend::kHashMap, dirs.back()));
    slow.push_back(std::make_unique<SlowBackEnd>(*inner.back()));
    raw.push_back(slow.back().get());
  }
  std::vector<std::unique_ptr<EdgeSource>> sources;
  sources.push_back(std::make_unique<VectorEdgeSource>(edges));
  HashModPartitioner partitioner(kBackends);
  IngestOptions options;
  options.window_edges = kWindow;
  options.symmetrize = false;
  const auto report = run_ingestion(std::move(sources), partitioner, raw,
                                    options);

  for (int b = 0; b < kBackends; ++b) {
    const auto& calls = slow[b]->calls;
    EXPECT_EQ(std::accumulate(calls.begin(), calls.end(), std::size_t{0}),
              edges.size() / kBackends);
    for (const std::size_t n : calls) EXPECT_LE(n, kWindow) << "back end " << b;
  }
  // Totals do not depend on how buffers were coalesced.
  EXPECT_EQ(report.edges_stored, edges.size());
  EXPECT_EQ(report.metrics.counter("ingest.batches"), kBackends * kWindows);
  EXPECT_EQ(report.metrics.counter("ingest.edges_stored"), edges.size());
}

TEST(Ingestion, ImbalanceReportsLoadRatio) {
  IngestReport report;
  report.per_backend = {100, 50};
  EXPECT_DOUBLE_EQ(report.imbalance(), 2.0);
  report.per_backend = {100, 100, 100};
  EXPECT_DOUBLE_EQ(report.imbalance(), 1.0);
}

TEST(Ingestion, ImbalanceEdgeCases) {
  IngestReport report;
  // All backends empty is vacuously balanced — regression: this used to
  // report 0.0, which read as "better than perfectly balanced".
  report.per_backend = {0, 0, 0};
  EXPECT_DOUBLE_EQ(report.imbalance(), 1.0);
  // No backends at all behaves the same.
  report.per_backend = {};
  EXPECT_DOUBLE_EQ(report.imbalance(), 1.0);
  // A starved backend (min == 0, max > 0): the ratio degenerates to max
  // rather than dividing by zero.
  report.per_backend = {40, 0};
  EXPECT_DOUBLE_EQ(report.imbalance(), 40.0);
}

TEST(Ingestion, DiskBackendIngestIsDurable) {
  TempDir dir;
  {
    GraphDBConfig config;
    config.dir = dir.path();
    auto db = make_graphdb(Backend::kGrDB, config);
    GraphDB* raw = db.get();
    const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}};
    std::vector<std::unique_ptr<EdgeSource>> sources;
    sources.push_back(std::make_unique<VectorEdgeSource>(edges));
    HashModPartitioner partitioner(1);
    run_ingestion(std::move(sources), partitioner, std::span(&raw, 1), {});
  }
  GraphDBConfig config;
  config.dir = dir.path();
  auto db = make_graphdb(Backend::kGrDB, config);
  std::vector<VertexId> out;
  db->get_adjacency(1, out);
  EXPECT_EQ(testing::sorted(out), (std::vector<VertexId>{0, 2}));
}

}  // namespace
}  // namespace mssg
