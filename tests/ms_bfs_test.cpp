// Batched multi-source BFS equivalence: one MS-BFS traversal must
// compute, for every source in the batch, exactly what N independent
// single-source runs compute — across both wire formats and 1/2/4-node
// clusters.  The batching (64-bit source masks, one adjacency fetch per
// frontier vertex) is a pure amortization; any divergence in results is
// a bug, and the shared-scan counters must account for the fetches the
// per-source sweeps would have repeated.
#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "query/bfs.hpp"
#include "query/ms_bfs.hpp"
#include "query/query_budget.hpp"
#include "runtime/comm.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

using testing::make_db;

/// 2^40: a vertex id past every stored vertex of these fixtures.
constexpr VertexId kFarVertex = VertexId{1} << 40;

/// Small-world fixture partitioned owner(v) = v mod p, like the wire
/// equivalence suite but with a parameterized node count.
struct MsBfsCluster {
  MsBfsCluster(int node_count, std::uint64_t seed) : nodes(node_count) {
    ChungLuConfig config{.vertices = 1500, .edges = 6000, .seed = seed};
    edges = generate_chung_lu(config);
    reference = std::make_unique<MemoryGraph>(config.vertices, edges);
    std::vector<std::vector<Edge>> per_node(nodes);
    for (const auto& e : edges) {
      per_node[e.src % nodes].push_back(e);
      per_node[e.dst % nodes].push_back(Edge{e.dst, e.src});
    }
    for (int n = 0; n < nodes; ++n) {
      dirs.emplace_back();
      dbs.push_back(make_db(Backend::kHashMap, dirs.back()));
      dbs[n]->store_edges(per_node[n]);
      dbs[n]->finalize_ingest();
    }
  }

  int nodes;
  std::vector<Edge> edges;
  std::unique_ptr<MemoryGraph> reference;
  std::vector<TempDir> dirs;
  std::vector<std::unique_ptr<GraphDB>> dbs;
};

std::vector<MsBfsStats> run_batched(MsBfsCluster& cluster,
                                    std::span<const VertexId> sources,
                                    VertexId dst, const MsBfsOptions& options) {
  MetricsRegistry traffic;
  CommWorld world(cluster.nodes, traffic);
  std::vector<MsBfsStats> per_rank(cluster.nodes);
  run_cluster(world, [&](Communicator& comm) {
    per_rank[comm.rank()] = parallel_msbfs(
        comm, *cluster.dbs[comm.rank()], sources, dst, options);
  });
  return per_rank;
}

BfsStats run_single(MsBfsCluster& cluster, VertexId src, VertexId dst,
                    const BfsOptions& options) {
  MetricsRegistry traffic;
  CommWorld world(cluster.nodes, traffic);
  BfsStats rank0;
  run_cluster(world, [&](Communicator& comm) {
    const BfsStats stats =
        parallel_oocbfs(comm, *cluster.dbs[comm.rank()], src, dst, options);
    if (comm.rank() == 0) rank0 = stats;
  });
  return rank0;
}

TEST(MsBfsEquivalence, BatchedDistancesMatchIndependentRunsAcrossWiresAndNodes) {
  for (const int nodes : {1, 2, 4}) {
    MsBfsCluster cluster(nodes, 4000 + nodes);
    const auto pairs = sample_random_pairs(*cluster.reference, 6, 17);
    ASSERT_FALSE(pairs.empty());
    const VertexId dst = pairs.front().dst;
    std::vector<VertexId> sources;
    for (const auto& pair : pairs) sources.push_back(pair.src);
    // One source past every stored vertex rides along: it reaches
    // nothing, and the real sources' answers must not change.
    const std::size_t far = sources.size() / 2;
    sources.insert(sources.begin() + static_cast<std::ptrdiff_t>(far),
                   kFarVertex);

    for (const WireFormat wire : {WireFormat::kRaw, WireFormat::kDelta}) {
      SCOPED_TRACE(::testing::Message()
                   << "nodes=" << nodes
                   << " wire=" << (wire == WireFormat::kRaw ? "raw" : "delta"));
      MsBfsOptions options;
      options.wire = wire;
      const auto per_rank = run_batched(cluster, sources, dst, options);

      // The distance vector is globally consistent...
      for (int r = 1; r < nodes; ++r) {
        ASSERT_EQ(per_rank[r].distance, per_rank[0].distance) << "rank " << r;
        ASSERT_EQ(per_rank[r].discovered, per_rank[0].discovered)
            << "rank " << r;
      }
      // ...and every entry equals the independent single-source search.
      ASSERT_EQ(per_rank[0].distance.size(), sources.size());
      EXPECT_EQ(per_rank[0].distance[far], kUnvisited);
      EXPECT_EQ(per_rank[0].discovered[far], 0u);
      for (std::size_t s = 0; s < sources.size(); ++s) {
        if (s == far) continue;
        BfsOptions single;
        single.wire = wire;
        const BfsStats alone = run_single(cluster, sources[s], dst, single);
        EXPECT_EQ(per_rank[0].distance[s], alone.distance)
            << "source " << sources[s];
      }
    }
  }
}

TEST(MsBfsEquivalence, RawAndDeltaWiresAgreeOnEveryCounter) {
  // Level-synchronous with rank-ordered merges: like Algorithm 1, every
  // counter is a pure function of the graph and the batch.
  for (const int nodes : {1, 2, 4}) {
    MsBfsCluster cluster(nodes, 5100);
    const auto pairs = sample_random_pairs(*cluster.reference, 8, 23);
    ASSERT_FALSE(pairs.empty());
    std::vector<VertexId> sources;
    for (const auto& pair : pairs) sources.push_back(pair.src);

    MsBfsOptions raw_options;
    raw_options.wire = WireFormat::kRaw;
    MsBfsOptions delta_options;
    delta_options.wire = WireFormat::kDelta;
    const auto raw = run_batched(cluster, sources, kInvalidVertex, raw_options);
    const auto delta =
        run_batched(cluster, sources, kInvalidVertex, delta_options);
    for (int r = 0; r < nodes; ++r) {
      SCOPED_TRACE(::testing::Message() << "nodes=" << nodes << " rank=" << r);
      EXPECT_EQ(raw[r].distance, delta[r].distance);
      EXPECT_EQ(raw[r].discovered, delta[r].discovered);
      EXPECT_EQ(raw[r].levels, delta[r].levels);
      EXPECT_EQ(raw[r].edges_scanned, delta[r].edges_scanned);
      EXPECT_EQ(raw[r].adjacency_fetches, delta[r].adjacency_fetches);
      EXPECT_EQ(raw[r].shared_scans_saved, delta[r].shared_scans_saved);
      EXPECT_EQ(raw[r].fringe_messages, delta[r].fringe_messages);
    }
  }
}

TEST(MsBfsEquivalence, DiscoveredCountsMatchKHopAnalysis) {
  // dst = kInvalidVertex with a level cap is exactly the k-hop analysis,
  // batched: discovered[s] must equal the reference k-hop count of src_s.
  constexpr Metadata kHops = 3;
  MsBfsCluster cluster(4, 6200);
  const auto pairs = sample_random_pairs(*cluster.reference, 5, 41);
  ASSERT_FALSE(pairs.empty());
  std::vector<VertexId> sources;
  for (const auto& pair : pairs) sources.push_back(pair.src);

  MsBfsOptions options;
  options.max_levels = kHops;
  const auto per_rank = run_batched(cluster, sources, kInvalidVertex, options);
  ASSERT_EQ(per_rank[0].discovered.size(), sources.size());

  for (std::size_t s = 0; s < sources.size(); ++s) {
    EXPECT_EQ(per_rank[0].discovered[s],
              testing::reference_khop(*cluster.reference, sources[s], kHops))
        << "source " << sources[s];
  }

  // A k-hop from an id past every stored vertex discovers nothing; the
  // id must not size the search's per-vertex state.
  const std::vector<VertexId> far{kFarVertex};
  for (const auto& stats :
       run_batched(cluster, far, kInvalidVertex, options)) {
    EXPECT_EQ(stats.discovered, (std::vector<std::uint64_t>{0}));
    EXPECT_EQ(stats.edges_scanned, 0u);
  }
}

TEST(MsBfsEquivalence, SharedScanAccountingHoldsOnOverlappingBatch) {
  MsBfsCluster cluster(2, 7300);
  const auto pairs = sample_random_pairs(*cluster.reference, 8, 9);
  ASSERT_GE(pairs.size(), 4u);
  std::vector<VertexId> sources;
  for (const auto& pair : pairs) sources.push_back(pair.src);

  // A single-source batch shares nothing.
  const auto solo =
      run_batched(cluster, std::vector<VertexId>{sources[0]}, kInvalidVertex,
                  MsBfsOptions{});
  for (const auto& stats : solo) EXPECT_EQ(stats.shared_scans_saved, 0u);

  // On a small-world graph the frontiers of 8 sources overlap within a
  // few levels, so batching must save repeated fetches somewhere.
  const auto batch =
      run_batched(cluster, sources, kInvalidVertex, MsBfsOptions{});
  std::uint64_t saved = 0;
  for (const auto& stats : batch) saved += stats.shared_scans_saved;
  EXPECT_GT(saved, 0u);
}

TEST(MsBfsEquivalence, TokenBudgetTruncatesDeterministically) {
  MsBfsCluster cluster(2, 8400);
  const auto pairs = sample_random_pairs(*cluster.reference, 4, 63);
  ASSERT_FALSE(pairs.empty());
  std::vector<VertexId> sources;
  for (const auto& pair : pairs) sources.push_back(pair.src);

  // A budget far below the unbounded scan volume must truncate; the
  // truncated flag is globally consistent.
  const auto free_run =
      run_batched(cluster, sources, kInvalidVertex, MsBfsOptions{});
  std::uint64_t total_scanned = 0;
  for (const auto& stats : free_run) {
    EXPECT_FALSE(stats.truncated);
    total_scanned += stats.edges_scanned;
  }
  ASSERT_GT(total_scanned, 100u);

  QueryBudget budget(total_scanned / 20);
  MsBfsOptions capped;
  capped.budget = &budget;
  const auto cut = run_batched(cluster, sources, kInvalidVertex, capped);
  for (const auto& stats : cut) EXPECT_TRUE(stats.truncated);
  EXPECT_TRUE(budget.exhausted());
  // Truncation happens at a level boundary, never mid-level, so the
  // batch still expanded at least the sources' own level.
  EXPECT_GE(cut[0].levels, 1u);
}

}  // namespace
}  // namespace mssg
