// Wire-format equivalence and compression regression for the parallel
// BFS (ISSUE: the codec must change how many bytes move, never what the
// search computes).
//
// Determinism scope: Algorithm 1 merges peer fringes in rank order, so
// every counter is a pure function of the graph and the query — raw and
// delta wires must agree bit-for-bit on all of them.  Algorithm 2's
// chunk arrival interleaving is scheduling-dependent, so its
// final-level early stop makes edges_scanned / discovered_owned /
// fringe_messages legitimately vary run to run; there the equivalence
// contract covers the values that stay deterministic: path results,
// levels, and expanded-fringe sizes.
#include <gtest/gtest.h>

#include <mutex>

#include "common/vertex_codec.hpp"
#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "query/bfs.hpp"
#include "runtime/comm.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

using testing::make_db;

constexpr int kNodes = 4;

/// The standard fixture: a small-world graph partitioned by
/// owner(v) = v mod p, the experiments' configuration.
struct WireCluster {
  explicit WireCluster(std::uint64_t seed) {
    ChungLuConfig config{.vertices = 2000, .edges = 8000, .seed = seed};
    edges = generate_chung_lu(config);
    reference = std::make_unique<MemoryGraph>(config.vertices, edges);
    std::vector<std::vector<Edge>> per_node(kNodes);
    for (const auto& e : edges) {
      per_node[e.src % kNodes].push_back(e);
      per_node[e.dst % kNodes].push_back(Edge{e.dst, e.src});
    }
    for (int n = 0; n < kNodes; ++n) {
      dirs.emplace_back();
      dbs.push_back(make_db(Backend::kHashMap, dirs.back()));
      dbs[n]->store_edges(per_node[n]);
      dbs[n]->finalize_ingest();
    }
  }

  std::vector<Edge> edges;
  std::unique_ptr<MemoryGraph> reference;
  std::vector<TempDir> dirs;
  std::vector<std::unique_ptr<GraphDB>> dbs;
};

/// One full query under its own CommWorld, so the traffic counters
/// isolate exactly this run.
struct RunOutcome {
  std::vector<BfsStats> per_rank{kNodes};
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t payload_raw = 0;
  std::uint64_t payload_encoded = 0;
};

RunOutcome run_one(WireCluster& cluster, VertexId src, VertexId dst,
                   const BfsOptions& options) {
  MetricsRegistry traffic;
  CommWorld world(kNodes, traffic);
  RunOutcome out;
  run_cluster(world, [&](Communicator& comm) {
    out.per_rank[comm.rank()] =
        parallel_oocbfs(comm, *cluster.dbs[comm.rank()], src, dst, options);
  });
  out.messages_sent = traffic.counter("comm.messages_sent").load();
  out.bytes_sent = traffic.counter("comm.bytes_sent").load();
  out.payload_raw = traffic.counter("comm.payload_bytes_raw").load();
  out.payload_encoded = traffic.counter("comm.payload_bytes_encoded").load();
  return out;
}

TEST(BfsWireEquivalence, PlainModeCountersIdenticalRawVsDelta) {
  WireCluster cluster(4242);
  const auto pairs = sample_random_pairs(*cluster.reference, 8, 99);
  ASSERT_FALSE(pairs.empty());

  BfsOptions raw_options;
  raw_options.wire = WireFormat::kRaw;
  BfsOptions delta_options;
  delta_options.wire = WireFormat::kDelta;

  for (const auto& pair : pairs) {
    const auto raw = run_one(cluster, pair.src, pair.dst, raw_options);
    const auto delta = run_one(cluster, pair.src, pair.dst, delta_options);
    for (int r = 0; r < kNodes; ++r) {
      const auto& a = raw.per_rank[r];
      const auto& b = delta.per_rank[r];
      EXPECT_EQ(a.distance, pair.distance);
      EXPECT_EQ(a.distance, b.distance);
      EXPECT_EQ(a.levels, b.levels);
      EXPECT_EQ(a.vertices_expanded, b.vertices_expanded);
      EXPECT_EQ(a.discovered_owned, b.discovered_owned);
      EXPECT_EQ(a.edges_scanned, b.edges_scanned);
      EXPECT_EQ(a.fringe_messages, b.fringe_messages);
    }
    // Same fringe sets cross the wire either way.
    EXPECT_EQ(raw.payload_raw, delta.payload_raw);
    EXPECT_EQ(raw.messages_sent, delta.messages_sent);
  }
}

TEST(BfsWireEquivalence, PipelinedModeResultsIdenticalRawVsDelta) {
  WireCluster cluster(1717);
  const auto pairs = sample_random_pairs(*cluster.reference, 6, 31);
  ASSERT_FALSE(pairs.empty());

  BfsOptions raw_options;
  raw_options.pipelined = true;
  raw_options.pipeline_threshold = 8;
  raw_options.wire = WireFormat::kRaw;
  BfsOptions delta_options = raw_options;
  delta_options.wire = WireFormat::kDelta;

  for (const auto& pair : pairs) {
    const auto raw = run_one(cluster, pair.src, pair.dst, raw_options);
    const auto delta = run_one(cluster, pair.src, pair.dst, delta_options);
    for (int r = 0; r < kNodes; ++r) {
      const auto& a = raw.per_rank[r];
      const auto& b = delta.per_rank[r];
      EXPECT_EQ(a.distance, pair.distance);
      EXPECT_EQ(a.distance, b.distance);
      EXPECT_EQ(a.levels, b.levels);
      EXPECT_EQ(a.vertices_expanded, b.vertices_expanded);
    }
  }
}

TEST(BfsWireEquivalence, BroadcastModeResultsIdenticalRawVsDelta) {
  WireCluster cluster(2024);
  const auto pairs = sample_random_pairs(*cluster.reference, 4, 7);
  ASSERT_FALSE(pairs.empty());

  BfsOptions raw_options;
  raw_options.map_known = false;
  raw_options.wire = WireFormat::kRaw;
  BfsOptions delta_options = raw_options;
  delta_options.wire = WireFormat::kDelta;

  for (const auto& pair : pairs) {
    const auto raw = run_one(cluster, pair.src, pair.dst, raw_options);
    const auto delta = run_one(cluster, pair.src, pair.dst, delta_options);
    for (int r = 0; r < kNodes; ++r) {
      const auto& a = raw.per_rank[r];
      const auto& b = delta.per_rank[r];
      EXPECT_EQ(a.distance, pair.distance);
      EXPECT_EQ(a.distance, b.distance);
      EXPECT_EQ(a.levels, b.levels);
      EXPECT_EQ(a.vertices_expanded, b.vertices_expanded);
      EXPECT_EQ(a.discovered_owned, b.discovered_owned);
      EXPECT_EQ(a.edges_scanned, b.edges_scanned);
    }
  }
}

// Tier-1 compression guard: on the standard fixture the delta wire must
// genuinely compress — encoded bytes strictly below the raw payload
// bytes it replaced, and total bytes on the wire at least 3x below the
// raw-wire baseline.  If a codec regression ships fringes fat again,
// this test fails in the default ctest run.
TEST(BfsWireEquivalence, DeltaWireCompressesStandardFixtureAtLeast3x) {
  WireCluster cluster(909);
  const auto pairs = sample_random_pairs(*cluster.reference, 6, 55);
  ASSERT_FALSE(pairs.empty());

  std::uint64_t raw_bytes = 0;
  std::uint64_t delta_bytes = 0;
  std::uint64_t payload_raw = 0;
  std::uint64_t payload_encoded = 0;
  BfsOptions raw_options;
  raw_options.wire = WireFormat::kRaw;
  BfsOptions delta_options;
  delta_options.wire = WireFormat::kDelta;
  for (const auto& pair : pairs) {
    raw_bytes += run_one(cluster, pair.src, pair.dst, raw_options).bytes_sent;
    const auto delta = run_one(cluster, pair.src, pair.dst, delta_options);
    delta_bytes += delta.bytes_sent;
    payload_raw += delta.payload_raw;
    payload_encoded += delta.payload_encoded;
  }
  ASSERT_GT(payload_raw, 0u);
  EXPECT_LT(payload_encoded, payload_raw);
  EXPECT_GE(raw_bytes, 3 * delta_bytes)
      << "raw wire " << raw_bytes << " B vs delta wire " << delta_bytes
      << " B — compression regressed below 3x";
}

// Chunk coalescing: with a byte watermark, Algorithm 2 ships the same
// payload in at least 2x fewer messages than the chatty raw baseline
// (threshold-8 chunks).
TEST(BfsWireEquivalence, WatermarkCoalescingHalvesPipelinedMessages) {
  WireCluster cluster(606);
  const auto pairs = sample_random_pairs(*cluster.reference, 6, 21);
  ASSERT_FALSE(pairs.empty());

  BfsOptions chatty;
  chatty.pipelined = true;
  chatty.pipeline_threshold = 8;
  chatty.wire = WireFormat::kRaw;
  BfsOptions coalesced;
  coalesced.pipelined = true;
  coalesced.pipeline_threshold = 8;  // ignored once the watermark is set
  coalesced.wire = WireFormat::kDelta;
  coalesced.chunk_watermark_bytes = 4096;  // 512 vertices per chunk

  std::uint64_t chatty_msgs = 0;
  std::uint64_t coalesced_msgs = 0;
  for (const auto& pair : pairs) {
    const auto a = run_one(cluster, pair.src, pair.dst, chatty);
    const auto b = run_one(cluster, pair.src, pair.dst, coalesced);
    EXPECT_EQ(a.per_rank[0].distance, b.per_rank[0].distance);
    chatty_msgs += a.messages_sent;
    coalesced_msgs += b.messages_sent;
  }
  ASSERT_GT(coalesced_msgs, 0u);
  EXPECT_GE(chatty_msgs, 2 * coalesced_msgs)
      << "chatty " << chatty_msgs << " msgs vs coalesced " << coalesced_msgs;
}

}  // namespace
}  // namespace mssg
