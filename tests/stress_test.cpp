// Stress and edge-case tests: stream back-pressure, communicator traffic
// storms, file-based cluster ingestion, and a grDB torture run on the
// standard geometry.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "common/rng.hpp"
#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "graphdb/grdb/grdb.hpp"
#include "ingest/edge_source.hpp"
#include "mssg/mssg.hpp"
#include "runtime/stream.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

// ---- DataStream back-pressure ----------------------------------------------

TEST(StreamBackpressure, BoundedQueueBlocksProducer) {
  DataStream stream(/*capacity=*/2);
  std::atomic<int> produced{0};
  std::thread producer([&] {
    for (int i = 0; i < 10; ++i) {
      stream.put(std::vector<std::byte>(8));
      ++produced;
    }
  });

  // Give the producer time to run ahead; it must stall at the bound.
  while (produced.load() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(produced.load(), 3);  // 2 queued + possibly 1 in flight
  EXPECT_LE(stream.pending(), 2u);

  int consumed = 0;
  while (consumed < 10) {
    if (stream.get().has_value()) ++consumed;
  }
  producer.join();
  EXPECT_EQ(produced.load(), 10);
}

TEST(StreamBackpressure, CloseUnblocksStalledProducer) {
  DataStream stream(/*capacity=*/1);
  std::thread producer([&] {
    stream.put(std::vector<std::byte>(8));
    stream.put(std::vector<std::byte>(8));  // blocks until close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stream.close();
  producer.join();  // must not hang
}

// ---- Communicator storm ----------------------------------------------------

TEST(CommStress, RandomTrafficMatrixDeliversEverything) {
  constexpr int kRanks = 8;
  constexpr int kMessagesPerRank = 200;
  std::atomic<std::uint64_t> received_sum{0};
  std::uint64_t expected_sum = 0;

  // Precompute the traffic (deterministic): rank r sends message m with
  // value r*1000+m to destination (r+m) % kRanks.
  for (int r = 0; r < kRanks; ++r) {
    for (int m = 0; m < kMessagesPerRank; ++m) {
      expected_sum += static_cast<std::uint64_t>(r) * 1000 + m;
    }
  }

  run_cluster(kRanks, [&](Communicator& comm) {
    const int me = comm.rank();
    // Interleave sends and receives to stress the mailboxes.
    int sent = 0, received = 0;
    std::uint64_t local_sum = 0;
    Rng rng(static_cast<std::uint64_t>(me) + 99);
    while (sent < kMessagesPerRank || received < kMessagesPerRank) {
      // Send when the coin says so, when receiving is done, or when no
      // message is waiting (avoids the all-ranks-blocked-on-recv start).
      if (sent < kMessagesPerRank &&
          (received >= kMessagesPerRank || rng.below(2) == 0 ||
           !comm.probe(7))) {
        const std::uint64_t value =
            static_cast<std::uint64_t>(me) * 1000 + sent;
        std::vector<std::byte> payload(sizeof(value));
        std::memcpy(payload.data(), &value, sizeof(value));
        comm.send(static_cast<Rank>((me + sent) % kRanks), 7,
                  std::move(payload));
        ++sent;
      } else {
        // Every rank receives exactly kMessagesPerRank messages in this
        // traffic pattern ((r+m) % kRanks is balanced).
        const auto msg = comm.recv(7);
        std::uint64_t value;
        std::memcpy(&value, msg.payload.data(), sizeof(value));
        local_sum += value;
        ++received;
      }
    }
    received_sum += local_sum;
  });
  EXPECT_EQ(received_sum.load(), expected_sum);
}

TEST(CommStress, CollectivesUnderRepetition) {
  run_cluster(6, [](Communicator& comm) {
    Rng rng(static_cast<std::uint64_t>(comm.rank()));
    for (int round = 0; round < 200; ++round) {
      const auto value = static_cast<std::uint64_t>(comm.rank()) + round;
      const auto sum = comm.allreduce_sum(value);
      EXPECT_EQ(sum, 15u + 6u * round);  // 0+1+..+5 + 6*round
      const auto max = comm.allreduce_max(value);
      EXPECT_EQ(max, 5u + round);
      const auto min = comm.allreduce_min(value);
      EXPECT_EQ(min, static_cast<std::uint64_t>(round));
    }
  });
}

// ---- File-based cluster ingestion -------------------------------------------

TEST(FileIngestion, MultipleBinaryShardsThroughCluster) {
  ChungLuConfig gen{.vertices = 300, .edges = 1500, .seed = 121};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);

  // Write 3 shard files, one per front-end node.
  TempDir dir;
  std::vector<std::unique_ptr<EdgeSource>> sources;
  const auto shards = shard_edges(edges, 3);
  for (int i = 0; i < 3; ++i) {
    const auto path = dir.path() / ("shard" + std::to_string(i) + ".bin");
    write_binary_edges(path, shards[i]);
    sources.push_back(std::make_unique<BinaryEdgeSource>(path));
  }

  ClusterConfig config;
  config.frontend_nodes = 3;
  config.backend_nodes = 4;
  config.backend = Backend::kGrDB;
  MssgCluster cluster(config);
  const auto report = cluster.ingest(std::move(sources));
  EXPECT_EQ(report.edges_stored, 2 * edges.size());

  for (const auto& pair : sample_random_pairs(reference, 5, 5)) {
    EXPECT_EQ(cluster.bfs(pair.src, pair.dst).distance, pair.distance);
  }
}

// ---- grDB torture on the standard geometry ----------------------------------

TEST(GrdbTorture, StandardGeometryRandomMultigraph) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  config.cache_bytes = 4u << 20;
  std::filesystem::create_directories(config.dir);

  // A multigraph with duplicates, self-referencing batches, and a mix of
  // degrees from 1 to several thousand.
  Rng rng(777);
  constexpr VertexId kVertices = 2000;
  std::vector<Edge> all;
  std::vector<std::vector<VertexId>> expected(kVertices);
  for (int i = 0; i < 60'000; ++i) {
    // Skew sources toward low ids so a few vertices become hubs.
    const VertexId src = rng.below(rng.below(kVertices) + 1);
    const VertexId dst = rng.below(kVertices);
    all.push_back({src, dst});
    expected[src].push_back(dst);
  }

  {
    GrDB db(config);
    // Irregular batch sizes.
    std::size_t pos = 0;
    while (pos < all.size()) {
      const std::size_t n = 1 + rng.below(700);
      const auto take = std::min(n, all.size() - pos);
      db.store_edges(std::span(all).subspan(pos, take));
      pos += take;
    }
    const auto report = db.verify();
    ASSERT_TRUE(report.ok()) << report.errors.front();
    EXPECT_EQ(report.entries, all.size());
    db.flush();
  }

  // Reopen, check every adjacency list, defragment, re-check.
  GrDB db(config);
  std::vector<VertexId> out;
  for (VertexId v = 0; v < kVertices; ++v) {
    out.clear();
    db.get_adjacency(v, out);
    ASSERT_EQ(testing::sorted(out), testing::sorted(expected[v])) << v;
  }
  db.defragment();
  const auto report = db.verify();
  ASSERT_TRUE(report.ok()) << report.errors.front();
  for (VertexId v = 0; v < kVertices; v += 37) {
    out.clear();
    db.get_adjacency(v, out);
    ASSERT_EQ(testing::sorted(out), testing::sorted(expected[v])) << v;
  }
}

TEST(GrdbTorture, CopyUpModeStandardGeometry) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  config.cache_bytes = 4u << 20;
  std::filesystem::create_directories(config.dir);
  GrDBOptions options;
  options.growth = GrDBGrowth::kCopyUp;
  GrDB db(config, options);

  Rng rng(888);
  std::vector<std::vector<VertexId>> expected(500);
  for (int batch = 0; batch < 300; ++batch) {
    std::vector<Edge> edges;
    for (int i = 0; i < 100; ++i) {
      const VertexId src = rng.below(500);
      const VertexId dst = rng.below(500);
      edges.push_back({src, dst});
      expected[src].push_back(dst);
    }
    db.store_edges(edges);
  }
  const auto report = db.verify();
  ASSERT_TRUE(report.ok()) << report.errors.front();
  std::vector<VertexId> out;
  for (VertexId v = 0; v < 500; ++v) {
    out.clear();
    db.get_adjacency(v, out);
    ASSERT_EQ(testing::sorted(out), testing::sorted(expected[v])) << v;
  }
}

// ---- Pipelined BFS extreme threshold ----------------------------------------

TEST(PipelinedExtreme, ThresholdOneStillCorrect) {
  ChungLuConfig gen{.vertices = 200, .edges = 900, .seed = 131};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);

  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 4;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  BfsOptions options;
  options.pipelined = true;
  options.pipeline_threshold = 1;  // a message per discovered vertex
  for (const auto& pair : sample_random_pairs(reference, 5, 7)) {
    EXPECT_EQ(cluster.bfs(pair.src, pair.dst, options).distance,
              pair.distance);
  }
}

}  // namespace
}  // namespace mssg
