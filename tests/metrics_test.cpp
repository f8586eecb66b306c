// The unified metrics/tracing layer: registry semantics, snapshot
// serialization, and the end-to-end reproducibility contract — two
// same-seed cluster runs must produce byte-identical counter snapshots.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/temp_dir.hpp"
#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "mssg/mssg.hpp"
#include "serve/session.hpp"

namespace mssg {
namespace {

// ---- Registry --------------------------------------------------------------

TEST(Metrics, CounterReferenceIsStableAcrossRegistrations) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a");
  a += 3;
  // Force rebalancing/allocation with many more registrations.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i)) += 1;
  }
  a += 4;  // the old reference must still point at the live slot
  EXPECT_EQ(reg.snapshot().counter("a"), 7u);
}

TEST(Metrics, HistogramBucketsByPowerOfTwo) {
  HistogramData h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(1000);
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 1006u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1000u);
  EXPECT_EQ(h.buckets[0], 1u);  // value 0
  EXPECT_EQ(h.buckets[1], 1u);  // value 1
  EXPECT_EQ(h.buckets[2], 2u);  // values 2, 3
  EXPECT_EQ(h.buckets[10], 1u);  // 1000 needs 10 bits
  EXPECT_GE(h.quantile_bound(0.5), 1u);
  EXPECT_GE(h.quantile_bound(0.99), h.quantile_bound(0.5));
}

TEST(Metrics, SpanCountsAndRecordsDuration) {
  MetricsRegistry reg;
  { const TraceSpan span = reg.span("work"); }
  { const TraceSpan span = reg.span("work"); }
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("span.work"), 2u);
  EXPECT_EQ(snap.histograms.at("span.work.us").count, 2u);
}

TEST(Metrics, MovedFromSpanIsInert) {
  MetricsRegistry reg;
  {
    TraceSpan outer;
    {
      TraceSpan inner = reg.span("once");
      outer = std::move(inner);
    }  // inner destroyed moved-from: must not record
  }    // outer records exactly once
  EXPECT_EQ(reg.snapshot().counter("span.once"), 1u);
}

TEST(Metrics, DefaultSpanIsANoOp) {
  TraceSpan span;  // instrumentation disabled: must not crash
  span.finish();
}

// ---- Snapshot --------------------------------------------------------------

TEST(Metrics, SnapshotMergeSumsCountersAndHistograms) {
  MetricsSnapshot a, b;
  a.add("x", 2);
  a.add("only_a", 1);
  b.add("x", 5);
  b.add("only_b", 7);
  a.histograms["h"].record(4);
  b.histograms["h"].record(16);

  a.merge(b);
  EXPECT_EQ(a.counter("x"), 7u);
  EXPECT_EQ(a.counter("only_a"), 1u);
  EXPECT_EQ(a.counter("only_b"), 7u);
  EXPECT_EQ(a.histograms.at("h").count, 2u);
  EXPECT_EQ(a.histograms.at("h").sum, 20u);
}

TEST(Metrics, JsonAndCsvRenderAllEntries) {
  MetricsSnapshot snap;
  snap.add("io.reads", 12);
  snap.histograms["span.level.us"].record(100);
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"io.reads\":12"), std::string::npos);
  EXPECT_NE(json.find("\"span.level.us\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  const std::string csv = snap.to_csv();
  EXPECT_NE(csv.find("counter,io.reads,12"), std::string::npos);
  EXPECT_NE(csv.find("histogram,span.level.us,1,100"), std::string::npos);
}

TEST(Metrics, DeterministicStringExcludesHistograms) {
  MetricsSnapshot snap;
  snap.add("b", 2);
  snap.add("a", 1);
  snap.histograms["wallclock"].record(42);  // must not appear
  EXPECT_EQ(snap.deterministic_string(), "a=1\nb=2\n");
}

// ---- End-to-end reproducibility -------------------------------------------

// Builds a fresh 4-node grDB cluster, ingests a seeded scale-free graph,
// and runs one BFS; returns the merged snapshot.  A single front-end
// node keeps the edge-stream order fixed and the generous auto-sized
// cache avoids eviction races, so every counter is a pure function of
// the seed.
MetricsSnapshot seeded_run() {
  ClusterConfig config;
  config.backend_nodes = 4;
  config.frontend_nodes = 1;
  config.backend = Backend::kGrDB;

  ChungLuConfig graph{.vertices = 300, .edges = 1500, .seed = 99};
  const auto edges = generate_chung_lu(graph);
  config.db.max_vertices = graph.vertices;

  MssgCluster cluster(std::move(config));
  cluster.ingest(edges);
  cluster.bfs(1, 2);
  return cluster.metrics_snapshot();
}

TEST(MetricsDeterminism, SameSeedRunsProduceIdenticalSnapshots) {
  const MetricsSnapshot first = seeded_run();
  const MetricsSnapshot second = seeded_run();
  EXPECT_EQ(first.deterministic_string(), second.deterministic_string());

  // The snapshot actually unifies every layer: query counters, ingestion
  // counters, storage I/O, and comm traffic all present and non-zero.
  EXPECT_EQ(first.counter("bfs.queries"), 4u);  // one per backend node
  EXPECT_GT(first.counter("bfs.edges_scanned"), 0u);
  EXPECT_GT(first.counter("span.bfs.level"), 0u);
  EXPECT_GT(first.counter("ingest.edges_stored"), 0u);
  EXPECT_GT(first.counter("span.ingest.window"), 0u);
  EXPECT_GT(first.counter("io.reads") + first.counter("io.writes"), 0u);
  EXPECT_GT(first.counter("comm.messages_sent"), 0u);
  EXPECT_GT(first.counter("grdb.level0.subblocks"), 0u);
}

// ---- Counter-name contract -------------------------------------------------

// Every counter name published before IoStats became a set of registry
// handles, generated then from seeded_run() plus one snapshots-on grDB
// node.  perfbench/driver.cpp reads io.*, storage.*, comm.*, bfs.* and
// txn.* by name, and a renamed counter would read as 0 there without
// failing anything, so none of these may go missing.
constexpr std::string_view kContractNames[] = {
    "bfs.discovered_owned", "bfs.edges_scanned", "bfs.found",
    "bfs.fringe_messages", "bfs.levels", "bfs.queries", "bfs.vertices_expanded",
    "cache.qprobation_hits", "cache.qprotected_hits",
    "comm.broadcast_copies_avoided", "comm.bytes_sent", "comm.messages_sent",
    "comm.payload_bytes_encoded", "comm.payload_bytes_raw", "grdb.level0.free",
    "grdb.level0.subblocks", "grdb.level1.free", "grdb.level1.subblocks",
    "grdb.level2.free", "grdb.level2.subblocks", "grdb.level3.free",
    "grdb.level3.subblocks", "grdb.level4.free", "grdb.level4.subblocks",
    "grdb.level5.free", "grdb.level5.subblocks", "ingest.batches",
    "ingest.edges_routed", "ingest.edges_stored",
    "ingest.payload_bytes_encoded", "ingest.payload_bytes_raw",
    "ingest.windows", "io.bytes_read", "io.bytes_written", "io.cache_evictions",
    "io.cache_hits", "io.cache_misses", "io.cache_pin_leaks",
    "io.engine.dropped_errors", "io.prefetch_hits",
    "io.prefetch_issued", "io.read_stalls", "io.reads", "io.syncs",
    "io.vectored_merges", "io.writes", "journal.deferred_flushes",
    "journal.group_commits", "span.bfs.level", "span.ingest.window",
    "storage.checksum_failures", "storage.checksum_torn",
    "storage.journal_records", "storage.journal_replays", "txn.committed_epoch",
    "txn.cow_pages", "txn.epochs_live", "txn.snapshot_reads",
    "txn.versions_held",
};

// The storage rows every backend publishes (zeroes when in memory).
constexpr std::string_view kStorageNames[] = {
    "cache.qprobation_hits", "cache.qprotected_hits", "io.bytes_read",
    "io.bytes_written", "io.cache_evictions", "io.cache_hits",
    "io.cache_misses", "io.cache_pin_leaks", "io.engine.dropped_errors",
    "io.prefetch_hits", "io.prefetch_issued", "io.read_stalls", "io.reads",
    "io.syncs", "io.vectored_merges", "io.writes", "journal.deferred_flushes",
    "journal.group_commits", "storage.checksum_failures",
    "storage.checksum_torn", "storage.journal_records", "storage.journal_replays", "txn.cow_pages",
    "txn.snapshot_reads",
};

TEST(MetricsContract, EveryCounterNameIsStillPublished) {
  std::set<std::string, std::less<>> names;
  for (const auto& [name, value] : seeded_run().counters) names.insert(name);
  {
    TempDir dir;
    GraphDBConfig config;
    config.dir = dir.path();
    config.snapshots = true;
    auto db = make_graphdb(Backend::kGrDB, config);
    db->store_edges(std::vector<Edge>{{1, 2}, {2, 3}});
    db->flush();
    MetricsSnapshot snap;
    db->publish_metrics(snap);
    for (const auto& [name, value] : snap.counters) names.insert(name);
  }
  for (const std::string_view name : kContractNames) {
    EXPECT_TRUE(names.contains(name)) << name << " is no longer published";
  }
}

TEST(MetricsContract, InMemoryBackendsPublishStorageRowsAsZeros) {
  for (const Backend backend : {Backend::kArray, Backend::kHashMap}) {
    TempDir dir;
    GraphDBConfig config;
    config.dir = dir.path();
    auto db = make_graphdb(backend, config);
    db->store_edges(std::vector<Edge>{{1, 2}, {2, 3}});
    db->finalize_ingest();
    std::vector<VertexId> out;
    db->get_adjacency(1, out);
    MetricsSnapshot snap;
    db->publish_metrics(snap);
    for (const std::string_view name : kStorageNames) {
      ASSERT_TRUE(snap.counters.contains(std::string(name)))
          << to_string(backend) << " lacks " << name;
      EXPECT_EQ(snap.counter(name), 0u) << to_string(backend) << " " << name;
    }
  }
}

// ---- Live reads ------------------------------------------------------------

// The merged view is readable while work runs: one thread snapshots the
// cluster in a loop while direct searches, then eight concurrent
// scheduled analyses, run on a 4-node grDB cluster whose cache is far
// smaller than its graph (so storage counters, the IoEngine's prefetch
// reads and comm traffic all move under the reader).  Every cumulative
// counter the reader sees must be monotone.
TEST(MetricsLive, SnapshotWhileQueriesRun) {
  ChungLuConfig gen{.vertices = 800, .edges = 4000, .seed = 41};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);
  const auto pairs = sample_random_pairs(reference, 8, 7);
  ASSERT_EQ(pairs.size(), 8u);

  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 4;
  config.db.cache_bytes = 16 << 10;  // starved: most reads miss
  config.db.max_vertices = gen.vertices;
  config.scheduler.max_inflight = 8;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  constexpr std::uint64_t kSearches = 40;
  const char* const kMonotone[] = {"bfs.queries", "io.reads",
                                   "comm.messages_sent"};
  std::atomic<bool> stop{false};
  std::uint64_t snapshots = 0;
  std::uint64_t regressions = 0;
  std::thread reader([&] {
    MetricsSnapshot prev = cluster.metrics_snapshot();
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot next = cluster.metrics_snapshot();
      for (const char* name : kMonotone) {
        if (next.counter(name) < prev.counter(name)) ++regressions;
      }
      prev = std::move(next);
      ++snapshots;
    }
  });

  BfsOptions options;
  options.prefetch = true;  // engine reads race the reader too
  for (std::uint64_t i = 0; i < kSearches; ++i) {
    const auto& pair = pairs[i % pairs.size()];
    EXPECT_EQ(cluster.bfs(pair.src, pair.dst, options).distance,
              pair.distance);
  }
  std::vector<QueryScheduler::Ticket> tickets;
  for (const auto& pair : pairs) {
    tickets.push_back(cluster.submit_analysis("cbfs", {pair.src, pair.dst}));
  }
  for (std::size_t q = 0; q < tickets.size(); ++q) {
    const QueryOutcome out = cluster.await_query(tickets[q]);
    ASSERT_TRUE(out.ok()) << out.error;
    EXPECT_EQ(static_cast<Metadata>(out.result.at(0)), pairs[q].distance);
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(regressions, 0u) << "a cumulative counter went backwards";
  const MetricsSnapshot final_view = cluster.metrics_snapshot();
  EXPECT_EQ(final_view.counter("bfs.queries"), 4 * kSearches);
  EXPECT_GT(final_view.counter("io.reads"), 0u);
}

// metrics_snapshot() next to a live writer: a 4-node grDB cluster with
// snapshots on commits live_ingest batches while PATH reads run through
// the serve layer and a third thread snapshots the cluster in a loop.
// The committed epoch and every level's allocation gauge only grow, so
// no snapshot may show one lower than the snapshot before it.
TEST(MetricsLive, SnapshotWhileLiveIngestCommits) {
  ChungLuConfig gen{.vertices = 600, .edges = 3000, .seed = 43};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);
  const auto pairs = sample_random_pairs(reference, 6, 13);
  ASSERT_FALSE(pairs.empty());

  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 4;
  config.db.snapshots = true;
  config.db.max_vertices = gen.vertices;
  MssgCluster cluster(config);
  cluster.ingest(edges);
  serve::ServeSession session(cluster);

  std::vector<std::string> monotone{"txn.committed_epoch"};
  for (int l = 0; l < 6; ++l) {
    monotone.push_back("grdb.level" + std::to_string(l) + ".subblocks");
  }
  const MetricsSnapshot before = cluster.metrics_snapshot();
  std::atomic<bool> stop{false};
  std::uint64_t snapshots = 0;
  std::uint64_t regressions = 0;
  std::thread observer([&] {
    MetricsSnapshot prev = cluster.metrics_snapshot();
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot next = cluster.metrics_snapshot();
      for (const std::string& name : monotone) {
        if (next.counter(name) < prev.counter(name)) ++regressions;
      }
      prev = std::move(next);
      ++snapshots;
    }
  });
  constexpr int kBatches = 12;
  std::thread writer([&] {
    std::mt19937_64 rng(3);
    for (int b = 0; b < kBatches; ++b) {
      std::vector<Edge> batch;
      for (int i = 0; i < 256; ++i) {
        const VertexId u = rng() % gen.vertices;
        const VertexId v = rng() % gen.vertices;
        batch.push_back(Edge{u, v});
        batch.push_back(Edge{v, u});
      }
      cluster.live_ingest(batch);
    }
  });

  // Edges only arrive, so a committed distance can only shrink.
  for (int q = 0; q < 24; ++q) {
    const auto& pair = pairs[q % pairs.size()];
    const std::string text = "PATH " + std::to_string(pair.src) + " " +
                             std::to_string(pair.dst);
    const serve::ServeResult got = session.execute(text);
    EXPECT_TRUE(got.ok()) << text << ": " << got.error;
    if (!got.ok() || got.values.empty()) continue;
    EXPECT_GE(got.values[0], 1.0) << text;
    EXPECT_LE(got.values[0], static_cast<double>(pair.distance)) << text;
  }
  writer.join();
  stop.store(true, std::memory_order_relaxed);
  observer.join();

  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(regressions, 0u) << "a published gauge went backwards";
  const MetricsSnapshot after = cluster.metrics_snapshot();
  EXPECT_GT(after.counter("txn.committed_epoch"),
            before.counter("txn.committed_epoch"));
  EXPECT_GE(after.counter("grdb.level0.subblocks"),
            before.counter("grdb.level0.subblocks"));
}

}  // namespace
}  // namespace mssg
