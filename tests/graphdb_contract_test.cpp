// Contract tests run against every GraphDB backend: the six instances of
// chapter 4 must be observationally equivalent for storage + retrieval.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "storage/fault_injector.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

using testing::make_db;
using testing::sorted;
using testing::tiny_graph_directed;

class GraphDBContract : public ::testing::TestWithParam<Backend> {
 protected:
  GraphDBContract() : db_(make_db(GetParam(), dir_)) {}

  TempDir dir_;
  std::unique_ptr<GraphDB> db_;
};

TEST_P(GraphDBContract, EmptyDatabaseReturnsNoNeighbors) {
  std::vector<VertexId> out;
  db_->get_adjacency(42, out);
  EXPECT_TRUE(out.empty());
}

TEST_P(GraphDBContract, StoreAndRetrieveTinyGraph) {
  const auto edges = tiny_graph_directed();
  db_->store_edges(edges);
  db_->finalize_ingest();

  std::vector<VertexId> out;
  db_->get_adjacency(0, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{1, 3}));

  out.clear();
  db_->get_adjacency(1, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{0, 2, 4}));

  out.clear();
  db_->get_adjacency(5, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{6}));

  out.clear();
  db_->get_adjacency(7, out);  // never stored
  EXPECT_TRUE(out.empty());
}

TEST_P(GraphDBContract, IncrementalStoreAccumulates) {
  // The Array backend converts to CSR at finalize; all others must accept
  // incremental batches naturally.
  db_->store_edges(std::vector<Edge>{{1, 2}, {1, 3}});
  db_->store_edges(std::vector<Edge>{{1, 4}});
  db_->store_edges(std::vector<Edge>{{1, 5}, {2, 1}});
  db_->finalize_ingest();
  std::vector<VertexId> out;
  db_->get_adjacency(1, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{2, 3, 4, 5}));
}

TEST_P(GraphDBContract, DuplicateEdgesAreKept) {
  db_->store_edges(std::vector<Edge>{{1, 2}, {1, 2}, {1, 2}});
  db_->finalize_ingest();
  std::vector<VertexId> out;
  db_->get_adjacency(1, out);
  EXPECT_EQ(out.size(), 3u);
}

TEST_P(GraphDBContract, MetadataDefaultsToUnvisited) {
  EXPECT_EQ(db_->get_metadata(123), kUnvisited);
}

TEST_P(GraphDBContract, MetadataSetGetClear) {
  db_->set_metadata(7, 3);
  db_->set_metadata(9, 0);
  EXPECT_EQ(db_->get_metadata(7), 3);
  EXPECT_EQ(db_->get_metadata(9), 0);
  db_->clear_metadata(kUnvisited);
  EXPECT_EQ(db_->get_metadata(7), kUnvisited);
  db_->clear_metadata(-5);
  EXPECT_EQ(db_->get_metadata(7), -5);
}

TEST_P(GraphDBContract, AdjacencyFilteredByMetadataOps) {
  db_->store_edges(std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  db_->finalize_ingest();
  db_->set_metadata(1, 5);
  db_->set_metadata(2, 10);
  db_->set_metadata(3, 10);
  // vertex 4 stays kUnvisited (INT_MAX)

  std::vector<VertexId> out;
  db_->get_adjacency_using_metadata(0, out, 10, MetadataOp::kAll);
  EXPECT_EQ(out.size(), 4u);

  out.clear();
  db_->get_adjacency_using_metadata(0, out, 10, MetadataOp::kEqual);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{2, 3}));

  out.clear();
  db_->get_adjacency_using_metadata(0, out, 10, MetadataOp::kNotEqual);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{1, 4}));

  out.clear();
  db_->get_adjacency_using_metadata(0, out, 10, MetadataOp::kGreater);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{4}));

  out.clear();
  db_->get_adjacency_using_metadata(0, out, 10, MetadataOp::kLess);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{1}));
}

TEST_P(GraphDBContract, UnvisitedFilterSupportsBfsPattern) {
  // The BFS idiom: neighbors whose metadata == kUnvisited.
  db_->store_edges(std::vector<Edge>{{0, 1}, {0, 2}});
  db_->finalize_ingest();
  db_->set_metadata(1, 0);
  std::vector<VertexId> out;
  db_->get_adjacency_using_metadata(0, out, kUnvisited, MetadataOp::kEqual);
  EXPECT_EQ(out, (std::vector<VertexId>{2}));
}

// Property test: a random scale-free graph reads back identically to the
// in-memory reference on every backend.
TEST_P(GraphDBContract, RandomGraphMatchesReference) {
  ChungLuConfig config{.vertices = 400, .edges = 3000, .seed = 17};
  auto edges = generate_chung_lu(config);
  // Symmetrize as the ingestion service would.
  std::vector<Edge> directed;
  directed.reserve(edges.size() * 2);
  for (const auto& e : edges) {
    directed.push_back(e);
    directed.push_back(Edge{e.dst, e.src});
  }

  // Feed in several batches to exercise incremental growth.
  const std::size_t batch = 500;
  for (std::size_t i = 0; i < directed.size(); i += batch) {
    const auto n = std::min(batch, directed.size() - i);
    db_->store_edges(std::span(directed).subspan(i, n));
  }
  db_->finalize_ingest();

  const MemoryGraph reference(config.vertices, edges);
  std::vector<VertexId> out;
  for (VertexId v = 0; v < config.vertices; ++v) {
    out.clear();
    db_->get_adjacency(v, out);
    const auto expected = reference.neighbors(v);
    ASSERT_EQ(sorted(out),
              sorted(std::vector<VertexId>(expected.begin(), expected.end())))
        << "vertex " << v << " on " << db_->name();
  }
}

TEST_P(GraphDBContract, HighDegreeHubRoundTrips) {
  // A single vertex with 40k neighbors: crosses every grDB level and
  // many KVStore/Relational chunks.
  std::vector<Edge> edges;
  for (VertexId i = 1; i <= 40'000; ++i) edges.push_back({0, i});
  db_->store_edges(edges);
  db_->finalize_ingest();
  std::vector<VertexId> out;
  db_->get_adjacency(0, out);
  ASSERT_EQ(out.size(), 40'000u);
  auto s = sorted(out);
  for (VertexId i = 1; i <= 40'000; ++i) ASSERT_EQ(s[i - 1], i);
}

/// Checks get_adjacency_batch against per-vertex reads: exactly one visit
/// per request, in request order, each with get_adjacency's list; and a
/// visitor that stops at request k sees k + 1 visits.
void expect_batch_matches(GraphDB& db, const std::vector<VertexId>& requests) {
  std::vector<std::vector<VertexId>> expected(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    db.get_adjacency(requests[i], expected[i]);
  }
  std::size_t visits = 0;
  db.get_adjacency_batch(
      requests, [&](std::size_t i, std::span<const VertexId> list) {
        EXPECT_EQ(i, visits) << "visit out of order on " << db.name();
        if (i < expected.size()) {
          EXPECT_EQ(std::vector<VertexId>(list.begin(), list.end()),
                    expected[i])
              << "request " << i << " (vertex " << requests[i] << ") on "
              << db.name();
        }
        ++visits;
        return true;
      });
  EXPECT_EQ(visits, requests.size()) << db.name();

  // 4095 and 4096 straddle the first slice of grDB's staged walk.
  for (const std::size_t k : {std::size_t{0}, std::size_t{4095},
                              std::size_t{4096}, requests.size() / 2,
                              requests.size() - 1}) {
    if (k >= requests.size()) continue;
    std::size_t seen = 0;
    db.get_adjacency_batch(requests, [&](std::size_t i,
                                         std::span<const VertexId>) {
      ++seen;
      return i != k;
    });
    EXPECT_EQ(seen, k + 1) << "stop at request " << k << " on " << db.name();
  }
}

// The batched read every traversal uses: request order, duplicates,
// vertices with no local edges, ids far past every stored vertex (2^40,
// 2^56 — past grDB's level-0 address space — and the largest id), and
// an empty request list.
TEST_P(GraphDBContract, BatchMatchesPerVertexLookups) {
  {
    SCOPED_TRACE("empty store");
    expect_batch_matches(*db_, {1, 42, VertexId{1} << 56, kMaxVertexId});
  }
  db_->store_edges(
      std::vector<Edge>{{1, 2}, {1, 3}, {2, 4}, {3, 4}, {5, 1}, {2, 5}});
  {
    SCOPED_TRACE("tiny graph");
    // 3 and 4 have no out-edges, 99 was never stored.
    expect_batch_matches(*db_, {1, 2, 99, 3, 2, 1, 4, 5});
  }

  ChungLuConfig config{.vertices = 400, .edges = 3000, .seed = 17};
  std::vector<Edge> directed;
  for (const auto& e : generate_chung_lu(config)) {
    directed.push_back(Edge{e.src + 10, e.dst + 10});
    directed.push_back(Edge{e.dst + 10, e.src + 10});
  }
  for (std::size_t i = 0; i < directed.size(); i += 500) {
    db_->store_edges(std::span(directed).subspan(
        i, std::min<std::size_t>(500, directed.size() - i)));
  }
  db_->finalize_ingest();

  // Long enough to span several slices of grDB's staged walk.
  std::vector<VertexId> requests;
  for (int pass = 0; pass < 11; ++pass) {
    for (VertexId v = 0; v < config.vertices + 20; ++v) requests.push_back(v);
  }
  for (VertexId v = config.vertices; v-- > 0;) requests.push_back(v);
  requests.insert(requests.end(), {VertexId{1} << 40, 7, VertexId{1} << 56,
                                   kMaxVertexId, 7, 1});
  {
    SCOPED_TRACE("random graph");
    expect_batch_matches(*db_, requests);
  }

  std::size_t visits = 0;
  db_->get_adjacency_batch({}, [&](std::size_t, std::span<const VertexId>) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0u);
}

TEST_P(GraphDBContract, NameIsStable) {
  EXPECT_EQ(db_->name(), to_string(GetParam()));
}

// Every backend — in-memory or disk-backed — must publish its IoStats
// into the shared "io.*" counters of a MetricsSnapshot, and the values
// must match its registry exactly.
TEST_P(GraphDBContract, PublishesIoCountersIntoSharedRegistry) {
  db_->store_edges(tiny_graph_directed());
  db_->finalize_ingest();
  std::vector<VertexId> out;
  db_->get_adjacency(0, out);
  db_->get_adjacency(1, out);

  MetricsSnapshot snap;
  db_->publish_metrics(snap);

  const MetricsSnapshot io = db_->metrics().snapshot();
  EXPECT_EQ(snap.counter("io.reads"), io.counter("io.reads"));
  EXPECT_EQ(snap.counter("io.writes"), io.counter("io.writes"));
  EXPECT_EQ(snap.counter("io.bytes_read"), io.counter("io.bytes_read"));
  EXPECT_EQ(snap.counter("io.bytes_written"), io.counter("io.bytes_written"));
  EXPECT_EQ(snap.counter("io.cache_hits"), io.counter("io.cache_hits"));
  EXPECT_EQ(snap.counter("io.cache_misses"), io.counter("io.cache_misses"));
  // The schema keys exist even when a backend's values are zero, so
  // downstream consumers can rely on the full set being present.
  EXPECT_TRUE(snap.counters.contains("io.reads"));
  EXPECT_TRUE(snap.counters.contains("io.syncs"));
  EXPECT_TRUE(snap.counters.contains("io.cache_evictions"));
  EXPECT_TRUE(snap.counters.contains("io.cache_pin_leaks"));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, GraphDBContract,
    ::testing::Values(Backend::kArray, Backend::kHashMap, Backend::kRelational,
                      Backend::kKVStore, Backend::kStream, Backend::kGrDB),
    [](const ::testing::TestParamInfo<Backend>& param_info) {
      switch (param_info.param) {
        case Backend::kArray: return std::string("Array");
        case Backend::kHashMap: return std::string("HashMap");
        case Backend::kRelational: return std::string("Relational");
        case Backend::kKVStore: return std::string("KVStore");
        case Backend::kStream: return std::string("StreamDB");
        case Backend::kGrDB: return std::string("GrDB");
      }
      return std::string("unknown");
    });

// Disk-backed backends must survive reopen (Array/HashMap are in-memory).
class GraphDBPersistence : public ::testing::TestWithParam<Backend> {};

TEST_P(GraphDBPersistence, DataSurvivesReopen) {
  TempDir dir;
  {
    auto db = make_db(GetParam(), dir);
    db->store_edges(std::vector<Edge>{{1, 2}, {1, 3}, {4, 5}});
    db->finalize_ingest();
    db->flush();
  }
  auto db = make_db(GetParam(), dir);
  std::vector<VertexId> out;
  db->get_adjacency(1, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{2, 3}));
  out.clear();
  db->get_adjacency(4, out);
  EXPECT_EQ(out, (std::vector<VertexId>{5}));
}

// Reopen-after-crash clause: committed (flushed) data must survive a
// process that dies mid-way through a LATER batch — the reopen must not
// error and must serve the committed state unchanged.  (The exhaustive
// every-kill-point version of this lives in crash_recovery_test.cpp.)
TEST_P(GraphDBPersistence, CommittedDataSurvivesCrashedSecondBatch) {
  TempDir dir;
  {
    auto db = make_db(GetParam(), dir);
    db->store_edges(std::vector<Edge>{{1, 2}, {1, 3}, {4, 5}});
    db->finalize_ingest();
    db->flush();
  }
  // Kill the storage layer a few mutations into the second batch and
  // leave it dead (sticky) until the "process" goes away.
  FaultInjector::instance().clear();
  FaultInjector::Rule rule;
  rule.path_substring = dir.path().string();
  rule.op = FaultInjector::Op::kMutate;
  rule.kind = FaultInjector::Kind::kFail;
  rule.nth = 3;
  rule.kill = true;
  FaultInjector::instance().add_rule(rule);
  try {
    auto db = make_db(GetParam(), dir);
    std::vector<Edge> batch;
    for (VertexId v = 100; v < 400; ++v) batch.push_back({v, v + 1});
    db->store_edges(batch);
    db->flush();
  } catch (const StorageError&) {
    // Most kill points surface here; the rest die silently in dtors.
  }
  FaultInjector::instance().clear();

  auto db = make_db(GetParam(), dir);  // reopen must not throw
  std::vector<VertexId> out;
  db->get_adjacency(1, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{2, 3}));
  out.clear();
  db->get_adjacency(4, out);
  EXPECT_EQ(out, (std::vector<VertexId>{5}));
}

INSTANTIATE_TEST_SUITE_P(DiskBackends, GraphDBPersistence,
                         ::testing::Values(Backend::kRelational,
                                           Backend::kKVStore, Backend::kStream,
                                           Backend::kGrDB),
                         [](const ::testing::TestParamInfo<Backend>& param_info) {
                           return to_string(param_info.param).substr(
                               0, to_string(param_info.param).find('('));
                         });

// Cache-disabled configurations must behave identically (Figure 5.2).
class GraphDBNoCache : public ::testing::TestWithParam<Backend> {};

TEST_P(GraphDBNoCache, NoCacheMatchesCached) {
  TempDir dir_cached, dir_raw;
  GraphDBConfig no_cache;
  no_cache.cache_bytes = 0;
  auto cached = make_db(GetParam(), dir_cached);
  auto raw = make_db(GetParam(), dir_raw, no_cache);

  ChungLuConfig config{.vertices = 200, .edges = 1000, .seed = 23};
  const auto edges = generate_chung_lu(config);
  cached->store_edges(edges);
  raw->store_edges(edges);
  cached->finalize_ingest();
  raw->finalize_ingest();

  std::vector<VertexId> a, b;
  std::vector<VertexId> all;
  for (VertexId v = 0; v < 200; ++v) {
    a.clear();
    b.clear();
    cached->get_adjacency(v, a);
    raw->get_adjacency(v, b);
    ASSERT_EQ(sorted(a), sorted(b)) << v;
    all.push_back(v);
  }
  // The batched read agrees too, through the cache and without it.
  const auto cached_lists = testing::batch_lists(*cached, all);
  const auto raw_lists = testing::batch_lists(*raw, all);
  ASSERT_EQ(cached_lists.size(), all.size());
  ASSERT_EQ(raw_lists.size(), all.size());
  for (VertexId v = 0; v < 200; ++v) {
    ASSERT_EQ(sorted(cached_lists[v]), sorted(raw_lists[v])) << v;
  }
  // And the raw instance really did more disk I/O.
  const auto disk_ops = [](GraphDB& db) -> std::uint64_t {
    return db.metrics().counter("io.reads") + db.metrics().counter("io.writes");
  };
  EXPECT_GT(disk_ops(*raw), disk_ops(*cached));
}

INSTANTIATE_TEST_SUITE_P(CachedBackends, GraphDBNoCache,
                         ::testing::Values(Backend::kKVStore, Backend::kGrDB,
                                           Backend::kRelational),
                         [](const ::testing::TestParamInfo<Backend>& param_info) {
                           return to_string(param_info.param).substr(
                               0, to_string(param_info.param).find('('));
                         });

}  // namespace
}  // namespace mssg
