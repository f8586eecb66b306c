// The serving front-end test wall (ISSUE 10).
//
// Five suites, all under the `serve` ctest label (both sanitizer
// presets via tools/ci_sanitize.sh):
//
//  - QueryLangParse / QueryLangFuzz: the lexer/parser/planner. Every
//    grammar form round-trips to the documented AST and plan shape;
//    hostile input (non-UTF8 bytes, overflow, truncation, trailing
//    garbage, deep repetition) and seeded random byte mutation come back
//    as STRUCTURED errors with byte positions — never a crash, never an
//    exception across the API boundary.  Failures print the generating
//    seed and the query bytes, so one filter run reproduces.
//  - QueryLangDifferential: every query form, executed through
//    parse -> plan -> ServeSession, is byte-identical to composing the
//    direct QueryService / point-lookup APIs — across all six backends
//    and 1/2/4-node clusters.  ServeLiveIngest repeats the differential
//    under snapshot-isolated live ingest.
//  - ServeDecluster: the registry and the serve layer on edge- and
//    vertex-round-robin clusters — traversals broadcast and match the
//    in-memory reference, owner-map analyses refuse with a UsageError.
//  - ServeScheduler: the SLO invariants.  A point lookup queued behind
//    running scans is admitted ahead of earlier-queued scans; a queued
//    query expires AT its deadline instead of starving; expiry/rejection
//    releases slots, budgets and cache-attribution scopes; serve.* and
//    sched.* counters balance; only Algorithms 1 and 2 are admitted
//    exclusively.
//  - ServeAccounting: plans that fan into several scheduler jobs sum
//    correctly over their sched.q<id>.* rows, and exact-fit token
//    budgets complete without a phantom truncation flag.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "mssg/mssg.hpp"
#include "serve/query_lang.hpp"
#include "serve/session.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

using serve::ParseResult;
using serve::Plan;
using serve::QueryClass;
using serve::ServeConfig;
using serve::ServeResult;
using serve::ServeSession;
using serve::Statement;

// ---- Parser: grammar round-trips -------------------------------------------

TEST(QueryLangParse, EveryFormRoundTripsToTheDocumentedAst) {
  {
    const ParseResult r = serve::parse_query("GET 5");
    ASSERT_TRUE(r.ok()) << r.error.to_string();
    EXPECT_EQ(r.statement->kind, Statement::Kind::kGet);
    EXPECT_EQ(r.statement->vertices, std::vector<VertexId>{5});
    EXPECT_FALSE(r.statement->where.present);
  }
  {
    const ParseResult r = serve::parse_query("get 12 where meta != 3");
    ASSERT_TRUE(r.ok()) << r.error.to_string();  // keywords case-insensitive
    EXPECT_TRUE(r.statement->where.present);
    EXPECT_EQ(r.statement->where.op, MetadataOp::kNotEqual);
    EXPECT_EQ(r.statement->where.value, 3);
  }
  {
    const ParseResult r = serve::parse_query("PATH 1 9 22 MAXLEN 5");
    ASSERT_TRUE(r.ok()) << r.error.to_string();
    EXPECT_EQ(r.statement->kind, Statement::Kind::kPath);
    EXPECT_EQ(r.statement->vertices, (std::vector<VertexId>{1, 9, 22}));
    EXPECT_EQ(r.statement->maxlen, 5u);
  }
  {
    const ParseResult r = serve::parse_query("NEIGHBORS 4 DEPTH 2 WHERE META < 7");
    ASSERT_TRUE(r.ok()) << r.error.to_string();
    EXPECT_EQ(r.statement->kind, Statement::Kind::kNeighbors);
    EXPECT_EQ(r.statement->depth, 2u);
    EXPECT_EQ(r.statement->where.op, MetadataOp::kLess);
  }
  {
    const ParseResult r = serve::parse_query("RANK TOP 10 ITER 3");
    ASSERT_TRUE(r.ok()) << r.error.to_string();
    EXPECT_EQ(r.statement->top_k, 10u);
    EXPECT_EQ(r.statement->iterations, 3u);
  }
  EXPECT_TRUE(serve::parse_query("CC").ok());
  EXPECT_TRUE(serve::parse_query("COUNT TRIANGLES").ok());
  EXPECT_TRUE(serve::parse_query("STATS").ok());
}

TEST(QueryLangParse, PlanShapesMatchTheContract) {
  {
    const auto r = serve::compile_query("GET 5");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.plan->query_class, QueryClass::kPoint);
    EXPECT_TRUE(r.plan->steps.empty());  // session-driven point lookup
  }
  {
    // Depth 1 is a point lookup; depth >= 2 is a bounded traversal.
    EXPECT_EQ(serve::compile_query("NEIGHBORS 3").plan->query_class,
              QueryClass::kPoint);
    EXPECT_EQ(serve::compile_query("NEIGHBORS 3 DEPTH 2").plan->query_class,
              QueryClass::kTraversal);
  }
  {
    // PATH fans into one cbfs step per consecutive leg.
    const auto r = serve::compile_query("PATH 1 2 3 4");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.plan->query_class, QueryClass::kTraversal);
    ASSERT_EQ(r.plan->steps.size(), 3u);
    for (const auto& step : r.plan->steps) {
      EXPECT_EQ(step.analysis, "cbfs");
      EXPECT_EQ(step.drop_trailing, 0u);  // the leg reads index 0 only
    }
    EXPECT_EQ(r.plan->steps[1].params, (std::vector<std::uint64_t>{2, 3}));
  }
  EXPECT_EQ(serve::compile_query("RANK TOP 4").plan->steps.at(0).analysis,
            "toprank");
  EXPECT_EQ(serve::compile_query("CC").plan->steps.at(0).analysis, "lp-cc");
  EXPECT_EQ(serve::compile_query("COUNT TRIANGLES").plan->steps.at(0).analysis,
            "triangles");
  {
    const auto r = serve::compile_query("STATS");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.plan->steps.at(0).analysis, "stats");
    EXPECT_EQ(r.plan->query_class, QueryClass::kScan);
    EXPECT_FALSE(r.plan->describe().empty());
  }
}

// ---- Parser: hostile corpus ------------------------------------------------

TEST(QueryLangParse, HostileCorpusFailsStructurally) {
  // Every entry must fail with a non-empty message and an in-bounds
  // byte position — and must not throw.
  const std::string corpus[] = {
      "",
      "   \t  ",
      "FOO BAR",
      "GET",
      "GET abc",
      "GET 1 2",                        // trailing input
      "GET 99999999999999999999999",    // u64 overflow
      "GET 1 WHERE",
      "GET 1 WHERE META",
      "GET 1 WHERE META ~ 3",
      "GET 1 WHERE META = 99999999999", // > INT32_MAX metadata
      "PATH 1",
      "PATH 1 2 MAXLEN",
      "PATH 1 2 MAXLEN 0",
      "PATH 1 2 MAXLEN 99999999999999999999",  // huge MAXLEN overflows
      "NEIGHBORS",
      "NEIGHBORS 1 DEPTH 0",
      "RANK",
      "RANK TOP",
      "RANK TOP 0",
      "RANK TOP 5 ITER 0",
      "COUNT",
      "COUNT SQUARES",
      "CC CC",
      "STATS NOW",
      "GET \"unterminated string",      // quotes are not in the language
      "((((((((((((((((((((",           // deep nesting is just hostile bytes
      std::string("GET \x80\x80\x80 5"),       // non-UTF8 bytes
      std::string("\xff\xfeGET 1"),
      std::string("GET 1\x00 2", 8),           // embedded NUL
  };
  for (const std::string& text : corpus) {
    SCOPED_TRACE(::testing::Message() << "query bytes: \"" << text << "\"");
    const ParseResult r = serve::parse_query(text);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.error.message.empty());
    EXPECT_LE(r.error.position, text.size());
  }
}

TEST(QueryLangParse, ErrorPositionsPointAtTheOffendingByte) {
  EXPECT_EQ(serve::parse_query("GET").error.position, 3u);  // end of input
  EXPECT_EQ(serve::parse_query("FOO BAR").error.position, 0u);
  EXPECT_EQ(serve::parse_query("NEIGHBORS 1 DEPTH 0").error.position, 18u);
  EXPECT_EQ(serve::parse_query("GET 1 EXTRA").error.position, 6u);
}

// ---- Parser: seeded random mutation fuzz -----------------------------------

std::string hex_dump(const std::string& bytes) {
  std::ostringstream os;
  for (const char c : bytes) {
    os << std::hex << (static_cast<unsigned>(c) & 0xffu) << ' ';
  }
  return os.str();
}

const char* const kFuzzTemplates[] = {
    "GET 5",
    "GET 12 WHERE META = 3",
    "PATH 1 9 22 MAXLEN 5",
    "NEIGHBORS 4 DEPTH 2 WHERE META < 7",
    "RANK TOP 8 ITER 4",
    "CC",
    "COUNT TRIANGLES",
    "STATS",
};

std::string mutate(std::string text, std::mt19937_64& rng) {
  const int mutations = 1 + static_cast<int>(rng() % 4);
  for (int m = 0; m < mutations; ++m) {
    const auto byte = static_cast<char>(rng() % 256);
    switch (rng() % 3) {
      case 0:  // replace
        if (!text.empty()) text[rng() % text.size()] = byte;
        break;
      case 1:  // insert
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                       rng() % (text.size() + 1)),
                    byte);
        break;
      default:  // delete
        if (!text.empty()) {
          text.erase(text.begin() +
                     static_cast<std::ptrdiff_t>(rng() % text.size()));
        }
        break;
    }
  }
  return text;
}

TEST(QueryLangFuzz, RandomByteMutationsNeverCrashTheParser) {
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    std::mt19937_64 rng(seed);
    for (int iter = 0; iter < 400; ++iter) {
      const std::string text = mutate(
          kFuzzTemplates[rng() % std::size(kFuzzTemplates)], rng);
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " iter=" << iter
                   << " bytes: " << hex_dump(text));
      const auto compiled = serve::compile_query(text);  // must not throw
      if (compiled.ok()) {
        EXPECT_FALSE(compiled.plan->describe().empty());
      } else {
        EXPECT_FALSE(compiled.error.message.empty());
        EXPECT_LE(compiled.error.position, text.size());
      }
    }
  }
}

TEST(QueryLangFuzz, MutatedQueriesExecuteSafelyEndToEnd) {
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 1;
  MssgCluster cluster(config);
  cluster.ingest(std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
  ServeSession session(cluster);

  const std::uint64_t seed = 77;
  std::mt19937_64 rng(seed);
  for (int iter = 0; iter < 60; ++iter) {
    const std::string text =
        mutate(kFuzzTemplates[rng() % std::size(kFuzzTemplates)], rng);
    SCOPED_TRACE(::testing::Message() << "seed=" << seed << " iter=" << iter
                                      << " bytes: " << hex_dump(text));
    const ServeResult result = session.execute(text);  // must not throw
    if (!result.ok()) {
      EXPECT_FALSE(result.error.empty());
      if (result.parse_error) {
        EXPECT_LE(result.error_position, text.size());
      }
    }
  }
}

// ---- Differential: language vs direct API, all backends, 1/2/4 nodes -------

/// Direct point-lookup reference: union of every node's local adjacency
/// (the same composition the compiled GET plan executes).
std::vector<double> direct_get(MssgCluster& cluster, VertexId v,
                               const serve::WhereClause& where = {}) {
  std::vector<VertexId> merged;
  std::vector<VertexId> local;
  for (int n = 0; n < cluster.backend_nodes(); ++n) {
    local.clear();
    if (where.present) {
      cluster.node_db(n).get_adjacency_using_metadata(v, local, where.value,
                                                      where.op);
    } else {
      cluster.node_db(n).get_adjacency(v, local);
    }
    merged.insert(merged.end(), local.begin(), local.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  std::vector<double> out;
  out.reserve(merged.size());
  for (const VertexId u : merged) out.push_back(static_cast<double>(u));
  return out;
}

/// NEIGHBORS reference from the in-memory graph: all vertices at BFS
/// distance 1..depth from the source (source excluded).
std::vector<double> reference_neighbors(const MemoryGraph& g, VertexId src,
                                        std::uint64_t depth) {
  const auto levels = g.bfs_levels(src);
  std::vector<double> out;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (v == src || levels[v] == kUnvisited) continue;
    if (static_cast<std::uint64_t>(levels[v]) <= depth) {
      out.push_back(static_cast<double>(v));
    }
  }
  return out;
}

/// Slices off the trailing wall-clock values the plan renderer drops.
std::vector<double> drop_tail(std::vector<double> raw, std::size_t drop) {
  raw.resize(raw.size() > drop ? raw.size() - drop : 0);
  return raw;
}

class QueryLangDifferential : public ::testing::TestWithParam<Backend> {};

TEST_P(QueryLangDifferential, EveryFormMatchesTheDirectApi) {
  const Backend backend = GetParam();
  ChungLuConfig gen{.vertices = 120, .edges = 480, .seed = 91};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);

  for (const int nodes : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message()
                 << "backend=" << to_string(backend) << " nodes=" << nodes);
    ClusterConfig config;
    config.backend = backend;
    config.backend_nodes = nodes;
    config.db.max_vertices = gen.vertices;
    MssgCluster cluster(config);
    cluster.ingest(edges);
    ServeSession session(cluster);

    // GET: the compiled point lookup equals the direct adjacency union.
    std::mt19937_64 rng(5);
    for (int q = 0; q < 6; ++q) {
      const VertexId v = rng() % gen.vertices;
      const ServeResult got = session.execute("GET " + std::to_string(v));
      ASSERT_TRUE(got.ok()) << got.error;
      EXPECT_EQ(got.query_class, QueryClass::kPoint);
      EXPECT_EQ(got.jobs, 1u);
      EXPECT_EQ(got.values, direct_get(cluster, v)) << "v=" << v;
    }

    // GET ... WHERE: label metadata with real BFS levels first, then
    // compare against the metadata-filtered direct read.
    VertexId src = 0;
    while (reference.degree(src) == 0) ++src;
    cluster.bfs(src, gen.vertices - 1);  // writes levels into metadata
    const struct {
      const char* text;
      MetadataOp op;
      Metadata value;
    } filters[] = {{"= 1", MetadataOp::kEqual, 1},
                   {"!= 2", MetadataOp::kNotEqual, 2},
                   {"< 3", MetadataOp::kLess, 3},
                   {"> 0", MetadataOp::kGreater, 0}};
    for (const auto& f : filters) {
      serve::WhereClause where;
      where.present = true;
      where.op = f.op;
      where.value = f.value;
      const std::string text =
          "GET " + std::to_string(src) + " WHERE META " + f.text;
      const ServeResult got = session.execute(text);
      ASSERT_TRUE(got.ok()) << text << ": " << got.error;
      EXPECT_EQ(got.values, direct_get(cluster, src, where)) << text;
    }

    // NEIGHBORS: one scheduler job per depth level, equal to the
    // reference BFS ball (ingest symmetrizes; the reference does too).
    for (const std::uint64_t depth : {1u, 2u, 3u}) {
      const std::string text = "NEIGHBORS " + std::to_string(src) +
                               " DEPTH " + std::to_string(depth);
      const ServeResult got = session.execute(text);
      ASSERT_TRUE(got.ok()) << text << ": " << got.error;
      EXPECT_EQ(got.values, reference_neighbors(reference, src, depth))
          << text;
      EXPECT_LE(got.jobs, depth);
      EXPECT_EQ(got.query_class,
                depth == 1 ? QueryClass::kPoint : QueryClass::kTraversal);
    }

    // PATH: per-leg cbfs distances plus the total, -1 past MAXLEN.
    for (const auto& pair : sample_random_pairs(reference, 4, 93)) {
      const std::string text = "PATH " + std::to_string(pair.src) + " " +
                               std::to_string(pair.dst);
      const ServeResult got = session.execute(text);
      ASSERT_TRUE(got.ok()) << text << ": " << got.error;
      const double direct =
          cluster.run_analysis("cbfs", {pair.src, pair.dst}).at(0);
      const double want = direct == static_cast<double>(kUnvisited)
                              ? -1.0
                              : direct;
      ASSERT_EQ(got.values.size(), 2u);  // one leg + total
      EXPECT_EQ(got.values[0], want) << text;
      EXPECT_EQ(got.values[1], want) << text;
      EXPECT_EQ(got.values[0], static_cast<double>(pair.distance)) << text;
    }
    {
      // Multi-leg PATH with a MAXLEN bound that breaks long legs.
      const auto pairs = sample_random_pairs(reference, 3, 95);
      const std::string text = "PATH " + std::to_string(pairs[0].src) + " " +
                               std::to_string(pairs[0].dst) + " " +
                               std::to_string(pairs[1].dst) + " MAXLEN 2";
      const ServeResult got = session.execute(text);
      ASSERT_TRUE(got.ok()) << text << ": " << got.error;
      ASSERT_EQ(got.values.size(), 3u);  // two legs + total
      EXPECT_EQ(got.jobs, 2u);
      const double leg0 =
          cluster.run_analysis("cbfs", {pairs[0].src, pairs[0].dst}).at(0);
      const double want0 =
          (leg0 == static_cast<double>(kUnvisited) || leg0 > 2.0) ? -1.0
                                                                  : leg0;
      EXPECT_EQ(got.values[0], want0) << text;
    }
    // An endpoint past every stored vertex (2^40) is unreachable, not an
    // error: no query parameter may size per-query search state.  So is
    // one past grDB's level-0 address space (2^56) or the largest id.
    for (const char* text : {"PATH 1099511627776 1 MAXLEN 3",
                             "PATH 3 1099511627776 MAXLEN 3",
                             "PATH 72057594037927936 1 MAXLEN 3",
                             "PATH 2305843009213693951 1 MAXLEN 2"}) {
      const ServeResult got = session.execute(text);
      ASSERT_TRUE(got.ok()) << text << ": " << got.error;
      EXPECT_EQ(got.values, (std::vector<double>{-1.0, -1.0})) << text;
    }
    {
      const ServeResult got = session.execute("NEIGHBORS 72057594037927936");
      ASSERT_TRUE(got.ok()) << got.error;
      EXPECT_TRUE(got.values.empty());
    }

    // RANK / CC / COUNT TRIANGLES / STATS: byte-identical to the
    // analysis result minus its wall-clock tail.
    {
      const ServeResult got = session.execute("RANK TOP 5");
      ASSERT_TRUE(got.ok()) << got.error;
      EXPECT_EQ(got.values, cluster.run_analysis("toprank", {5}));
    }
    {
      const ServeResult got = session.execute("RANK TOP 3 ITER 2");
      ASSERT_TRUE(got.ok()) << got.error;
      EXPECT_EQ(got.values, cluster.run_analysis("toprank", {3, 2}));
    }
    {
      const ServeResult got = session.execute("CC");
      ASSERT_TRUE(got.ok()) << got.error;
      EXPECT_EQ(got.values, drop_tail(cluster.run_analysis("lp-cc", {}), 1));
      EXPECT_EQ(got.query_class, QueryClass::kScan);
    }
    {
      const ServeResult got = session.execute("COUNT TRIANGLES");
      ASSERT_TRUE(got.ok()) << got.error;
      EXPECT_EQ(got.values,
                drop_tail(cluster.run_analysis("triangles", {}), 1));
    }
    {
      const ServeResult got = session.execute("STATS");
      ASSERT_TRUE(got.ok()) << got.error;
      EXPECT_EQ(got.values, cluster.run_analysis("stats", {}));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, QueryLangDifferential,
    ::testing::Values(Backend::kArray, Backend::kHashMap, Backend::kRelational,
                      Backend::kKVStore, Backend::kStream, Backend::kGrDB),
    [](const ::testing::TestParamInfo<Backend>& param_info) {
      switch (param_info.param) {
        case Backend::kArray: return std::string("Array");
        case Backend::kHashMap: return std::string("HashMap");
        case Backend::kRelational: return std::string("Relational");
        case Backend::kKVStore: return std::string("KVStore");
        case Backend::kStream: return std::string("Stream");
        case Backend::kGrDB: return std::string("GrDB");
      }
      return std::string("Unknown");
    });

// ---- Differential under live ingest (snapshot isolation) -------------------

std::vector<Edge> both_orientations(std::initializer_list<Edge> edges) {
  std::vector<Edge> out;
  for (const Edge e : edges) {
    out.push_back(e);
    out.push_back(Edge{e.dst, e.src});
  }
  return out;
}

TEST(ServeLiveIngest, DifferentialHoldsAcrossCommittedBatches) {
  ChungLuConfig gen{.vertices = 100, .edges = 400, .seed = 97};
  const auto base = generate_chung_lu(gen);

  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 2;
  config.db.snapshots = true;
  config.db.max_vertices = gen.vertices + 16;
  MssgCluster cluster(config);
  cluster.ingest(base);
  ServeSession session(cluster);

  const VertexId hub = base.front().src;
  EXPECT_EQ(session.execute("GET " + std::to_string(hub)).values,
            direct_get(cluster, hub));

  // Land three live batches; after each commit the language and the
  // direct API must agree again and see the new edges.
  for (VertexId i = 0; i < 3; ++i) {
    const VertexId fresh = gen.vertices + i;  // previously unknown vertex
    cluster.live_ingest(both_orientations({{hub, fresh}}));
    cluster.commit_all();
    const std::vector<double> got =
        session.execute("GET " + std::to_string(hub)).values;
    EXPECT_EQ(got, direct_get(cluster, hub));
    EXPECT_TRUE(std::find(got.begin(), got.end(),
                          static_cast<double>(fresh)) != got.end());
  }
}

TEST(ServeLiveIngest, ConcurrentLookupsSeeCommittedPrefixes) {
  // A writer lands edge batches while a reader runs GET through the
  // session.  With snapshots on, every result must be some committed
  // prefix: base edges always present, never a torn half-batch beyond
  // the final set.
  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 2;
  config.db.snapshots = true;
  config.db.max_vertices = 64;
  MssgCluster cluster(config);
  cluster.ingest(both_orientations({{0, 1}, {0, 2}}));
  ServeSession session(cluster);

  const std::set<double> base_set{1, 2};
  std::set<double> final_set = base_set;
  for (VertexId v = 3; v < 24; ++v) final_set.insert(static_cast<double>(v));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (VertexId v = 3; v < 24 && !stop.load(); ++v) {
      cluster.live_ingest(both_orientations({{0, v}}));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (int q = 0; q < 30; ++q) {
    const ServeResult got = session.execute("GET 0");
    ASSERT_TRUE(got.ok()) << got.error;
    std::set<double> seen(got.values.begin(), got.values.end());
    for (const double v : base_set) {
      EXPECT_TRUE(seen.count(v)) << "base edge missing from snapshot read";
    }
    for (const double v : seen) {
      EXPECT_TRUE(final_set.count(v)) << "phantom neighbor " << v;
    }
  }
  stop.store(true);
  writer.join();
  cluster.commit_all();
  EXPECT_EQ(session.execute("GET 0").values, direct_get(cluster, 0));
}

// ---- Registry and serve off hash-mod declustering --------------------------
// Round-robin placement gives no owner(v) = v mod p map: the registry
// must run its traversals in broadcast mode (same answers as the
// in-memory reference) and refuse the analyses that need the map.

TEST(ServeDecluster, RegistryAndServeMatchReferenceOffHashMod) {
  ChungLuConfig gen{.vertices = 250, .edges = 1000, .seed = 131};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);
  const auto pairs = sample_random_pairs(reference, 12, 137);
  ASSERT_FALSE(pairs.empty());

  for (const DeclusterPolicy policy :
       {DeclusterPolicy::kEdgeRoundRobin, DeclusterPolicy::kVertexRoundRobin}) {
    SCOPED_TRACE(policy == DeclusterPolicy::kEdgeRoundRobin
                     ? "edge round-robin"
                     : "vertex round-robin");
    ClusterConfig config;
    config.backend = Backend::kHashMap;
    config.backend_nodes = 3;
    config.decluster = policy;
    MssgCluster cluster(config);
    cluster.ingest(edges);
    ServeSession session(cluster);

    for (const auto& pair : pairs) {
      SCOPED_TRACE(::testing::Message() << pair.src << "->" << pair.dst);
      const auto expected = static_cast<double>(pair.distance);
      const std::vector<std::uint64_t> params{pair.src, pair.dst};
      EXPECT_EQ(cluster.run_analysis("bfs", params).at(0), expected);
      EXPECT_EQ(cluster.run_analysis("pipelined-bfs", params).at(0), expected);
      EXPECT_EQ(cluster.run_analysis("cbfs", params).at(0), expected);
      const QueryOutcome scheduled =
          cluster.await_query(cluster.submit_analysis("bfs", params));
      ASSERT_TRUE(scheduled.ok()) << scheduled.error;
      EXPECT_EQ(scheduled.result.at(0), expected);
      const ServeResult path = session.execute(
          "PATH " + std::to_string(pair.src) + " " + std::to_string(pair.dst));
      ASSERT_TRUE(path.ok()) << path.error;
      EXPECT_EQ(path.values.at(0), expected);
      EXPECT_EQ(cluster.run_analysis("khop", {pair.src, 2}).at(0),
                static_cast<double>(
                    testing::reference_khop(reference, pair.src, 2)));
    }
    EXPECT_EQ(cluster.khop(pairs[0].src, 2).vertices_within,
              testing::reference_khop(reference, pairs[0].src, 2));

    for (const auto& [name, params] :
         std::vector<std::pair<std::string, std::vector<std::uint64_t>>>{
             {"bidir-bfs", {pairs[0].src, pairs[0].dst}},
             {"cc", {}},
             {"lp-cc", {}},
             {"pagerank", {}},
             {"sssp", {pairs[0].src}}}) {
      EXPECT_THROW(cluster.run_analysis(name, params), UsageError) << name;
      EXPECT_FALSE(cluster.await_query(cluster.submit_analysis(name, params))
                       .ok())
          << name;
    }
    EXPECT_FALSE(session.execute("CC").ok());
  }
}

// ---- Scheduler invariants ---------------------------------------------------

/// A cluster job that marks its start, then sleeps.  Used to occupy
/// admission slots deterministically.
MssgCluster::ClusterJob sleeper(std::atomic<bool>& started, int millis,
                                std::atomic<int>* order = nullptr,
                                std::atomic<int>* my_slot = nullptr) {
  return [&started, millis, order, my_slot](Communicator&, QueryContext&,
                                            GraphDB&) {
    started.store(true);
    if (order != nullptr && my_slot != nullptr) {
      my_slot->store(order->fetch_add(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(millis));
    return std::vector<double>{};
  };
}

void wait_for(const std::atomic<bool>& flag) {
  while (!flag.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

ClusterConfig tiny_cluster_config(int max_inflight) {
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 1;
  config.scheduler.max_inflight = max_inflight;
  return config;
}

TEST(ServeScheduler, PointLookupOvertakesEarlierQueuedScans) {
  MssgCluster cluster(tiny_cluster_config(/*max_inflight=*/1));
  cluster.ingest(std::vector<Edge>{{0, 1}, {1, 0}});

  std::atomic<bool> running_started{false};
  std::atomic<bool> scan1_started{false}, scan2_started{false},
      point_started{false};
  std::atomic<int> order{0};
  std::atomic<int> scan1_slot{-1}, scan2_slot{-1}, point_slot{-1};

  SubmitOptions scan_options;  // priority 0
  const auto running = cluster.submit_job(sleeper(running_started, 150),
                                          scan_options);
  wait_for(running_started);  // the slot is held before anything queues

  const auto scan1 = cluster.submit_job(
      sleeper(scan1_started, 10, &order, &scan1_slot), scan_options);
  const auto scan2 = cluster.submit_job(
      sleeper(scan2_started, 10, &order, &scan2_slot), scan_options);
  SubmitOptions point_options;
  point_options.priority = 2;
  point_options.deadline_seconds = 10.0;
  const auto point = cluster.submit_job(
      sleeper(point_started, 1, &order, &point_slot), point_options);

  const QueryOutcome point_outcome = cluster.await_query(point);
  cluster.await_query(scan1);
  cluster.await_query(scan2);
  EXPECT_TRUE(point_outcome.ok()) << point_outcome.error;
  EXPECT_FALSE(point_outcome.expired);
  // The point was submitted LAST but must start FIRST among the queued
  // three: priority ordering beats submission order.
  EXPECT_LT(point_slot.load(), scan1_slot.load());
  EXPECT_LT(point_slot.load(), scan2_slot.load());
}

TEST(ServeScheduler, OnlyAlgorithms1And2AreAdmittedExclusively) {
  // Only the analyses that write the metadata (visited) store run alone.
  MssgCluster cluster(tiny_cluster_config(/*max_inflight=*/4));
  std::set<std::string> exclusive;
  for (const std::string& name : cluster.queries().names()) {
    if (cluster.queries().find(name)->exclusive) exclusive.insert(name);
  }
  EXPECT_EQ(exclusive, (std::set<std::string>{"bfs", "pipelined-bfs"}));

  ChungLuConfig gen{.vertices = 120, .edges = 480, .seed = 101};
  const auto edges = generate_chung_lu(gen);
  cluster.ingest(edges);
  const MemoryGraph reference(gen.vertices, edges);
  const auto pairs = sample_random_pairs(reference, 1, 103);
  ASSERT_FALSE(pairs.empty());

  struct Case {
    std::string name;
    std::vector<std::uint64_t> params;
    std::size_t wall_clock_tail;  ///< trailing seconds value(s) to ignore
  };
  const std::vector<Case> cases{{"stats", {}, 0},
                                {"khop", {pairs[0].src, 2}, 1},
                                {"bidir-bfs", {pairs[0].src, pairs[0].dst}, 1},
                                {"cc", {}, 1}};
  std::vector<std::vector<double>> expected;
  for (const Case& c : cases) {
    expected.push_back(
        drop_tail(cluster.run_analysis(c.name, c.params), c.wall_clock_tail));
  }

  // A shared job holds a slot until released.  It releases itself after
  // a timeout, so an analysis wrongly admitted exclusively (it would
  // wait for the holder to finish) fails the test instead of hanging it.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> started{false};
  std::atomic<bool> timed_out{false};
  const auto holder = cluster.submit_job(
      [&](Communicator&, QueryContext&, GraphDB&) {
        started.store(true);
        std::unique_lock lock(mu);
        if (!cv.wait_for(lock, std::chrono::seconds(10),
                         [&] { return release; })) {
          timed_out.store(true);
        }
        return std::vector<double>{};
      },
      SubmitOptions{});
  wait_for(started);

  for (std::size_t i = 0; i < cases.size(); ++i) {
    // EXPECT, not ASSERT: returning early would leave the holder waiting
    // on locals that are about to be destroyed.
    const QueryOutcome outcome = cluster.await_query(
        cluster.submit_analysis(cases[i].name, cases[i].params));
    EXPECT_TRUE(outcome.ok()) << cases[i].name << ": " << outcome.error;
    EXPECT_FALSE(timed_out.load())
        << cases[i].name << " waited for the shared holder to finish";
    EXPECT_EQ(drop_tail(outcome.result, cases[i].wall_clock_tail),
              expected[i])
        << cases[i].name;
  }
  {
    std::lock_guard lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(cluster.await_query(holder).ok());
  EXPECT_FALSE(timed_out.load());
}

TEST(ServeScheduler, QueuedQueryExpiresAtItsDeadlineInsteadOfStarving) {
  MssgCluster cluster(tiny_cluster_config(/*max_inflight=*/1));
  cluster.ingest(std::vector<Edge>{{0, 1}, {1, 0}});

  // An EXCLUSIVE scan holds the whole cluster well past the point's
  // deadline: the point must come back expired at ~50 ms, not wait the
  // full 400.
  std::atomic<bool> scan_started{false};
  SubmitOptions exclusive_options;
  exclusive_options.exclusive = true;
  const auto scan = cluster.submit_job(sleeper(scan_started, 400),
                                       exclusive_options);
  wait_for(scan_started);

  ServeConfig serve_config;
  serve_config.point = {/*priority=*/2, /*deadline_seconds=*/0.05};
  ServeSession session(cluster, serve_config);
  const auto before = std::chrono::steady_clock::now();
  const ServeResult result = session.execute("GET 0");
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - before)
          .count();
  cluster.await_query(scan);

  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.expired);
  EXPECT_FALSE(result.parse_error);
  EXPECT_TRUE(result.values.empty());
  EXPECT_EQ(result.tokens_spent, 0u);
  EXPECT_LT(waited, 0.35);  // expired at the deadline, not at scan end

  // The expired query released its slot: the next point runs fine.
  const ServeResult after = session.execute("GET 0");
  EXPECT_TRUE(after.ok()) << after.error;

  // ... and its sched.q<id>.* row shows no budget or cache attribution
  // retained (released on expiry).
  ASSERT_EQ(result.query_ids.size(), 1u);
  const std::string prefix = "sched.q" + std::to_string(result.query_ids[0]);
  const MetricsSnapshot snap = cluster.scheduler().metrics_snapshot();
  EXPECT_EQ(snap.counter(prefix + ".tokens_spent"), 0u);
  EXPECT_EQ(snap.counter(prefix + ".cache_hits"), 0u);
  EXPECT_EQ(snap.counter(prefix + ".cache_misses"), 0u);
  EXPECT_GE(snap.counter("sched.expired"), 1u);
}

TEST(ServeScheduler, LateCompletionCountsAsSoftDeadlineMiss) {
  MssgCluster cluster(tiny_cluster_config(/*max_inflight=*/2));
  cluster.ingest(std::vector<Edge>{{0, 1}, {1, 0}});

  std::atomic<bool> started{false};
  SubmitOptions options;
  options.deadline_seconds = 0.05;  // admitted at once, finishes late
  const auto ticket = cluster.submit_job(sleeper(started, 150), options);
  const QueryOutcome outcome = cluster.await_query(ticket);
  EXPECT_TRUE(outcome.ok()) << outcome.error;  // a miss is not a failure
  EXPECT_FALSE(outcome.expired);
  EXPECT_TRUE(outcome.deadline_missed);
  EXPECT_EQ(cluster.scheduler().metrics_snapshot().counter(
                "sched.deadline_miss"),
            1u);
}

TEST(ServeScheduler, ServeCountersBalanceAgainstSchedAggregates) {
  MssgCluster cluster(tiny_cluster_config(/*max_inflight=*/1));
  cluster.ingest(std::vector<Edge>{{0, 1}, {1, 0}, {1, 2}, {2, 1}});

  ServeConfig serve_config;
  serve_config.point = {/*priority=*/2, /*deadline_seconds=*/0.05};
  serve_config.traversal = {/*priority=*/1, /*deadline_seconds=*/0.05};
  serve_config.scan = {/*priority=*/0, /*deadline_seconds=*/10.0};
  ServeSession session(cluster, serve_config);

  // Hold the slot so the next two plans expire in the queue; the direct
  // sleeper itself carries a soft deadline it will miss.
  std::atomic<bool> started{false};
  SubmitOptions hold_options;
  hold_options.deadline_seconds = 0.05;
  const auto hold = cluster.submit_job(sleeper(started, 300), hold_options);
  wait_for(started);

  const ServeResult expired_point = session.execute("GET 0");     // 1 job
  const ServeResult expired_path = session.execute("PATH 0 2");   // 1 job
  EXPECT_TRUE(expired_point.expired);
  EXPECT_TRUE(expired_path.expired);
  cluster.await_query(hold);
  const ServeResult ok_scan = session.execute("CC");              // 1 job
  EXPECT_TRUE(ok_scan.ok()) << ok_scan.error;

  const MetricsSnapshot serve_snap = session.metrics_snapshot();
  const MetricsSnapshot sched_snap = cluster.scheduler().metrics_snapshot();
  const std::uint64_t serve_expired =
      serve_snap.counter("serve.point.expired") +
      serve_snap.counter("serve.traversal.expired") +
      serve_snap.counter("serve.scan.expired");
  const std::uint64_t serve_jobs =
      serve_snap.counter("serve.point.jobs") +
      serve_snap.counter("serve.traversal.jobs") +
      serve_snap.counter("serve.scan.jobs");
  EXPECT_EQ(serve_expired, 2u);
  EXPECT_EQ(sched_snap.counter("sched.expired"), serve_expired);
  // Every serve job plus the one direct sleeper shows up in the
  // scheduler's aggregate; the sleeper's soft miss is the only one.
  EXPECT_EQ(sched_snap.counter("sched.queries"), serve_jobs + 1);
  EXPECT_EQ(sched_snap.counter("sched.deadline_miss"),
            serve_snap.counter("serve.point.deadline_miss") +
                serve_snap.counter("serve.traversal.deadline_miss") +
                serve_snap.counter("serve.scan.deadline_miss") + 1);
  EXPECT_EQ(serve_snap.counter("serve.point.queries"), 1u);
  EXPECT_EQ(serve_snap.counter("serve.traversal.queries"), 1u);
  EXPECT_EQ(serve_snap.counter("serve.scan.queries"), 1u);
}

TEST(ServeScheduler, RejectedZeroBudgetReleasesEverything) {
  MssgCluster cluster(tiny_cluster_config(/*max_inflight=*/2));
  cluster.ingest(std::vector<Edge>{{0, 1}, {1, 0}});

  ServeConfig zero_budget;
  zero_budget.token_budget = 0;  // explicit 0 = admission rejection
  ServeSession rejected_session(cluster, zero_budget);
  const ServeResult rejected = rejected_session.execute("GET 0");
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.tokens_spent, 0u);
  EXPECT_GE(cluster.scheduler().metrics_snapshot().counter("sched.rejected"),
            1u);

  // Slots and budgets released: a budgeted session still works.
  ServeConfig budgeted;
  budgeted.token_budget = 1u << 20;
  ServeSession session(cluster, budgeted);
  const ServeResult ok = session.execute("GET 0");
  EXPECT_TRUE(ok.ok()) << ok.error;
  EXPECT_GT(ok.tokens_spent, 0u);
}

// ---- Per-plan accounting ----------------------------------------------------

TEST(ServeAccounting, MultiJobPlansSumOverTheirSchedRows) {
  ClusterConfig config;
  config.backend = Backend::kGrDB;  // a real cache: attribution rows live
  config.backend_nodes = 2;
  config.db.max_vertices = 64;
  MssgCluster cluster(config);
  // 0-1-2-3-4 path plus a small fan at 1 (ingest symmetrizes).
  cluster.ingest(std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 5}});

  ServeConfig serve_config;
  serve_config.token_budget = 1u << 20;  // charge real tokens
  ServeSession session(cluster, serve_config);

  for (const char* text : {"PATH 0 2 4", "NEIGHBORS 0 DEPTH 3"}) {
    SCOPED_TRACE(text);
    const ServeResult result = session.execute(text);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_GT(result.jobs, 1u);  // the whole point: a multi-job plan
    ASSERT_EQ(result.query_ids.size(), result.jobs);

    // Distinct scheduler rows...
    std::set<std::uint64_t> distinct(result.query_ids.begin(),
                                     result.query_ids.end());
    EXPECT_EQ(distinct.size(), result.jobs);

    // ...whose per-row tokens and queue time sum to the plan's totals.
    const MetricsSnapshot snap = cluster.scheduler().metrics_snapshot();
    std::uint64_t tokens = 0;
    std::uint64_t queue_us = 0;
    for (const std::uint64_t id : result.query_ids) {
      const std::string prefix = "sched.q" + std::to_string(id);
      tokens += snap.counter(prefix + ".tokens_spent");
      queue_us += snap.counter(prefix + ".queue_us");
    }
    EXPECT_EQ(tokens, result.tokens_spent);
    EXPECT_NEAR(static_cast<double>(queue_us), result.queue_seconds * 1e6,
                static_cast<double>(result.jobs));  // per-row truncation
  }
}

TEST(ServeAccounting, ExactFitBudgetCompletesWithoutTruncation) {
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 1;
  MssgCluster cluster(config);
  // Star at 0 -> {1,2,3}; 3 -> {4}.  After symmetrization NEIGHBORS 0
  // DEPTH 2 runs two lookup jobs, each with a FRESH token budget: the
  // level-1 job reads the adjacency of 0 (3 entries); the level-2 job
  // reads 1, 2, 3 in sorted frontier order (1+1+2 = 4 entries).
  cluster.ingest(std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {3, 4}});

  const auto run = [&](std::uint64_t budget) {
    ServeConfig serve_config;
    serve_config.token_budget = budget;
    ServeSession session(cluster, serve_config);
    return session.execute("NEIGHBORS 0 DEPTH 2");
  };

  const std::vector<double> full{1, 2, 3, 4};
  {
    // Exact fit: the level-2 budget drains on its very last adjacency
    // read; the answer is complete, so no truncation flag.
    const ServeResult exact = run(4);
    ASSERT_TRUE(exact.ok()) << exact.error;
    EXPECT_FALSE(exact.truncated) << "exact-fit budget flagged as truncation";
    EXPECT_EQ(exact.tokens_spent, 7u);  // 3 (level 1) + 4 (level 2)
    EXPECT_EQ(exact.values, full);
  }
  {
    // Overshoot ON the last frontier vertex (level 2 charges 1+1, then
    // reads vertex 3's two entries against one remaining token): the
    // read completed, so this is NOT truncation either.
    const ServeResult overshoot = run(3);
    ASSERT_TRUE(overshoot.ok()) << overshoot.error;
    EXPECT_FALSE(overshoot.truncated)
        << "overshoot on the final vertex flagged as truncation";
    EXPECT_EQ(overshoot.tokens_spent, 7u);
    EXPECT_EQ(overshoot.values, full);
  }
  {
    // A genuine cut: level 2 exhausts its budget with vertex 3 still
    // unread, so the spur at 4 is missing and the flag is set.
    const ServeResult cut = run(2);
    ASSERT_TRUE(cut.ok()) << cut.error;
    EXPECT_TRUE(cut.truncated);
    EXPECT_EQ(cut.values, (std::vector<double>{1, 2, 3}));  // partial
    EXPECT_EQ(cut.tokens_spent, 5u);  // 3 (overshot level 1) + 2
  }
  {
    // A roomy budget: complete, untruncated, same token total.
    const ServeResult roomy = run(1u << 20);
    ASSERT_TRUE(roomy.ok()) << roomy.error;
    EXPECT_FALSE(roomy.truncated);
    EXPECT_EQ(roomy.tokens_spent, 7u);
    EXPECT_EQ(roomy.values, full);
  }
}

}  // namespace
}  // namespace mssg
