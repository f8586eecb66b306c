#include "query/query_service.hpp"

#include <algorithm>

#include "common/serial.hpp"
#include "query/analytics.hpp"
#include "query/bfs.hpp"
#include "query/bidirectional_bfs.hpp"
#include "query/graph_stats_analysis.hpp"
#include "query/ms_bfs.hpp"

namespace mssg {

namespace {

/// The context's budget and rank-private registry, threaded into a
/// VertexProgram engine run.  The engine routes by owner(v) = v mod p,
/// so on any other declustering the suite refuses to run instead of
/// returning a wrong answer.
VertexProgramOptions vp_options(const QueryContext& ctx) {
  if (!ctx.map_known) {
    throw UsageError(
        "VertexProgram analyses need hash-mod declustering "
        "(owner(v) = v mod p)");
  }
  VertexProgramOptions options;
  options.metrics = ctx.metrics;
  options.budget = ctx.budget;
  return options;
}

MsBfsOptions msbfs_options(const QueryContext& ctx) {
  MsBfsOptions options;
  options.map_known = ctx.map_known;
  options.metrics = ctx.metrics;
  options.budget = ctx.budget;
  return options;
}

/// {distance, edges_scanned, vertices_expanded, seconds}; the counts are
/// this rank's (rank 0's in the outcome).
std::vector<double> bfs_row(const BfsStats& stats) {
  return {static_cast<double>(stats.distance),
          static_cast<double>(stats.edges_scanned),
          static_cast<double>(stats.vertices_expanded), stats.seconds};
}

// params: {source, dest} -> bfs_row.  Algorithms 1 and 2 keep their
// visited set in the GraphDB metadata store: registered exclusive.
std::vector<double> bfs_analysis(Communicator& comm, GraphDB& db,
                                 const std::vector<std::uint64_t>& params,
                                 const QueryContext& ctx, bool pipelined) {
  MSSG_CHECK(params.size() >= 2);
  BfsOptions options;
  options.pipelined = pipelined;
  options.map_known = ctx.map_known;
  options.metrics = ctx.metrics;
  return bfs_row(parallel_oocbfs(comm, db, params[0], params[1], options));
}

// params: {src0, src1, ..., dest} -> {distance x n, discovered x n,
// levels, edges_scanned, adjacency_fetches, shared_scans_saved,
// truncated, seconds}.  Counts are global (allreduced); dest may be
// kInvalidVertex for pure multi-source exploration.  Also registered as
// `cbfs`, the concurrent single-source BFS ({source, dest}).
std::vector<double> msbfs_analysis(Communicator& comm, GraphDB& db,
                                   const std::vector<std::uint64_t>& params,
                                   QueryContext& ctx) {
  MSSG_CHECK(params.size() >= 2);
  const VertexId dst = params.back();
  const std::vector<VertexId> sources(params.begin(), params.end() - 1);
  const MsBfsStats stats =
      parallel_msbfs(comm, db, sources, dst, msbfs_options(ctx));
  std::vector<double> out;
  out.reserve(2 * sources.size() + 6);
  for (const Metadata d : stats.distance) out.push_back(d);
  for (const std::uint64_t c : stats.discovered) {
    out.push_back(static_cast<double>(c));
  }
  out.push_back(static_cast<double>(stats.levels));
  out.push_back(static_cast<double>(comm.allreduce_sum(stats.edges_scanned)));
  out.push_back(
      static_cast<double>(comm.allreduce_sum(stats.adjacency_fetches)));
  out.push_back(
      static_cast<double>(comm.allreduce_sum(stats.shared_scans_saved)));
  out.push_back(stats.truncated ? 1.0 : 0.0);
  out.push_back(stats.seconds);
  return out;
}

// params: none -> {components, vertices, iterations, edges_scanned,
// seconds}: label-propagation CC.  Also registered as `cc`.
std::vector<double> cc_analysis(Communicator& comm, GraphDB& db,
                                const std::vector<std::uint64_t>& /*params*/,
                                QueryContext& ctx) {
  const CcStats stats = parallel_label_cc(comm, db, vp_options(ctx));
  return {static_cast<double>(stats.components),
          static_cast<double>(stats.vertices),
          static_cast<double>(stats.iterations),
          static_cast<double>(comm.allreduce_sum(stats.edges_scanned)),
          stats.seconds};
}

}  // namespace

QueryService::QueryService() {
  register_analysis(
      "bfs",
      [](Communicator& comm, GraphDB& db,
         const std::vector<std::uint64_t>& params, QueryContext& ctx) {
        return bfs_analysis(comm, db, params, ctx, /*pipelined=*/false);
      },
      /*exclusive=*/true);
  register_analysis(
      "pipelined-bfs",
      [](Communicator& comm, GraphDB& db,
         const std::vector<std::uint64_t>& params, QueryContext& ctx) {
        return bfs_analysis(comm, db, params, ctx, /*pipelined=*/true);
      },
      /*exclusive=*/true);
  register_analysis("ms-bfs", msbfs_analysis);
  register_analysis("cbfs", msbfs_analysis);
  // params: {source, k} -> {vertices_within, edges_scanned, seconds}: a
  // one-source ms-bfs with no target and max_levels = k.
  register_analysis("khop", [](Communicator& comm, GraphDB& db,
                               const std::vector<std::uint64_t>& params,
                               QueryContext& ctx) {
    MSSG_CHECK(params.size() >= 2);
    const auto k = static_cast<Metadata>(params[1]);
    MSSG_CHECK(k >= 0);
    MsBfsOptions options = msbfs_options(ctx);
    options.max_levels = k;
    const VertexId src = params[0];
    const MsBfsStats stats =
        parallel_msbfs(comm, db, {&src, 1}, kInvalidVertex, options);
    return std::vector<double>{
        static_cast<double>(stats.discovered[0]),
        static_cast<double>(comm.allreduce_sum(stats.edges_scanned)),
        stats.seconds};
  });
  // params: {source, dest} -> bfs_row.  The two level maps are local to
  // the algorithm; routing needs the owner map (UsageError otherwise).
  register_analysis("bidir-bfs", [](Communicator& comm, GraphDB& db,
                                    const std::vector<std::uint64_t>& params,
                                    QueryContext& ctx) {
    MSSG_CHECK(params.size() >= 2);
    BfsOptions options;
    options.map_known = ctx.map_known;
    options.metrics = ctx.metrics;
    return bfs_row(
        bidirectional_oocbfs(comm, db, params[0], params[1], options));
  });
  // params: none -> {vertices, directed_edges, min_deg, max_deg, avg_deg}:
  // a read-only for_each_vertex scan.
  register_analysis("stats", [](Communicator& comm, GraphDB& db,
                                const std::vector<std::uint64_t>&,
                                QueryContext&) {
    const DistributedGraphStats stats = parallel_graph_stats(comm, db);
    return std::vector<double>{static_cast<double>(stats.vertices),
                               static_cast<double>(stats.directed_edges),
                               static_cast<double>(stats.min_degree),
                               static_cast<double>(stats.max_degree),
                               stats.avg_degree};
  });
  // The VertexProgram analytics suite: query-private state, hash-mod
  // clusters only (vp_options).
  //
  // params: {iterations=10} -> {vertices, supersteps, edges_scanned,
  // top_vertex, top_rank, rank_sum, truncated, seconds}.  Counts global.
  register_analysis("pagerank", [](Communicator& comm, GraphDB& db,
                                   const std::vector<std::uint64_t>& params,
                                   QueryContext& ctx) {
    PageRankOptions options;
    options.engine = vp_options(ctx);
    if (!params.empty() && params[0] != 0) options.iterations = params[0];
    const PageRankStats stats = parallel_pagerank(comm, db, options);
    return std::vector<double>{
        static_cast<double>(stats.vertices),
        static_cast<double>(stats.supersteps),
        static_cast<double>(comm.allreduce_sum(stats.edges_scanned)),
        static_cast<double>(stats.top_vertex),
        stats.top_rank,
        stats.rank_sum,
        stats.truncated ? 1.0 : 0.0,
        stats.seconds};
  });
  register_analysis("lp-cc", cc_analysis);
  register_analysis("cc", cc_analysis);
  // params: {k=2} -> {core_vertices, rounds, edges_scanned, truncated,
  // seconds}
  register_analysis("kcore", [](Communicator& comm, GraphDB& db,
                                const std::vector<std::uint64_t>& params,
                                QueryContext& ctx) {
    KCoreOptions options;
    options.engine = vp_options(ctx);
    if (!params.empty()) options.k = static_cast<std::uint32_t>(params[0]);
    const KCoreStats stats = parallel_kcore(comm, db, options);
    return std::vector<double>{
        static_cast<double>(stats.core_vertices),
        static_cast<double>(stats.rounds),
        static_cast<double>(comm.allreduce_sum(stats.edges_scanned)),
        stats.truncated ? 1.0 : 0.0,
        stats.seconds};
  });
  // params: none -> {triangles, wedge_checks, edges_scanned, seconds}
  register_analysis("triangles", [](Communicator& comm, GraphDB& db,
                                    const std::vector<std::uint64_t>&,
                                    QueryContext& ctx) {
    const TriangleStats stats =
        parallel_triangle_count(comm, db, vp_options(ctx));
    return std::vector<double>{
        static_cast<double>(stats.triangles),
        static_cast<double>(stats.wedge_checks),
        static_cast<double>(comm.allreduce_sum(stats.edges_scanned)),
        stats.seconds};
  });
  // params: {source [, target [, delta [, max_weight]]]} -> {distance
  // (-1 unreached/no target), reached, supersteps, edges_scanned,
  // truncated, seconds}
  register_analysis("sssp", [](Communicator& comm, GraphDB& db,
                               const std::vector<std::uint64_t>& params,
                               QueryContext& ctx) {
    MSSG_CHECK(!params.empty());
    SsspOptions options;
    options.engine = vp_options(ctx);
    options.source = params[0];
    if (params.size() >= 2) options.target = params[1];
    if (params.size() >= 3 && params[2] != 0) options.delta = params[2];
    if (params.size() >= 4 && params[3] != 0) {
      options.max_weight = static_cast<std::uint32_t>(params[3]);
    }
    const SsspStats stats = parallel_sssp(comm, db, options);
    return std::vector<double>{
        stats.distance == kInfiniteDistance
            ? -1.0
            : static_cast<double>(stats.distance),
        static_cast<double>(stats.reached),
        static_cast<double>(stats.supersteps),
        static_cast<double>(comm.allreduce_sum(stats.edges_scanned)),
        stats.truncated ? 1.0 : 0.0,
        stats.seconds};
  });
  // params: {k [, iterations]} -> {v0, rank0, v1, rank1, ...}: the
  // global top-k PageRank vertices ordered by (rank desc, vertex asc).
  // PageRank's ranks are bit-identical across rank counts (sorted-fold
  // determinism, see analytics.hpp), so the comparator — and therefore
  // the whole result — is a pure function of the graph: the query
  // language's `RANK TOP k` differential-tests against this byte for
  // byte.  iterations 0 (or absent) = the PageRank default.
  register_analysis("toprank", [](Communicator& comm, GraphDB& db,
                                  const std::vector<std::uint64_t>& params,
                                  QueryContext& ctx) {
    MSSG_CHECK(!params.empty());
    const std::uint64_t k = params[0];
    PageRankOptions options;
    options.engine = vp_options(ctx);
    if (params.size() >= 2 && params[1] != 0) options.iterations = params[1];
    std::vector<std::pair<VertexId, double>> local;
    parallel_pagerank(comm, db, options, &local);
    // Allgather every rank's (vertex, rank) pairs and merge on all ranks
    // (cheap, deterministic, and saves a broadcast round).
    ByteWriter writer;
    writer.put_varint(local.size());
    for (const auto& [vertex, rank] : local) {
      writer.put_u64(vertex);
      writer.put_double(rank);
    }
    const std::vector<PayloadBuffer> slots =
        comm.allgather(PayloadBuffer(writer.take()));
    std::vector<std::pair<VertexId, double>> merged;
    for (const PayloadBuffer& slot : slots) {
      ByteReader reader(slot.span());
      const std::uint64_t n = reader.get_varint();
      for (std::uint64_t i = 0; i < n; ++i) {
        const VertexId vertex = reader.get_u64();
        const double rank = reader.get_double();
        merged.emplace_back(vertex, rank);
      }
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (merged.size() > k) merged.resize(k);
    std::vector<double> out;
    out.reserve(2 * merged.size());
    for (const auto& [vertex, rank] : merged) {
      out.push_back(static_cast<double>(vertex));
      out.push_back(rank);
    }
    return out;
  });
}

void QueryService::register_analysis(const std::string& name, AnalysisFn fn,
                                     bool exclusive) {
  analyses_[name] = Analysis{std::move(fn), exclusive};
}

const QueryService::Analysis* QueryService::find(
    const std::string& name) const {
  const auto it = analyses_.find(name);
  return it == analyses_.end() ? nullptr : &it->second;
}

std::vector<std::string> QueryService::names() const {
  std::vector<std::string> result;
  result.reserve(analyses_.size());
  for (const auto& [name, analysis] : analyses_) result.push_back(name);
  return result;
}

std::vector<double> QueryService::run(
    const std::string& name, Communicator& comm, GraphDB& db,
    const std::vector<std::uint64_t>& params, QueryContext& ctx) const {
  const Analysis* analysis = find(name);
  if (analysis == nullptr) throw UsageError("unknown analysis: " + name);
  return analysis->fn(comm, db, params, ctx);
}

}  // namespace mssg
