#include "mssg/mssg.hpp"

#include <algorithm>
#include <mutex>

#include "common/error.hpp"
#include "graphdb/grdb/grdb.hpp"

namespace mssg {

MssgCluster::MssgCluster(ClusterConfig config)
    : config_(std::move(config)), world_(config_.backend_nodes, metrics_) {
  MSSG_CHECK(config_.frontend_nodes >= 1);
  MSSG_CHECK(config_.backend_nodes >= 1);

  if (config_.storage_root.empty()) {
    owned_root_.emplace("mssg-cluster");
    config_.storage_root = owned_root_->path();
  }

  vertex_map_ = std::make_shared<SharedVertexMap>();
  const int b = config_.backend_nodes;
  switch (config_.decluster) {
    case DeclusterPolicy::kHashMod:
      partitioner_ = std::make_unique<HashModPartitioner>(b);
      break;
    case DeclusterPolicy::kVertexRoundRobin:
      partitioner_ =
          std::make_unique<VertexRoundRobinPartitioner>(b, vertex_map_);
      break;
    case DeclusterPolicy::kEdgeRoundRobin:
      partitioner_ = std::make_unique<EdgeRoundRobinPartitioner>(b);
      break;
    case DeclusterPolicy::kBlockCluster:
      partitioner_ =
          std::make_unique<BlockClusterPartitioner>(b, vertex_map_);
      break;
  }

  dbs_.reserve(b);
  for (int node = 0; node < b; ++node) {
    GraphDBConfig db_config = config_.db;
    db_config.dir = config_.storage_root / ("node" + std::to_string(node));
    dbs_.push_back(make_graphdb(config_.backend, db_config));
  }
  scheduler_ = std::make_unique<QueryScheduler>(world_, config_.scheduler);
}

IngestReport MssgCluster::ingest(std::span<const Edge> edges) {
  std::vector<std::unique_ptr<EdgeSource>> sources;
  for (const auto shard : shard_edges(edges, config_.frontend_nodes)) {
    sources.push_back(std::make_unique<VectorEdgeSource>(shard));
  }
  return ingest(std::move(sources));
}

IngestReport MssgCluster::ingest(
    std::vector<std::unique_ptr<EdgeSource>> sources) {
  MSSG_CHECK(static_cast<int>(sources.size()) == config_.frontend_nodes);
  std::vector<GraphDB*> backends;
  backends.reserve(dbs_.size());
  for (const auto& db : dbs_) backends.push_back(db.get());
  IngestReport report = run_ingestion(std::move(sources), *partitioner_,
                                      backends, config_.ingest);
  metrics_.merge(report.metrics);
  return report;
}

ClusterQueryResult MssgCluster::bfs(VertexId src, VertexId dst,
                                    BfsOptions options) {
  options.map_known = map_known();
  ClusterQueryResult result;
  result.per_node.resize(config_.backend_nodes);
  std::mutex merge_mutex;
  run_cluster(world_, [&](Communicator& comm) {
    BfsOptions node_options = options;
    node_options.metrics = &dbs_[comm.rank()]->metrics();
    const BfsStats stats =
        parallel_oocbfs(comm, *dbs_[comm.rank()], src, dst, node_options);
    std::lock_guard lock(merge_mutex);
    result.per_node[comm.rank()] = stats;
    result.distance = stats.distance;  // globally consistent
    result.levels = std::max(result.levels, stats.levels);
    result.edges_scanned += stats.edges_scanned;
    result.vertices_expanded += stats.vertices_expanded;
    result.fringe_messages += stats.fringe_messages;
    result.seconds = std::max(result.seconds, stats.seconds);
  });
  return result;
}

std::vector<double> MssgCluster::run_on_rank(
    const std::string& name, const std::vector<std::uint64_t>& params,
    Communicator& comm, QueryContext& ctx) {
  GraphDB& db = *dbs_[comm.rank()];
  // Pin this rank's committed epoch for the whole analysis: every read
  // the rank thread makes sees exactly that epoch, no matter how far
  // live_ingest advances meanwhile.  With snapshots off begin_snapshot()
  // returns nullptr and the scope is a no-op.
  SnapshotScope snapshot(db.begin_snapshot());
  ctx.map_known = map_known();
  return queries_.run(name, comm, db, params, ctx);
}

std::vector<double> MssgCluster::run_analysis(
    const std::string& name, const std::vector<std::uint64_t>& params) {
  std::vector<double> rank0;
  run_cluster(world_, [&](Communicator& comm) {
    QueryContext ctx;
    std::vector<double> result = run_on_rank(name, params, comm, ctx);
    if (comm.rank() == 0) rank0 = std::move(result);
  });
  return rank0;
}

QueryScheduler::Ticket MssgCluster::submit_analysis(
    const std::string& name, const std::vector<std::uint64_t>& params,
    std::optional<std::uint64_t> token_budget) {
  SubmitOptions options;
  options.token_budget = token_budget;
  return submit_analysis(name, params, options);
}

QueryScheduler::Ticket MssgCluster::submit_analysis(
    const std::string& name, const std::vector<std::uint64_t>& params,
    SubmitOptions options) {
  // The registry decides admission.  An unknown name runs shared and
  // fails inside the job, so the error arrives through the outcome.
  const QueryService::Analysis* analysis = queries_.find(name);
  options.exclusive = analysis != nullptr && analysis->exclusive;
  return scheduler_->submit(
      [this, name, params](Communicator& comm, QueryContext& ctx) {
        return run_on_rank(name, params, comm, ctx);
      },
      options);
}

QueryScheduler::Ticket MssgCluster::submit_job(ClusterJob job,
                                               SubmitOptions options) {
  return scheduler_->submit(
      [this, moved_job = std::move(job)](Communicator& comm,
                                         QueryContext& ctx) {
        GraphDB& db = *dbs_[comm.rank()];
        SnapshotScope snapshot(db.begin_snapshot());
        return moved_job(comm, ctx, db);
      },
      options);
}

void MssgCluster::live_ingest(std::span<const Edge> edges) {
  if (edges.empty()) return;
  std::vector<Rank> targets(edges.size());
  partitioner_->route(edges, targets);
  std::vector<std::vector<Edge>> per_node(dbs_.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    per_node[static_cast<std::size_t>(targets[i])].push_back(edges[i]);
  }
  // Every share is checked before any node stores its own, so a batch
  // one node rejects lands nowhere.
  for (std::size_t node = 0; node < dbs_.size(); ++node) {
    dbs_[node]->validate_edges(per_node[node]);
  }
  for (std::size_t node = 0; node < dbs_.size(); ++node) {
    if (per_node[node].empty()) continue;
    dbs_[node]->store_edges(per_node[node]);
    dbs_[node]->flush();
  }
}

void MssgCluster::commit_all() {
  for (const auto& db : dbs_) db->flush();
}

QueryOutcome MssgCluster::await_query(const QueryScheduler::Ticket& ticket) {
  return scheduler_->await(ticket);
}

MsBfsStats MssgCluster::ms_bfs(std::span<const VertexId> sources, VertexId dst,
                               MsBfsOptions options) {
  options.map_known = map_known();
  MsBfsStats result;
  std::mutex merge_mutex;
  run_cluster(world_, [&](Communicator& comm) {
    MsBfsOptions node_options = options;
    node_options.metrics = &dbs_[comm.rank()]->metrics();
    const MsBfsStats stats =
        parallel_msbfs(comm, *dbs_[comm.rank()], sources, dst, node_options);
    std::lock_guard lock(merge_mutex);
    result.distance = stats.distance;      // globally consistent
    result.discovered = stats.discovered;  // globally consistent
    result.levels = std::max(result.levels, stats.levels);
    result.edges_scanned += stats.edges_scanned;
    result.adjacency_fetches += stats.adjacency_fetches;
    result.shared_scans_saved += stats.shared_scans_saved;
    result.fringe_messages += stats.fringe_messages;
    result.truncated = result.truncated || stats.truncated;
    result.seconds = std::max(result.seconds, stats.seconds);
  });
  return result;
}

KHopStats MssgCluster::khop(VertexId src, Metadata k) {
  MSSG_CHECK(k >= 0);
  const MsBfsStats stats = ms_bfs({&src, 1}, kInvalidVertex, {.max_levels = k});
  return KHopStats{stats.discovered[0], stats.edges_scanned, stats.seconds};
}

ClusterQueryResult MssgCluster::bidirectional_bfs(VertexId src, VertexId dst,
                                                  BfsOptions options) {
  MSSG_CHECK(map_known());
  ClusterQueryResult result;
  result.per_node.resize(config_.backend_nodes);
  std::mutex merge_mutex;
  run_cluster(world_, [&](Communicator& comm) {
    BfsOptions node_options = options;
    node_options.metrics = &dbs_[comm.rank()]->metrics();
    const BfsStats stats =
        bidirectional_oocbfs(comm, *dbs_[comm.rank()], src, dst, node_options);
    std::lock_guard lock(merge_mutex);
    result.per_node[comm.rank()] = stats;
    result.distance = stats.distance;
    result.levels = std::max(result.levels, stats.levels);
    result.edges_scanned += stats.edges_scanned;
    result.vertices_expanded += stats.vertices_expanded;
    result.fringe_messages += stats.fringe_messages;
    result.seconds = std::max(result.seconds, stats.seconds);
  });
  return result;
}

DistributedGraphStats MssgCluster::graph_stats() {
  DistributedGraphStats result;
  std::mutex merge_mutex;
  run_cluster(world_, [&](Communicator& comm) {
    const auto stats = parallel_graph_stats(comm, *dbs_[comm.rank()]);
    dbs_[comm.rank()]->metrics().counter("stats.runs") += 1;
    if (comm.rank() == 0) {
      std::lock_guard lock(merge_mutex);
      result = stats;  // globally consistent
    }
  });
  return result;
}

CcStats MssgCluster::connected_components() {
  MSSG_CHECK(map_known());
  CcStats result;
  std::mutex merge_mutex;
  run_cluster(world_, [&](Communicator& comm) {
    const auto stats = parallel_label_cc(comm, *dbs_[comm.rank()]);
    MetricsRegistry& reg = dbs_[comm.rank()]->metrics();
    reg.counter("cc.runs") += 1;
    reg.counter("cc.iterations") += stats.iterations;
    reg.counter("cc.edges_scanned") += stats.edges_scanned;
    std::lock_guard lock(merge_mutex);
    result.components = stats.components;  // globally consistent
    result.vertices = stats.vertices;
    result.iterations = std::max(result.iterations, stats.iterations);
    result.edges_scanned += stats.edges_scanned;
    result.seconds = std::max(result.seconds, stats.seconds);
  });
  return result;
}

std::uint64_t MssgCluster::defragment_all() {
  std::uint64_t rewritten = 0;
  for (std::size_t node = 0; node < dbs_.size(); ++node) {
    if (auto* grdb = dynamic_cast<GrDB*>(dbs_[node].get())) {
      MetricsRegistry& reg = grdb->metrics();
      const TraceSpan pass_span = reg.span("defrag.pass");
      const std::uint64_t chains = grdb->defragment();
      reg.counter("defrag.chains_rewritten") += chains;
      rewritten += chains;
    }
  }
  return rewritten;
}

void MssgCluster::drop_storage_page_caches() const {
  for (const auto& db : dbs_) db->drop_os_page_cache();
}

MetricsSnapshot MssgCluster::metrics_snapshot() const {
  MetricsSnapshot snap = metrics_.snapshot();
  for (const auto& db : dbs_) db->publish_metrics(snap);
  snap.merge(scheduler_->metrics_snapshot());
  return snap;
}

}  // namespace mssg
