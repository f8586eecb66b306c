// MssgCluster — the framework facade (Figure 3.1).
//
// Assembles a simulated MSSG deployment: F front-end ingestion nodes, B
// back-end storage nodes (each a thread with a private GraphDB in its own
// directory), the Ingestion service between them, and the Query service
// running SPMD over the back-ends.  This is the class the examples and
// benches drive; the individual services remain usable standalone.
//
// Registered analyses reach the back-ends through one run path
// (run_analysis directly, submit_analysis through the scheduler): each
// rank pins its committed epoch and gets the owner-map flag this class
// derives from its declustering policy, so the registry answers the
// same as the direct traversals on every policy.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/metrics.hpp"
#include "common/temp_dir.hpp"
#include "graphdb/graphdb.hpp"
#include "ingest/decluster.hpp"
#include "ingest/ingest_service.hpp"
#include "query/analytics.hpp"
#include "query/bfs.hpp"
#include "query/bidirectional_bfs.hpp"
#include "query/graph_stats_analysis.hpp"
#include "query/ms_bfs.hpp"
#include "query/query_scheduler.hpp"
#include "query/query_service.hpp"
#include "runtime/comm.hpp"

namespace mssg {

enum class DeclusterPolicy {
  kHashMod,           ///< vertex granularity, globally known map (default)
  kVertexRoundRobin,  ///< vertex granularity, shared first-seen map
  kEdgeRoundRobin,    ///< edge granularity (searches broadcast)
  kBlockCluster,      ///< windowed connectivity clustering (§3.2)
};

struct ClusterConfig {
  int frontend_nodes = 1;
  int backend_nodes = 4;
  Backend backend = Backend::kGrDB;
  DeclusterPolicy decluster = DeclusterPolicy::kHashMod;
  /// Storage root; one subdirectory per back-end node.  Empty = fresh
  /// temp directory (removed with the cluster).
  std::filesystem::path storage_root;
  /// Template for per-node GraphDB configs (dir is overridden per node).
  GraphDBConfig db;
  IngestOptions ingest;
  /// Concurrent query engine: how many concurrent-safe analyses may run
  /// at once, and the per-query token budget (0 = unlimited).
  QuerySchedulerConfig scheduler;
};

/// K-hop neighborhood: distinct vertices within k hops of the source,
/// the source excluded.
struct KHopStats {
  std::uint64_t vertices_within = 0;
  std::uint64_t edges_scanned = 0;  ///< summed over nodes
  double seconds = 0;               ///< max over nodes (wall time)
};

/// Aggregated result of one distributed query.
struct ClusterQueryResult {
  Metadata distance = kUnvisited;
  std::uint64_t levels = 0;
  std::uint64_t edges_scanned = 0;     ///< summed over nodes
  std::uint64_t vertices_expanded = 0;
  std::uint64_t fringe_messages = 0;
  double seconds = 0;                  ///< max over nodes (wall time)
  std::vector<BfsStats> per_node;      ///< rank-indexed raw stats
};

class MssgCluster {
 public:
  explicit MssgCluster(ClusterConfig config);

  MssgCluster(const MssgCluster&) = delete;
  MssgCluster& operator=(const MssgCluster&) = delete;

  /// Streams an in-memory edge set through the Ingestion service,
  /// sharding it across the front-end nodes.
  IngestReport ingest(std::span<const Edge> edges);

  /// Streams arbitrary sources (one per front-end node).
  IngestReport ingest(std::vector<std::unique_ptr<EdgeSource>> sources);

  /// Live ingest: routes a batch straight into the back-end stores via
  /// the partitioner and commits it (flush on every touched node, which
  /// advances those stores' epochs).  The batch is durable on every node
  /// when this returns; on a journaled grDB node that flush is usually a
  /// log commit, one edge-log record and one fdatasync, and a checkpoint
  /// only when the node's log is full.  Every node's share is validated
  /// before any node stores, so a batch one node rejects (UsageError)
  /// stores nothing anywhere.  The minimal concurrent-write path: with
  /// GraphDBConfig::snapshots on, queries submitted through the scheduler
  /// keep reading their pinned epoch while these batches land.  Bypasses
  /// the front-end Ingestion pipeline (no declustering windows, no ingest
  /// report) — use ingest() for bulk loads.
  void live_ingest(std::span<const Edge> edges);

  /// Commits buffered writes on every back-end node (one flush each);
  /// with snapshots on this is the epoch boundary after which new
  /// snapshots see the writes.  A grDB node whose edge log holds records
  /// checkpoints them here, leaving the log empty.
  void commit_all();

  /// Runs a distributed BFS over all back-end nodes.  Like every
  /// traversal below, it broadcasts its fringes when the declustering
  /// policy gives no globally known owner map (options.map_known is
  /// derived here, whatever the caller set).
  ClusterQueryResult bfs(VertexId src, VertexId dst, BfsOptions options = {});

  /// Runs any registered analysis; returns rank 0's result vector.
  /// Shares submit_analysis's run path (owner-map flag, snapshot pin)
  /// with an inert context: no budget, metrics or cache attribution.
  std::vector<double> run_analysis(const std::string& name,
                                   const std::vector<std::uint64_t>& params);

  /// Submits a registered analysis to the concurrent query engine and
  /// returns immediately.  Every analysis shares the cluster with up to
  /// `scheduler.max_inflight` peers except `bfs` and `pipelined-bfs`,
  /// which write the metadata store and are admitted exclusively.
  /// `token_budget` overrides the scheduler's per-query budget for this
  /// query only (an explicit 0 fails admission).  Await the ticket for
  /// the outcome.
  QueryScheduler::Ticket submit_analysis(
      const std::string& name, const std::vector<std::uint64_t>& params,
      std::optional<std::uint64_t> token_budget = std::nullopt);

  /// Full-control submission for the serving front-end: the analysis
  /// runs with the given priority/deadline/budget (SubmitOptions).  The
  /// exclusive flag is decided by the registry, whatever the caller set.
  QueryScheduler::Ticket submit_analysis(
      const std::string& name, const std::vector<std::uint64_t>& params,
      SubmitOptions options);

  /// A cluster job: one invocation per back-end rank against that
  /// rank's GraphDB, under the scheduler's per-query context and with
  /// the rank's committed epoch pinned (snapshot semantics identical to
  /// submit_analysis).  Rank 0's return vector becomes the outcome —
  /// the serving front-end's point lookups run through this.  Jobs must
  /// not mutate shared per-node state (submit them exclusive if they
  /// do).
  using ClusterJob = std::function<std::vector<double>(
      Communicator& comm, QueryContext& ctx, GraphDB& db)>;

  /// Submits a cluster job to the concurrent query engine.
  QueryScheduler::Ticket submit_job(ClusterJob job, SubmitOptions options);

  /// Blocks until a submitted analysis finishes.
  QueryOutcome await_query(const QueryScheduler::Ticket& ticket);

  /// Runs one batched multi-source BFS (1..64 sources share a traversal)
  /// directly on the cluster, outside the scheduler.
  MsBfsStats ms_bfs(std::span<const VertexId> sources, VertexId dst,
                    MsBfsOptions options = {});

  /// Counts the distinct vertices within k hops of src: a one-source
  /// ms_bfs with no target and max_levels = k.
  KHopStats khop(VertexId src, Metadata k);

  /// Bidirectional point-to-point search (meets in the middle; far fewer
  /// edges scanned than bfs() on long paths).  Requires the default
  /// hash-mod declustering.
  ClusterQueryResult bidirectional_bfs(VertexId src, VertexId dst,
                                       BfsOptions options = {});

  /// Labels connected components across the cluster with the
  /// label-propagation kernel (requires the default hash-mod
  /// declustering).
  CcStats connected_components();

  /// Global statistics of the stored graph (Table 5.1 columns).
  DistributedGraphStats graph_stats();

  /// Runs grDB's offline defragmentation on every back-end node (no-op
  /// for other backends).  Returns total chains rewritten — the "idle
  /// time" compaction pass of §3.4.1.
  std::uint64_t defragment_all();

  [[nodiscard]] int backend_nodes() const {
    return config_.backend_nodes;
  }
  [[nodiscard]] GraphDB& node_db(int node) { return *dbs_.at(node); }
  [[nodiscard]] QueryService& queries() { return queries_; }
  [[nodiscard]] QueryScheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] Partitioner& partitioner() { return *partitioner_; }

  /// Best-effort eviction of every node's on-disk storage from the OS
  /// page cache (GraphDB::drop_os_page_cache per node) — how cold-leg
  /// benches make "cold" mean the device rather than memory.  Call only
  /// while no query is in flight.
  void drop_storage_page_caches() const;

  /// Node `node`'s registry (its GraphDB's): storage counters (io.*,
  /// storage.*, ...) and the analyses run on that node (bfs.*, cc.*,
  /// span.*, ...).  Thread-safe.
  [[nodiscard]] MetricsRegistry& node_metrics(int node) {
    return dbs_.at(node)->metrics();
  }

  /// One unified snapshot of everything the cluster counts: every node's
  /// registry plus its GraphDB gauges (grdb.*, txn.epochs_live, ...),
  /// the cluster registry (comm.* traffic, accumulated ingest.*), and
  /// the scheduler's aggregate (sched.*, completed queries).  Safe while
  /// searches, scheduled analyses and live_ingest() run: grDB's
  /// grdb.level*.subblocks/.free gauges are the values each node's
  /// writer published at its last flush, not its live allocator state.
  [[nodiscard]] MetricsSnapshot metrics_snapshot() const;

 private:
  /// owner(v) = v mod p holds on every node: only hash-mod declustering
  /// computes placement from the id alone.
  [[nodiscard]] bool map_known() const {
    return partitioner_->globally_known_map();
  }

  /// The one analysis run path (run_analysis and submit_analysis): this
  /// rank's committed epoch pinned, the derived owner-map flag in `ctx`.
  std::vector<double> run_on_rank(const std::string& name,
                                  const std::vector<std::uint64_t>& params,
                                  Communicator& comm, QueryContext& ctx);

  ClusterConfig config_;
  std::optional<TempDir> owned_root_;
  std::shared_ptr<SharedVertexMap> vertex_map_;
  std::unique_ptr<Partitioner> partitioner_;
  std::vector<std::unique_ptr<GraphDB>> dbs_;
  MetricsRegistry metrics_;  ///< cluster-wide: comm.* and merged ingest.*
  CommWorld world_;
  QueryService queries_;
  // Last member: runner threads reference the world and DBs, so the
  // scheduler must be torn down (queries joined) first.
  std::unique_ptr<QueryScheduler> scheduler_;
};

}  // namespace mssg
