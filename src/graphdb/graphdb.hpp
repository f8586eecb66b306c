// The GraphDB Service interface — C++ rendering of the thesis' Listing
// 3.1.  A GraphDB instance stores the subgraph assigned to one back-end
// node and answers purely local operations; no method communicates.
//
// "In order to be complete, a graph-storage service only needs to store
// edges and retrieve lists of distance-1 neighbors", plus a fused
// neighbors-filtered-by-metadata call for performance.  Traversals read
// a whole fringe through one batched call, which out-of-core backends
// answer in storage order.  Metadata is the per-vertex int the BFS
// analyses use as their level/visited array.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/types.hpp"
#include "graphdb/metadata_store.hpp"
#include "storage/io_stats.hpp"
#include "storage/snapshot.hpp"

namespace mssg {

/// The `operation` argument of getAdjacencyListUsingMetadata.
enum class MetadataOp : int {
  kAll = -2,       ///< ignore metadata, return all neighbors
  kNotEqual = -1,  ///< neighbor's metadata != input
  kEqual = 0,      ///< neighbor's metadata == input
  kGreater = 1,    ///< neighbor's metadata >  input
  kLess = 2,       ///< neighbor's metadata <  input
};

struct GraphDBConfig;

class GraphDB {
 public:
  virtual ~GraphDB() = default;

  /// Stores a batch of directed edges (undirected graphs are symmetrized
  /// by the Ingestion service before routing).  Throws StorageError.
  virtual void store_edges(std::span<const Edge> edges) = 0;

  /// Throws UsageError, touching nothing, when store_edges would reject
  /// `edges` for what the edges are (ids the backend cannot address), so
  /// a caller spreading one batch over several stores can check every
  /// share before any store takes its own.  Default: accepts all.
  virtual void validate_edges(std::span<const Edge> edges) const {
    (void)edges;
  }

  /// Appends v's out-neighbors to `out`.  Unknown vertices yield nothing
  /// (Algorithm 1 relies on "the empty set when an adjacency list of a
  /// vertex that is not assigned to that processor is requested").
  virtual void get_adjacency(VertexId v, std::vector<VertexId>& out) = 0;

  /// Receives request i's adjacency list; returns false to stop.
  using AdjacencyVisitor =
      std::function<bool(std::size_t, std::span<const VertexId>)>;

  /// The batched read every traversal sends its whole fringe through —
  /// "post a request for all of the 'fringe' vertices at once" (§4.1.5).
  /// `visit(i, list)` runs once per request, in request order, and
  /// `list` holds exactly what get_adjacency(vertices[i]) appends
  /// (duplicates and unknown vertices included).  Once `visit` returns
  /// false no further visit runs and no read beyond the requests already
  /// in flight starts.  No cache handle, latch or backend lock is held
  /// while `visit` runs, so a visitor may call back into this store.
  /// Default: the per-vertex loop.  grDB walks the chains of a slice of
  /// requests together in block order; StreamDB answers with one log
  /// scan.
  virtual void get_adjacency_batch(std::span<const VertexId> vertices,
                                   const AdjacencyVisitor& visit);

  /// Fused neighbors+metadata filter (Listing 3.1's performance call).
  /// Appends each neighbor u of v for which `op` holds between
  /// metadata(u) and `metadata`.
  virtual void get_adjacency_using_metadata(VertexId v,
                                            std::vector<VertexId>& out,
                                            Metadata metadata, MetadataOp op);

  /// Per-vertex metadata (BFS level).  Backed by the pluggable
  /// MetadataStore (in-memory by default; external-memory for the
  /// Fig 5.8/5.9 configuration).
  [[nodiscard]] virtual Metadata get_metadata(VertexId v);
  virtual void set_metadata(VertexId v, Metadata metadata);

  /// Resets all metadata between queries.
  virtual void clear_metadata(Metadata fill = kUnvisited);

  /// Visits every vertex with at least one locally stored out-edge, in
  /// unspecified order; the visitor returns false to stop.  Whole-graph
  /// analyses (connected components) use this to enumerate the local
  /// vertex set.
  virtual void for_each_vertex(
      const std::function<bool(VertexId)>& visit) = 0;

  /// Best-effort eviction of this backend's on-disk files from the OS
  /// page cache (File::drop_page_cache per file) — how cold-cache
  /// benches make "cold" mean the device rather than memory.  No-op for
  /// in-memory backends.  Not counted in IoStats.
  virtual void drop_os_page_cache() const {}

  /// Hints that the adjacency lists of `vertices` are about to be read
  /// (the next BFS fringe).  Out-of-core backends may warm their caches;
  /// grDB sorts the accesses by file offset to cut seek overhead — the
  /// §4.2 future-work optimization.  Default: no-op.
  virtual void prefetch(std::span<const VertexId> vertices) {
    (void)vertices;
  }

  /// Called once after ingestion completes, before queries.  The Array
  /// backend converts its ingest-time hash storage into CSR here; others
  /// flush write buffers.
  virtual void finalize_ingest() {}

  /// Persists any buffered state.
  virtual void flush() {}

  /// Pins the last committed epoch and returns the handle (DESIGN.md
  /// "Snapshot isolation").  A reader thread installs it in a
  /// SnapshotScope; every read it then makes through this backend sees
  /// exactly the pinned epoch, no matter how far concurrent
  /// store_edges/flush have advanced.  Returns nullptr when snapshots
  /// are disabled (`GraphDBConfig::snapshots`) or the backend does not
  /// support them — SnapshotScope treats a null ref as "read live
  /// state", so callers pin-and-install unconditionally.
  [[nodiscard]] virtual SnapshotRef begin_snapshot() { return nullptr; }

  /// Observability for the snapshot subsystem: the committed epoch, the
  /// live pinned-snapshot count, and the COW versions currently shelved.
  struct TxnState {
    Epoch committed = 0;
    std::uint64_t live_snapshots = 0;
    std::uint64_t versions = 0;
  };
  [[nodiscard]] virtual TxnState txn_state() const { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// This node's registry, the one place its counts live: the storage
  /// layers (metadata store included) count into it through `stats_`,
  /// the IoEngine workers through the same handles, and analyses run
  /// against this node through their `metrics` option (bfs.*, span.*,
  /// ...).  Thread-safe; readable while work runs.
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }

  /// Publishes this node into a merged snapshot: the registry (every
  /// backend carries the full io.* set, zeroes for in-memory ones) plus
  /// gauges read from backend state.  Overrides add gauges and must call
  /// the base implementation.
  virtual void publish_metrics(MetricsSnapshot& snap) const;

  /// Direct access to the metadata store (the BFS analyses use it).
  [[nodiscard]] MetadataStore& metadata_store() { return *metadata_; }

 protected:
  /// Builds the metadata store `config` asks for (in-memory, or the
  /// external store counting into `stats_`).
  explicit GraphDB(const GraphDBConfig& config);

  static bool metadata_matches(Metadata lhs, Metadata rhs, MetadataOp op);

  // Declared first, destroyed last: every member below and every
  // backend member counts through these handles until it is gone.
  MetricsRegistry metrics_;
  IoStats stats_{metrics_};
  std::unique_ptr<MetadataStore> metadata_;
};

/// Available backends — the six instances of chapter 4.
enum class Backend {
  kArray,       ///< in-memory CSR (§4.1.1)
  kHashMap,     ///< in-memory hash of adjacency arrays (§4.1.2)
  kRelational,  ///< MySQL stand-in: heap table + index (§4.1.3)
  kKVStore,     ///< BerkeleyDB stand-in: B+tree of blobs (§4.1.4)
  kStream,      ///< append-only edge log, scan-based (§4.1.5)
  kGrDB,        ///< the proposed graph database (§4.1.6 / §3.4.1)
};

[[nodiscard]] std::string to_string(Backend backend);

struct GraphDBConfig {
  /// Node-local storage directory (ignored by in-memory backends).
  std::filesystem::path dir;
  /// Block/page cache budget for out-of-core backends; 0 disables the
  /// cache entirely (Figure 5.2's "without cache").
  std::size_t cache_bytes = 16u << 20;
  /// Read the next fringe's blocks ahead through the background IoEngine
  /// (overlapping disk reads with computation, §4.2).  Only meaningful
  /// for out-of-core backends with a nonzero cache; turning it off gives
  /// the fully synchronous baseline of the ablation bench, in which
  /// prefetch() does nothing.  Dirty blocks are written back
  /// synchronously either way.
  bool async_io = true;
  /// Use an external-memory metadata/visited store instead of in-memory
  /// (Figures 5.8/5.9 discussion).
  bool external_metadata = false;
  /// Crash-safe flushes: page stores keep an undo+redo write-ahead
  /// journal so reopening after a crash at any point recovers the last
  /// flush()-committed state (DESIGN.md "Durability & recovery").  grDB
  /// also keeps a per-node edge log: most flushes append the batch there
  /// and fdatasync that file alone, and a checkpoint folds the logged
  /// batches into the blocks when the log is full.  Turning it off gives
  /// the journal-ablation baseline (EXPERIMENTS.md A11); checksum
  /// trailers stay on either way.
  bool journal = true;
  /// Journal group commit: every n-th flush() commits durably, the ones
  /// in between batch their redo records into the group and skip both
  /// fsyncs (1 = every flush commits).  A crash inside a group rolls
  /// back to the last boundary atomically.  Applies only when n > 1; at
  /// 1 a grDB flush may be an edge-log commit, which n > 1 turns off.
  std::uint32_t journal_sync_interval = 1;
  /// Upper bound on the vertex ids the external metadata store
  /// (`external_metadata`) accepts; no other store reads it.  grDB's
  /// level 0 grows with the largest source stored, and the in-memory
  /// stores grow lazily.
  VertexId max_vertices = 1u << 20;
  /// Epoch-based snapshot isolation (DESIGN.md "Snapshot isolation"):
  /// begin_snapshot() pins the last committed epoch and reads under a
  /// SnapshotScope serve exactly that epoch while store_edges/flush
  /// advance the next one.  Writers pay a copy-on-write pre-image on the
  /// first mutation of each page/chunk per epoch (txn.cow_pages); with
  /// no live snapshots retired versions purge at every commit, so the
  /// overhead is one epoch of pre-images.  Off by default: the classic
  /// ingest-then-query phasing pays nothing.
  bool snapshots = false;
  /// Simulated device latency per block-cache miss, in microseconds
  /// (0 = off).  The harness's "disk" is the OS page cache, which hides
  /// the seek cost the paper's 2006-era drives paid on every miss; the
  /// concurrency ablation (A12) arms this to measure how much of that
  /// stall time overlapping queries can hide.  The stall is served with
  /// the cache lock released, so concurrent queries overlap their
  /// stalls the way parallel requests overlap on a real device queue.
  std::uint32_t sim_miss_penalty_us = 0;
};

/// Creates a backend instance.
std::unique_ptr<GraphDB> make_graphdb(Backend backend,
                                      const GraphDBConfig& config);

}  // namespace mssg
