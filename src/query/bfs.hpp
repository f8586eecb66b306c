// Parallel out-of-core breadth-first search — Algorithms 1 and 2.
//
// SPMD: every simulated cluster node calls these with its Communicator
// and its local GraphDB instance.  The search is level-synchronous:
// each rank expands its fringe against local storage, routes newly
// discovered vertices to their owners (vertex granularity with a
// globally-known map) or broadcasts them (edge granularity / unknown
// map), then all ranks agree on termination via collectives.
//
// The GraphDB's metadata store is the level[] / visited structure; the
// thesis keeps it in memory for most experiments and external for the
// Syn-2B runs (choose via GraphDBConfig::external_metadata).
//
// Algorithm 2 (pipelined) overlaps communication with expansion: fringe
// buckets are sent as soon as they reach `pipeline_threshold`, and
// incoming chunks are merged while local expansion continues.
#pragma once

#include <cstdint>

#include "common/vertex_codec.hpp"
#include "graphdb/graphdb.hpp"
#include "runtime/comm.hpp"

namespace mssg {

class MetricsRegistry;

struct BfsOptions {
  /// Vertex-granularity storage with owner(v) = v mod p known everywhere
  /// (the experiments' configuration).  When false, fringes broadcast and
  /// every rank expands the full frontier against its partial adjacency.
  /// MssgCluster overwrites it from its declustering policy.
  bool map_known = true;
  /// Use Algorithm 2 (pipelined sends) instead of Algorithm 1.
  bool pipelined = false;
  /// Chunk size (vertices) that triggers an eager send in Algorithm 2.
  std::size_t pipeline_threshold = 1024;
  /// Wire format for fringe/chunk payloads (common/vertex_codec.hpp).
  /// kRaw is the ablation baseline; both formats deliver identical
  /// canonical (sorted) vertex order, so the search's work counters do
  /// not depend on this knob.
  WireFormat wire = WireFormat::kDelta;
  /// Algorithm 2 coalescing watermark, in raw payload bytes.  When
  /// nonzero, an eager chunk is sent once a bucket's un-encoded size
  /// reaches this many bytes, replacing the pipeline_threshold count
  /// trigger — fewer, fatter messages with the same total payload.
  /// 0 keeps the legacy per-vertex-count trigger.
  std::size_t chunk_watermark_bytes = 0;
  /// Hint the next fringe to the GraphDB before expanding it, letting
  /// grDB warm its cache in file-offset order (§4.2 future work).
  bool prefetch = false;
  /// Safety bound on levels (small-world graphs stay well under this).
  Metadata max_levels = 64;
  /// When set, the search publishes its counters ("bfs.*") and a trace
  /// span per level into this registry (the calling rank's node's, or a
  /// scheduled query's own).
  MetricsRegistry* metrics = nullptr;
};

struct BfsStats {
  Metadata distance = kUnvisited;  ///< hops from src to dst (kUnvisited if none)
  std::uint64_t levels = 0;            ///< levels expanded
  std::uint64_t edges_scanned = 0;     ///< adjacency entries read (this rank)
  std::uint64_t vertices_expanded = 0; ///< fringe vertices expanded (this rank)
  std::uint64_t fringe_messages = 0;   ///< fringe messages sent (this rank)
  std::uint64_t discovered_owned = 0;  ///< vertices this rank discovered and
                                       ///< owns (or all, in broadcast mode)
  double seconds = 0;
};

/// Runs one s→t search.  Collective: every rank of `comm` must call with
/// the same (src, dst, options).  Returns per-rank stats; `distance` and
/// `levels` are globally consistent.
BfsStats parallel_oocbfs(Communicator& comm, GraphDB& db, VertexId src,
                         VertexId dst, const BfsOptions& options = {});

}  // namespace mssg
