// Batched multi-source BFS (MS-BFS style, after Then et al. and the
// FlashGraph/Graphyti concurrent-traversal designs): up to 64 sources
// run level-synchronously in ONE traversal.  Every frontier vertex
// carries a 64-bit source mask, so one adjacency fetch serves every
// source whose bit is set and each level ships one mask-merged fringe
// exchange instead of one per source — the amortization that makes a
// semi-external-memory engine serve many queries from a shared cache.
//
// Unlike parallel_oocbfs, the search keeps its visited state in
// query-private dense arrays instead of the GraphDB's metadata store, so
// several of these analyses can run concurrently against one GraphDB
// (the metadata store is a single shared level[] array — concurrent
// queries would corrupt each other's visited sets there).  Like
// Algorithm 1's metadata array, each rank holds one 64-bit seen mask
// per vertex id plus one pending mask for the level being built; both
// grow to the highest vertex id read from storage, never to a source or
// target id a caller passes in.
//
// Registry entries built on it (query_service.cpp): `ms-bfs` takes
// params {src0, ..., srcN-1, dst}, sources first and the target last;
// `cbfs` is the same entry under a second name, so {src, dst} is the
// concurrent single-source BFS; `khop` {src, k} is one source with
// dst = kInvalidVertex and max_levels = k.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/vertex_codec.hpp"
#include "graphdb/graphdb.hpp"
#include "query/query_budget.hpp"
#include "runtime/comm.hpp"

namespace mssg {

class MetricsRegistry;

struct MsBfsOptions {
  /// Vertex-granularity storage with owner(v) = v mod p known everywhere.
  /// When false, fringe pairs broadcast and every rank tracks the full
  /// frontier against its partial adjacency.  MssgCluster overwrites it
  /// from its declustering policy.
  bool map_known = true;
  /// Wire format for the (vertex, mask) fringe pairs.
  WireFormat wire = WireFormat::kDelta;
  /// Hint the next fringe to the GraphDB before expanding it.
  bool prefetch = false;
  /// Safety bound on levels (doubles as k for k-hop style runs).
  Metadata max_levels = 64;
  /// When set, publishes "msbfs.*" counters into this rank's registry.
  MetricsRegistry* metrics = nullptr;
  /// Cooperative token budget (tokens = adjacency entries scanned,
  /// summed across ranks).  Checked collectively at level boundaries;
  /// exhaustion sets MsBfsStats::truncated.  nullptr = unlimited.
  QueryBudget* budget = nullptr;
};

struct MsBfsStats {
  /// Per source: hops to dst (kUnvisited when unreached / no dst given).
  /// Globally consistent across ranks.
  std::vector<Metadata> distance;
  /// Per source: vertices discovered within max_levels, source excluded
  /// (k-hop semantics).  Globally consistent.
  std::vector<std::uint64_t> discovered;
  std::uint64_t levels = 0;             ///< levels expanded (global)
  std::uint64_t edges_scanned = 0;      ///< adjacency entries read (this rank)
  std::uint64_t adjacency_fetches = 0;  ///< frontier vertices fetched once
                                        ///< (this rank)
  std::uint64_t shared_scans_saved = 0; ///< fetches a per-source run would
                                        ///< have repeated: sum of
                                        ///< popcount(mask)-1 (this rank)
  std::uint64_t fringe_messages = 0;    ///< fringe messages sent (this rank)
  bool truncated = false;               ///< token budget cut the search short
  double seconds = 0;
};

/// Runs one batched multi-source search.  Collective: every rank of
/// `comm` must call with the same (sources, dst, options).  `sources`
/// holds 1..64 vertices; `dst = kInvalidVertex` means no target (pure
/// multi-source exploration — distance stays kUnvisited).  Does NOT
/// touch the GraphDB metadata store, so concurrent calls over one
/// GraphDB are safe.
MsBfsStats parallel_msbfs(Communicator& comm, GraphDB& db,
                          std::span<const VertexId> sources, VertexId dst,
                          const MsBfsOptions& options = {});

}  // namespace mssg
