// The analytics suite — five algorithms beyond BFS, each expressed as a
// VertexProgram kernel over the semi-external-memory engine
// (query/vertex_program.hpp) instead of a bespoke copy of the BFS
// skeleton: PageRank, label-propagation connected components, k-core
// decomposition, triangle counting, and delta-stepping SSSP.
//
// All entries are collective across the communicator's ranks, keep
// their state query-private (never the GraphDB metadata store), and are
// registered as shared QueryService analyses, so the scheduler may run
// any mix of them at once against one cluster.  They require
// vertex-granularity hash-mod declustering with the globally known
// owner map (the experiments' standard configuration; the registry
// refuses other clusters with a UsageError) and a symmetrized edge set
// (both orientations stored, the ingest default) for the undirected
// semantics (CC, k-core, triangles) to be meaningful.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graphdb/graphdb.hpp"
#include "query/vertex_program.hpp"
#include "runtime/comm.hpp"

namespace mssg {

/// Unreached weighted distance (SSSP) / unset level sentinel.
inline constexpr std::uint64_t kInfiniteDistance = ~std::uint64_t{0};

// ---------------------------------------------------------------------------
// PageRank

struct PageRankOptions {
  std::uint64_t iterations = 10;  ///< power-iteration count (>= 1)
  double damping = 0.85;
  VertexProgramOptions engine;
};

struct PageRankStats {
  std::uint64_t vertices = 0;    ///< global stored vertices
  std::uint64_t supersteps = 0;  ///< == iterations unless truncated
  std::uint64_t edges_scanned = 0;  ///< this rank
  double rank_sum = 0.0;   ///< global sum of final ranks (~1 - dangling loss)
  VertexId top_vertex = kInvalidVertex;  ///< highest-ranked vertex (global)
  double top_rank = 0.0;
  bool truncated = false;
  double seconds = 0;
};

/// Multigraph semantics: a duplicate edge contributes twice, a self-loop
/// feeds a vertex its own share; dangling-vertex mass is dropped (the
/// usual semi-external simplification).  Ranks are bit-identical for
/// every rank count: the kernel runs combiner-less and folds each
/// vertex's contributions in sorted order, so the FP sum order is a pure
/// function of the graph.  `local_ranks`, when given, receives this
/// rank's (vertex, rank) pairs in ascending vertex order.
PageRankStats parallel_pagerank(
    Communicator& comm, GraphDB& db, const PageRankOptions& options = {},
    std::vector<std::pair<VertexId, double>>* local_ranks = nullptr);

// ---------------------------------------------------------------------------
// Connected components (label propagation)

struct CcStats {
  std::uint64_t components = 0;   ///< global count, consistent on all ranks
  std::uint64_t vertices = 0;     ///< global stored vertex count
  std::uint64_t iterations = 0;   ///< propagation supersteps until convergence
  std::uint64_t edges_scanned = 0;  ///< this rank
  double seconds = 0;
};

/// Min-label propagation as a VertexProgram kernel; the engine's
/// rank-ordered merge makes the converged labels — and every counter —
/// byte-identical across rank counts and repeated runs (the label-tie
/// determinism fix).  `local_labels`, when given, receives this rank's
/// (vertex, label) pairs in ascending vertex order.
CcStats parallel_label_cc(Communicator& comm, GraphDB& db,
                          const VertexProgramOptions& options = {},
                          std::vector<std::pair<VertexId, VertexId>>*
                              local_labels = nullptr);

// ---------------------------------------------------------------------------
// k-core decomposition

struct KCoreOptions {
  std::uint32_t k = 2;  ///< peel vertices of degree < k
  VertexProgramOptions engine;
};

struct KCoreStats {
  std::uint64_t core_vertices = 0;  ///< global vertices surviving the peel
  std::uint64_t rounds = 0;         ///< peeling supersteps until fixpoint
  std::uint64_t edges_scanned = 0;  ///< this rank
  bool truncated = false;
  double seconds = 0;
};

/// Iterative peeling on the simple-graph projection (duplicate edges and
/// self-loops ignored for degree purposes): every round, vertices whose
/// remaining degree dropped below k leave the core and decrement their
/// neighbors.  The surviving set is the (maximal) k-core.
KCoreStats parallel_kcore(Communicator& comm, GraphDB& db,
                          const KCoreOptions& options = {});

// ---------------------------------------------------------------------------
// Triangle counting

struct TriangleStats {
  std::uint64_t triangles = 0;     ///< global triangle count
  std::uint64_t wedge_checks = 0;  ///< membership probes shipped (global)
  std::uint64_t edges_scanned = 0;  ///< this rank (incl. probe fetches)
  double seconds = 0;
};

/// Exact triangle count on the simple-graph projection.  Each triangle
/// {x < y < z} is counted exactly once: x emits the wedge probe (y, z),
/// and y confirms z against its adjacency in the apply phase.  One
/// superstep; probe volume is sum over v of C(higher-degree(v), 2).
TriangleStats parallel_triangle_count(Communicator& comm, GraphDB& db,
                                      const VertexProgramOptions& options = {});

// ---------------------------------------------------------------------------
// Delta-stepping SSSP

struct SsspOptions {
  VertexId source = 0;
  /// Optional target; kInvalidVertex = full single-source tree.
  VertexId target = kInvalidVertex;
  /// Bucket width for the delta-stepping priority schedule.
  std::uint64_t delta = 4;
  /// Synthetic edge weights are 1..max_weight (the stored graph is
  /// unweighted; weights are a deterministic hash of the endpoint pair,
  /// symmetric in both orientations).
  std::uint32_t max_weight = 15;
  VertexProgramOptions engine;
};

struct SsspStats {
  /// Weighted distance to `target` (kInfiniteDistance when unreached or
  /// no target given).  Globally consistent.
  std::uint64_t distance = kInfiniteDistance;
  std::uint64_t reached = 0;     ///< global vertices with finite distance
  std::uint64_t supersteps = 0;  ///< relaxation rounds over all buckets
  std::uint64_t edges_scanned = 0;  ///< this rank
  bool truncated = false;
  double seconds = 0;
};

/// The deterministic synthetic weight of edge {a, b} (order-free).
[[nodiscard]] std::uint64_t sssp_edge_weight(VertexId a, VertexId b,
                                             std::uint32_t max_weight);

/// Delta-stepping: tentative distances advance bucket by bucket
/// (bucket = dist / delta); within the open bucket, improved vertices
/// re-relax every superstep, and the engine's allreduce-min aggregate
/// elects the next non-empty bucket once the current one settles.
/// `local_distances`, when given, receives this rank's finite
/// (vertex, distance) pairs in ascending vertex order.
SsspStats parallel_sssp(Communicator& comm, GraphDB& db,
                        const SsspOptions& options = {},
                        std::vector<std::pair<VertexId, std::uint64_t>>*
                            local_distances = nullptr);

}  // namespace mssg
