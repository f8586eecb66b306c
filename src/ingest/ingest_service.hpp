// The Ingestion service (§3.2): front-end filters read the incoming edge
// stream in windows ("blocks") of a predetermined size, cluster/decluster
// each window with a Partitioner, and stream the partitioned edges to the
// back-end GraphDB writer filters over DataCutter-style streams.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/metrics.hpp"
#include "graphdb/graphdb.hpp"
#include "ingest/decluster.hpp"
#include "ingest/edge_source.hpp"

namespace mssg {

struct IngestOptions {
  /// Window ("block") size in edges — §3.2's streaming granularity.
  std::size_t window_edges = 64 * 1024;
  /// Store both orientations of each input edge (the thesis' graphs are
  /// undirected; each orientation is routed by its own source vertex).
  bool symmetrize = true;
  /// Stream queue depth between front-end and back-end filters.
  std::size_t stream_capacity = 16;
};

struct IngestReport {
  double seconds = 0;
  std::uint64_t edges_stored = 0;  ///< directed edges written to GraphDBs
  std::vector<std::uint64_t> per_backend;

  /// Metrics of the run: "ingest.*" counters plus the
  /// "span.ingest.window" / "span.ingest.store" traces, counted by every
  /// filter copy into one registry and snapshotted after the pipeline
  /// joins.
  MetricsSnapshot metrics;

  /// Max/min back-end edge-count ratio — the load-balance number the
  /// Fig 5.3 discussion attributes ingestion differences to.
  [[nodiscard]] double imbalance() const;
};

/// Runs the full ingestion pipeline: one front-end filter per source, one
/// back-end writer per GraphDB.  Blocks until the stream is drained and
/// every backend has finalized.
IngestReport run_ingestion(std::vector<std::unique_ptr<EdgeSource>> sources,
                           Partitioner& partitioner,
                           std::span<GraphDB* const> backends,
                           const IngestOptions& options = {});

}  // namespace mssg
