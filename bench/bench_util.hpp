// Shared infrastructure for the figure-reproduction benchmarks.
//
// Each bench binary regenerates one table/figure of the thesis.  Graphs
// are scaled-down analogues (see gen/datasets.hpp); the scale multiplies
// via the MSSG_SCALE environment variable.
//
// Timing methodology: the simulated cluster runs its nodes as threads on
// however many cores this machine has, so *wall time* cannot show the
// paper's multi-node scaling by itself.  Every search bench therefore
// reports, alongside wall time:
//   - deterministic work counters (edges scanned, disk blocks, messages)
//   - a *modeled parallel time*: max over nodes of (disk seeks * t_seek +
//     bytes / bandwidth + edges * t_edge) + levels * t_latency, with
//     2006-era constants (8 ms seek, 50 MB/s disk, 5 M edges/s CPU,
//     0.1 ms message latency).  The model is evaluated from the measured
//     per-node counters, so the *shape* across backends and node counts
//     is measurement-driven, not assumed.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gen/datasets.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "gen/stats.hpp"
#include "mssg/mssg.hpp"

namespace mssg::bench {

/// Global scale multiplier: MSSG_SCALE env var (default 1).  Each bench
/// binary additionally applies its own base scale.
inline double scale_from_env(double base) {
  if (const char* env = std::getenv("MSSG_SCALE")) {
    return base * std::atof(env);
  }
  return base;
}

// ---- Workloads -------------------------------------------------------------

struct Workload {
  DatasetSpec spec;
  std::vector<Edge> edges;
  std::unique_ptr<MemoryGraph> reference;
  std::vector<QueryPair> pairs;  ///< stratified by true distance

  [[nodiscard]] std::vector<QueryPair> pairs_with_distance(Metadata d) const {
    std::vector<QueryPair> result;
    for (const auto& pair : pairs) {
      if (pair.distance == d) result.push_back(pair);
    }
    return result;
  }

  [[nodiscard]] std::uint64_t directed_bytes() const {
    return edges.size() * 2 * sizeof(VertexId);
  }
};

/// Builds (and caches for the life of the process) a dataset plus labelled
/// query pairs.
inline const Workload& workload(const DatasetSpec& spec,
                                Metadata max_distance = 6,
                                std::size_t per_bucket = 3) {
  static std::map<std::string, std::unique_ptr<Workload>> cache;
  std::ostringstream key;
  key << spec.name << '/' << spec.vertices << '/' << spec.edges << '/'
      << max_distance << '/' << per_bucket;
  auto& slot = cache[key.str()];
  if (!slot) {
    auto w = std::make_unique<Workload>();
    w->spec = spec;
    w->edges = build_dataset(spec);
    w->reference = std::make_unique<MemoryGraph>(spec.vertices, w->edges);
    w->pairs = sample_stratified_pairs(*w->reference, max_distance,
                                       per_bucket, spec.seed ^ 0xabcd);
    slot = std::move(w);
  }
  return *slot;
}

// ---- Clusters --------------------------------------------------------------

struct ClusterSpec {
  Backend backend = Backend::kGrDB;
  int backend_nodes = 16;
  int frontend_nodes = 4;
  /// Unset = auto: 32x this node's share of the graph, enough to hold every
  /// backend's full on-disk footprint with room to spare (grDB's sparse
  /// global-GID level 0 and oversized upper-level sub-blocks cost ~3-4x
  /// the raw data; the B-tree packs tighter).  This is the paper's
  /// regime: its nodes had 8 GB RAM against per-node shares of at most
  /// ~260 MB (a ratio >= 30:1), so the PubMed experiments ran warm.  The
  /// genuinely cache-starved regime belongs to the Syn-2B figures
  /// (cache_bytes set explicitly there).  0 disables the cache (Figure
  /// 5.2's "without cache").
  std::optional<std::size_t> cache_bytes;
  bool external_metadata = false;
  /// Background IoEngine for prefetch read-ahead; false gives the fully
  /// synchronous baseline (ablation A-prefetch).
  bool async_io = true;
  /// Cold legs: drop the OS page cache for every node's storage before
  /// each timed iteration (File::drop_page_cache per file), so "cold"
  /// means the device rather than memory — the discipline
  /// bench_ablation_io established, available to every search bench.
  bool cold = false;

  [[nodiscard]] std::string key(const Workload& w) const {
    std::ostringstream os;
    os << to_string(backend) << '/' << backend_nodes << '/' << frontend_nodes
       << '/' << (cache_bytes ? std::to_string(*cache_bytes) : "auto") << '/'
       << external_metadata << '/' << async_io << '/'
       << cold << '/' << w.spec.name << '/' << w.edges.size();
    return os.str();
  }
};

struct ReadyCluster {
  std::unique_ptr<MssgCluster> cluster;
  IngestReport ingest_report;
};

/// Builds + ingests a cluster once per (workload, spec); cached.
inline ReadyCluster& cluster_for(const Workload& w, const ClusterSpec& spec) {
  static std::map<std::string, std::unique_ptr<ReadyCluster>> cache;
  auto& slot = cache[spec.key(w)];
  if (!slot) {
    ClusterConfig config;
    config.backend = spec.backend;
    config.backend_nodes = spec.backend_nodes;
    config.frontend_nodes = spec.frontend_nodes;
    config.db.cache_bytes = spec.cache_bytes.value_or(std::max<std::size_t>(
        256 << 10, 32 * w.directed_bytes() / spec.backend_nodes));
    config.db.external_metadata = spec.external_metadata;
    config.db.async_io = spec.async_io;
    config.db.max_vertices = w.spec.vertices;
    auto ready = std::make_unique<ReadyCluster>();
    ready->cluster = std::make_unique<MssgCluster>(config);
    ready->ingest_report = ready->cluster->ingest(w.edges);
    slot = std::move(ready);
  }
  return *slot;
}

// ---- Per-node counters -----------------------------------------------------

/// Every back-end node's counters (rank-indexed), minus `before[n]` when
/// given — so a call before and one after some work yield what each
/// node counted during it, and a call alone everything since the node
/// opened.  The benches read io.* and storage.* off these.
inline std::vector<MetricsSnapshot> node_counters(
    MssgCluster& cluster, std::span<const MetricsSnapshot> before = {}) {
  std::vector<MetricsSnapshot> out(cluster.backend_nodes());
  for (std::size_t n = 0; n < out.size(); ++n) {
    out[n] = cluster.node_metrics(static_cast<int>(n)).snapshot();
    out[n].histograms.clear();
    if (n >= before.size()) continue;
    for (auto& [name, value] : out[n].counters) {
      value -= before[n].counter(name);
    }
  }
  return out;
}

// ---- Cost model ------------------------------------------------------------

/// 2006-era hardware constants (dual-Opteron nodes, SATA RAID0, GigE).
struct CostModel {
  double seek_seconds = 8e-3;        ///< random block access
  double disk_bandwidth = 50e6;      ///< bytes/s sequential
  double edge_seconds = 2e-7;        ///< CPU per adjacency entry (5 M/s)
  double message_seconds = 1e-4;     ///< per point-to-point message
};

/// Modeled parallel execution time of one distributed query, computed
/// from measured per-node counters: max over nodes of local work plus a
/// per-level synchronization charge.
inline double modeled_search_seconds(
    const ClusterQueryResult& result,
    std::span<const MetricsSnapshot> per_node_io,
    const CostModel& model = {}) {
  double slowest = 0;
  for (std::size_t n = 0; n < result.per_node.size(); ++n) {
    const auto& stats = result.per_node[n];
    double node = static_cast<double>(stats.edges_scanned) *
                  model.edge_seconds;
    if (n < per_node_io.size()) {
      const MetricsSnapshot& io = per_node_io[n];
      node += static_cast<double>(io.counter("io.reads") +
                                  io.counter("io.writes")) *
              model.seek_seconds;
      node += static_cast<double>(io.counter("io.bytes_read") +
                                  io.counter("io.bytes_written")) /
              model.disk_bandwidth;
    }
    slowest = std::max(slowest, node);
  }
  const double sync = static_cast<double>(result.levels) *
                      static_cast<double>(result.per_node.size()) *
                      model.message_seconds;
  return slowest + sync;
}

/// Modeled parallel ingestion time from the per-backend edge counts and
/// per-node I/O: the slowest node bounds the pipeline.
inline double modeled_ingest_seconds(
    const IngestReport& report, std::span<const MetricsSnapshot> per_node_io,
    const CostModel& model = {}) {
  double slowest = 0;
  for (std::size_t n = 0; n < report.per_backend.size(); ++n) {
    double node = static_cast<double>(report.per_backend[n]) *
                  model.edge_seconds;
    if (n < per_node_io.size()) {
      const MetricsSnapshot& io = per_node_io[n];
      node += static_cast<double>(io.counter("io.reads") +
                                  io.counter("io.writes")) *
              model.seek_seconds;
      node += static_cast<double>(io.counter("io.bytes_read") +
                                  io.counter("io.bytes_written")) /
              model.disk_bandwidth;
    }
    slowest = std::max(slowest, node);
  }
  return slowest;
}

// ---- Metrics reporting -----------------------------------------------------

/// Copies the headline counters of a MetricsSnapshot into benchmark
/// counters, so every bench row carries the unified accounting schema
/// (see DESIGN.md "I/O accounting") next to its timings.
inline void report_metrics(benchmark::State& state,
                           const MetricsSnapshot& snap) {
  state.counters["io_reads"] = static_cast<double>(snap.counter("io.reads"));
  state.counters["io_bytes_read"] =
      static_cast<double>(snap.counter("io.bytes_read"));
  state.counters["cache_hits"] =
      static_cast<double>(snap.counter("io.cache_hits"));
  state.counters["cache_misses"] =
      static_cast<double>(snap.counter("io.cache_misses"));
  state.counters["read_stalls"] =
      static_cast<double>(snap.counter("io.read_stalls"));
  state.counters["prefetch_issued"] =
      static_cast<double>(snap.counter("io.prefetch_issued"));
  state.counters["prefetch_hits"] =
      static_cast<double>(snap.counter("io.prefetch_hits"));
  state.counters["comm_msgs"] =
      static_cast<double>(snap.counter("comm.messages_sent"));
  state.counters["comm_bytes"] =
      static_cast<double>(snap.counter("comm.bytes_sent"));
  state.counters["comm_payload_raw"] =
      static_cast<double>(snap.counter("comm.payload_bytes_raw"));
  state.counters["comm_payload_encoded"] =
      static_cast<double>(snap.counter("comm.payload_bytes_encoded"));
  state.counters["comm_bcast_copies_avoided"] =
      static_cast<double>(snap.counter("comm.broadcast_copies_avoided"));
}

/// Snapshot-and-report convenience for benches that drive an MssgCluster.
inline void report_cluster_metrics(benchmark::State& state,
                                   const MssgCluster& cluster) {
  report_metrics(state, cluster.metrics_snapshot());
}

/// Runs one query and returns (result, per-node counter delta).
struct QueryRun {
  ClusterQueryResult result;
  std::vector<MetricsSnapshot> io_delta;
};

inline QueryRun run_query(MssgCluster& cluster, const QueryPair& pair,
                          const BfsOptions& options = {}) {
  const auto before = node_counters(cluster);
  QueryRun run;
  run.result = cluster.bfs(pair.src, pair.dst, options);
  run.io_delta = node_counters(cluster, before);
  return run;
}

/// Benchmarks a bucket of same-distance queries: runs each pair once per
/// iteration, reports wall ms plus modeled ms and edges/s counters.
inline void run_search_bucket(benchmark::State& state, const Workload& w,
                              const ClusterSpec& spec, Metadata distance,
                              const BfsOptions& options = {}) {
  auto& ready = cluster_for(w, spec);
  const auto pairs = w.pairs_with_distance(distance);
  if (pairs.empty()) {
    state.SkipWithError("no query pairs at this path length");
    return;
  }
  double modeled_total = 0;
  std::uint64_t edges_total = 0;
  std::uint64_t messages_total = 0;
  std::uint64_t queries = 0;
  for (auto _ : state) {
    if (spec.cold) {
      // Cold means the device: evict every node's storage from the OS
      // page cache so this iteration's misses actually touch "disk".
      state.PauseTiming();
      ready.cluster->drop_storage_page_caches();
      state.ResumeTiming();
    }
    for (const auto& pair : pairs) {
      const auto run = run_query(*ready.cluster, pair, options);
      if (run.result.distance != pair.distance) {
        state.SkipWithError("BFS distance mismatch — result invalid");
        return;
      }
      modeled_total += modeled_search_seconds(run.result, run.io_delta);
      edges_total += run.result.edges_scanned;
      messages_total += run.result.fringe_messages;
      ++queries;
    }
  }
  state.counters["queries"] = static_cast<double>(pairs.size());
  state.counters["modeled_ms_per_query"] =
      queries == 0 ? 0 : 1e3 * modeled_total / static_cast<double>(queries);
  state.counters["edges_per_query"] =
      queries == 0 ? 0
                   : static_cast<double>(edges_total) /
                         static_cast<double>(queries);
  state.counters["edges_per_modeled_s"] =
      modeled_total == 0 ? 0
                         : static_cast<double>(edges_total) / modeled_total;
  state.counters["msgs_per_query"] =
      queries == 0 ? 0
                   : static_cast<double>(messages_total) /
                         static_cast<double>(queries);
  report_cluster_metrics(state, *ready.cluster);
}

// ---- BENCH_<id>.json rows --------------------------------------------------

/// One row of a BENCH_<id>.json file.  Timed rows also carry their
/// iteration count and mean wall time per iteration.
struct JsonRow {
  std::string name;
  std::optional<std::uint64_t> iterations;
  double wall_ms_mean = 0;
  std::map<std::string, double> counters;
};

/// The rows this binary accumulated, in run order.
inline std::vector<JsonRow>& json_rows() {
  static std::vector<JsonRow> rows;
  return rows;
}

/// Writes BENCH_<id>.json in the working directory: the workload header
/// and every accumulated row.
inline void write_json(const std::string& id, const Workload& w, bool smoke) {
  std::ofstream out("BENCH_" + id + ".json");
  out << "{\n  \"bench\": \"" << id << "\",\n  \"dataset\": \"" << w.spec.name
      << "\",\n  \"vertices\": " << w.spec.vertices
      << ",\n  \"edges\": " << w.edges.size()
      << ",\n  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"rows\": [";
  for (std::size_t i = 0; i < json_rows().size(); ++i) {
    const JsonRow& row = json_rows()[i];
    out << (i == 0 ? "" : ",") << "\n    {\"name\": \"" << row.name << '"';
    if (row.iterations) {
      out << ", \"iterations\": " << *row.iterations
          << ", \"wall_ms_mean\": " << row.wall_ms_mean;
    }
    out << ", \"counters\": {";
    bool first = true;
    for (const auto& [key, value] : row.counters) {
      out << (first ? "" : ", ") << '"' << key << "\": " << value;
      first = false;
    }
    out << "}}";
  }
  out << "\n  ]\n}\n";
}

/// Short backend labels for benchmark names.
inline std::string short_name(Backend backend) {
  switch (backend) {
    case Backend::kArray: return "Array";
    case Backend::kHashMap: return "HashMap";
    case Backend::kRelational: return "MySQL";
    case Backend::kKVStore: return "BerkeleyDB";
    case Backend::kStream: return "StreamDB";
    case Backend::kGrDB: return "grDB";
  }
  return "?";
}

}  // namespace mssg::bench
