// mssg_perfbench — the regression benchmark driver (README.md).
//
// One process drives a 4-back-end grDB MssgCluster through its public
// API in one of two workloads:
//
//   search_ooc   out-of-core point-to-point BFS (MssgCluster::bfs), one
//                closed-loop client, cache = each node's raw edge share
//   ingest_live  one closed-loop live_ingest writer next to one closed-loop
//                reader of PATH queries (serve::compile_query +
//                ServeSession::run_plan, one cbfs job each through the
//                scheduler), snapshots on, warm cache
//
// Inputs (query pairs, ingest batches) are generated
// from --seed before timing starts, and every answer is checked against
// the in-memory reference graph.  Counter deltas come from
// metrics_snapshot() taken only while no query is in flight.  With
// --trace 1 the driver records spans around its own calls into each
// layer (every other request, so the untraced half measures the tracing
// overhead) and prints the per-layer metrics instead of the end-to-end
// ones.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/temp_dir.hpp"
#include "gen/datasets.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "mssg/mssg.hpp"
#include "serve/query_lang.hpp"
#include "serve/session.hpp"

#ifndef MSSG_PERFBENCH_BUILD_TYPE
#define MSSG_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mssg;
using Clock = std::chrono::steady_clock;

constexpr int kBackendNodes = 4;
constexpr int kFrontendNodes = 2;
constexpr int kSetupRepeats = 5;
constexpr Metadata kMaxDistance = 6;
constexpr std::size_t kBatchEdges = 2048;

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// ---- Command line -----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Seconds-scale mode for the benchmark's own tests: a ~25x smaller
  /// graph, same code paths.
  bool quick = false;
  std::filesystem::path work_dir = ".bench_build/work";
  std::string source_id = "unknown";
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value: " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--source-id") {
      o.source_id = value();
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (o.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

// ---- Statistics -------------------------------------------------------------

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Counter and histogram deltas between two quiescent snapshots.
struct SnapshotDelta {
  MetricsSnapshot before;
  MetricsSnapshot after;

  [[nodiscard]] double counter(const std::string& name) const {
    return static_cast<double>(after.counter(name)) -
           static_cast<double>(before.counter(name));
  }
  /// Mean of the histogram values recorded between the two snapshots.
  [[nodiscard]] double histogram_mean(const std::string& name) const {
    const auto sum_count = [&](const MetricsSnapshot& s) {
      const auto it = s.histograms.find(name);
      return it == s.histograms.end()
                 ? std::pair<double, double>{0, 0}
                 : std::pair<double, double>{static_cast<double>(it->second.sum),
                                             static_cast<double>(it->second.count)};
    };
    const auto [s0, c0] = sum_count(before);
    const auto [s1, c1] = sum_count(after);
    return ratio(s1 - s0, c1 - c0);
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t dir_bytes(const std::filesystem::path& root) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(root, ec);
       it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// ---- Tracing ----------------------------------------------------------------

/// In-memory span log.  Spans are recorded by the driver around its own
/// calls into each layer; values the API returns (queue and run seconds)
/// become child spans laid inside the call that returned them.  Written
/// out as Chrome trace-event JSON when the run ends.
class Tracer {
 public:
  static constexpr std::int64_t kNoParent = -1;

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  std::int64_t add(const char* name, std::uint64_t request,
                   std::int64_t parent, Clock::time_point start,
                   Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, request, parent, 1e6 * secs(start - origin_),
                          1e6 * secs(end - origin_)});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  /// Summed leaf-span time over summed root-span time: how much of each
  /// request's wall time the recorded layers account for.
  [[nodiscard]] double coverage() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<bool> has_child(spans_.size(), false);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) has_child[static_cast<std::size_t>(s.parent)] = true;
    }
    double leaves = 0;
    double roots = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double d = spans_[i].end_us - spans_[i].start_us;
      if (spans_[i].parent == kNoParent) {
        roots += d;
      } else if (!has_child[i]) {
        leaves += d;
      }
    }
    return ratio(leaves, roots);
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  std::uint64_t next_request() { return next_request_.fetch_add(1); }

  void write_chrome_json(const std::filesystem::path& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.request
          << ", \"ts\": " << s.start_us << ", \"dur\": " << s.end_us - s.start_us
          << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t request;
    std::int64_t parent;
    double start_us;
    double end_us;
  };

  const Clock::time_point origin_;
  std::atomic<std::uint64_t> next_request_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The spans of one request; records nothing when the request is not
/// traced.
class RequestTrace {
 public:
  explicit RequestTrace(Tracer* tracer)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->next_request() : 0) {}

  [[nodiscard]] bool on() const { return tracer_ != nullptr; }

  std::int64_t add(const char* name, std::int64_t parent,
                   Clock::time_point start, Clock::time_point end) const {
    if (tracer_ == nullptr) return Tracer::kNoParent;
    return tracer_->add(name, id_, parent, start, end);
  }

  /// A child span of `seconds` laid at `start`: a duration the API
  /// returned rather than one the driver timed.  Returns its end.
  Clock::time_point add_reported(const char* name, std::int64_t parent,
                                 Clock::time_point start,
                                 double seconds) const {
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    add(name, parent, start, end);
    return end;
  }

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

/// With --trace 1 every other request of a stream is traced, so the
/// untraced half measures the same workload in the same run and the gap
/// between the halves is the tracing overhead.
bool is_sampled(const Tracer* tracer, std::uint64_t seq) {
  return tracer != nullptr && seq % 2 == 0;
}

RequestTrace sampled(Tracer* tracer, std::uint64_t seq) {
  return RequestTrace(is_sampled(tracer, seq) ? tracer : nullptr);
}

/// Relative cost of tracing on one metric: traced half against untraced
/// half, in percent (positive = tracing made it worse).
double overhead_pct(double traced, double untraced, bool higher_is_better) {
  if (untraced == 0) return 0;
  const double worse = higher_is_better ? untraced - traced : traced - untraced;
  return 100.0 * worse / untraced;
}

// ---- Results ----------------------------------------------------------------

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  ///< answers that disagree with the reference
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> layer;
  std::map<std::string, double> facts;  ///< sizes and counts, for the record
};

// ---- Inputs -----------------------------------------------------------------

DatasetSpec dataset_for(const Options& o) {
  // PubMed-S analogue at scale 0.5 (60k vertices, 445k edges) with the
  // dataset's own fixed seed, like the repository's other benches: the
  // run seed picks the traffic (pairs, batches), not the graph.
  return pubmed_s(o.quick ? 0.02 : 0.5);
}

std::uint64_t raw_share_bytes(const DatasetSpec& spec) {
  return spec.edges * 2 * sizeof(VertexId) / kBackendNodes;
}

/// Pairs per distance 0..kMaxDistance, in units.
using DistanceWeights = std::array<std::size_t, kMaxDistance + 1>;

/// Searches at distances 1..6, weighted 1:1:1:3:3:1.  A search that
/// reaches distance 4 has touched most of this graph, so its cost is near
/// a plateau, while shorter ones are much cheaper; with seven in ten pairs
/// at distance 4 or more, the median search sits inside the plateau rather
/// than on the boundary between the two, where it would move with the
/// seed.
constexpr DistanceWeights kSearchWeights = {0, 1, 1, 1, 3, 3, 1};

/// Query pairs, `weights[d] * unit` of them at distance d.  Every pair has
/// a source of its own (a uniformly random non-isolated vertex) and a
/// random destination at its distance: a set drawn from a few sources
/// would make one seed's searches much cheaper than another's.
std::vector<QueryPair> weighted_pairs(const MemoryGraph& ref,
                                      const DistanceWeights& weights,
                                      std::size_t unit, std::uint64_t seed) {
  std::vector<VertexId> sources;
  for (VertexId v = 0; v < ref.vertex_count(); ++v) {
    if (ref.degree(v) > 0) sources.push_back(v);
  }
  Rng rng(seed ^ 0x5a);
  std::vector<QueryPair> pairs;
  for (Metadata d = 1; d <= kMaxDistance; ++d) {
    const std::size_t want = weights[d] * unit;
    for (std::size_t found = 0, tries = 0; found < want; ++tries) {
      if (tries > 100 * want) {
        throw std::runtime_error("too few pairs at distance " + std::to_string(d));
      }
      const VertexId s = sources[rng.below(sources.size())];
      const std::vector<Metadata> levels = ref.bfs_levels(s);
      VertexId pick = kInvalidVertex;
      std::uint64_t seen = 0;  // reservoir sample of one
      for (VertexId v = 0; v < levels.size(); ++v) {
        if (levels[v] == d && rng.below(++seen) == 0) pick = v;
      }
      if (pick == kInvalidVertex) continue;
      pairs.push_back(QueryPair{s, pick, d});
      ++found;
    }
  }
  std::shuffle(pairs.begin(), pairs.end(), rng);
  return pairs;
}

/// Set-up as the user pays it: generate the dataset, build the cluster,
/// bulk-ingest.  Repeated kSetupRepeats times; the last cluster is kept.
struct Deployment {
  ClusterConfig config;
  std::vector<Edge> edges;
  std::unique_ptr<TempDir> dir;  // declared before the cluster: outlives it
  std::unique_ptr<MssgCluster> cluster;
  IngestReport report;
  std::vector<double> setup_seconds;
};

void set_up(Deployment& d, const DatasetSpec& spec, const Options& o,
            Tracer* tracer) {
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    d.cluster.reset();
    d.dir.reset();
    d.edges = {};
    const auto t0 = Clock::now();
    d.edges = build_dataset(spec);
    const auto t1 = Clock::now();
    d.dir = std::make_unique<TempDir>("cluster", o.work_dir);
    ClusterConfig config = d.config;
    config.storage_root = d.dir->path();
    d.cluster = std::make_unique<MssgCluster>(config);
    const auto t2 = Clock::now();
    d.report = d.cluster->ingest(d.edges);
    const auto t3 = Clock::now();
    d.setup_seconds.push_back(secs(t3 - t0));
    const RequestTrace trace(tracer);
    const std::int64_t root = trace.add("setup", Tracer::kNoParent, t0, t3);
    trace.add("gen.build_dataset", root, t0, t1);
    trace.add("mssg.cluster", root, t1, t2);
    trace.add("ingest.bulk", root, t2, t3);
  }
}

void record_setup(const Deployment& d, const DatasetSpec& spec, Result& r) {
  r.end_to_end["setup_s"] = quantile(d.setup_seconds, 0.5);
  r.layer["ingest.bulk_edges_per_s"] =
      ratio(static_cast<double>(d.report.edges_stored), d.report.seconds);
  r.layer["ingest.imbalance"] = d.report.imbalance();
  const auto it = d.report.metrics.histograms.find("span.ingest.window.us");
  r.layer["ingest.window_ms_mean"] =
      it == d.report.metrics.histograms.end() ? 0 : it->second.mean() / 1e3;
  r.facts["graph.vertices"] = static_cast<double>(spec.vertices);
  r.facts["graph.edges"] = static_cast<double>(d.edges.size());
  r.facts["graph.directed_edges_stored"] =
      static_cast<double>(d.report.edges_stored);
  r.facts["cache.bytes_per_node"] = static_cast<double>(d.config.db.cache_bytes);
  r.facts["footprint.bytes_after_ingest"] =
      static_cast<double>(dir_bytes(d.dir->path()));
  r.facts["footprint.bytes_per_node_after_ingest"] =
      r.facts["footprint.bytes_after_ingest"] / kBackendNodes;
}

/// Space: on-disk bytes per stored directed edge, at the end of the run.
void record_space(const Deployment& d, std::uint64_t extra_edges, Result& r) {
  const double bytes = static_cast<double>(dir_bytes(d.dir->path()));
  r.facts["footprint.bytes_at_end"] = bytes;
  r.end_to_end["store_bytes_per_edge"] = ratio(
      bytes, static_cast<double>(d.report.edges_stored + extra_edges));
}

/// Times GraphDB::get_adjacency directly on a hub-biased sample of
/// vertices (endpoints of random edges, so popularity follows degree), on
/// each vertex's owner node (traced run only, no query in flight).
void record_adjacency_reads(MssgCluster& cluster, const std::vector<Edge>& edges,
                            std::uint64_t seed, std::size_t samples,
                            Result& r) {
  Rng rng(seed ^ 0xad1);
  std::vector<Edge> probes(samples);
  for (Edge& e : probes) {
    const Edge& pick = edges[rng.below(edges.size())];
    const VertexId v = (rng() & 1) != 0 ? pick.src : pick.dst;
    e = Edge{v, v};
  }
  std::vector<Rank> owner(probes.size());
  cluster.partitioner().route(probes, owner);
  std::vector<double> micros;
  micros.reserve(probes.size());
  std::vector<VertexId> out;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    out.clear();
    GraphDB& db = cluster.node_db(owner[i]);
    const auto t0 = Clock::now();
    db.get_adjacency(probes[i].src, out);
    micros.push_back(1e6 * secs(Clock::now() - t0));
  }
  r.layer["graphdb.adjacency_read_us_p50"] = quantile(micros, 0.5);
  r.layer["graphdb.adjacency_read_us_p99"] = quantile(micros, 0.99);
}

/// Storage, runtime and integrity layer counters over one timed phase.
void record_io_layers(const SnapshotDelta& d, double ops, Result& r) {
  const double hits = d.counter("io.cache_hits");
  const double misses = d.counter("io.cache_misses");
  r.layer["storage.cache_hit_ratio"] = ratio(hits, hits + misses);
  r.layer["storage.evictions_per_op"] = ratio(d.counter("io.cache_evictions"), ops);
  r.layer["storage.preads_per_op"] = ratio(d.counter("io.reads"), ops);
  r.layer["storage.bytes_read_per_op"] = ratio(d.counter("io.bytes_read"), ops);
  r.layer["storage.read_stalls_per_op"] = ratio(d.counter("io.read_stalls"), ops);
  r.layer["storage.prefetch_useful_ratio"] =
      ratio(d.counter("io.prefetch_hits"), d.counter("io.prefetch_issued"));
  const double merges = d.counter("io.vectored_merges");
  r.layer["storage.vectored_merge_ratio"] =
      ratio(merges, d.counter("io.reads") + d.counter("io.writes") + merges);
  r.layer["storage.checksum_failures"] =
      static_cast<double>(d.after.counter("storage.checksum_failures"));
  r.layer["runtime.msgs_per_op"] = ratio(d.counter("comm.messages_sent"), ops);
  r.layer["runtime.bytes_per_op"] = ratio(d.counter("comm.bytes_sent"), ops);
  r.layer["runtime.codec_ratio"] = ratio(d.counter("comm.payload_bytes_raw"),
                                         d.counter("comm.payload_bytes_encoded"));
}

/// The tail is a fixed percentile per workload, not the highest one with
/// ten samples beyond it: a closed loop's sample count moves with its
/// speed, and the percentile must not move with it.
void record_tail(const std::vector<double>& samples, double q, Result& r) {
  r.end_to_end["tail_ms"] = quantile(samples, q);
  r.layer["tail.percentile"] = 100 * q;
  r.layer["tail.samples"] = static_cast<double>(samples.size());
  const double beyond = static_cast<double>(samples.size()) * (1 - q);
  if (beyond < 10) {
    std::cerr << "warning: p" << 100 * q << " has only " << beyond
              << " samples beyond it; lengthen the run\n";
  }
}

// ---- search_ooc --------------------------------------------------------------

Result run_search_ooc(const Options& o, Tracer* tracer) {
  const DatasetSpec spec = dataset_for(o);
  Deployment d;
  d.config.backend = Backend::kGrDB;
  d.config.backend_nodes = kBackendNodes;
  d.config.frontend_nodes = kFrontendNodes;
  d.config.db.max_vertices = spec.vertices;
  // Out of core: the cache holds each node's raw share of the edges,
  // about a quarter of the node's grDB footprint.
  d.config.db.cache_bytes = raw_share_bytes(spec);
  Result r;
  set_up(d, spec, o, tracer);
  record_setup(d, spec, r);

  const MemoryGraph ref(spec.vertices, d.edges);
  const std::vector<QueryPair> pairs = weighted_pairs(ref, kSearchWeights, 12, o.seed);
  BfsOptions options;
  options.prefetch = true;  // IoEngine read-ahead of the next fringe
  MssgCluster& cluster = *d.cluster;

  // Exact work counters of one full pass over the pairs.
  struct PassCounters {
    std::uint64_t levels = 0, edges = 0, messages = 0;
    bool operator==(const PassCounters&) const = default;
  };
  const auto counters_between = [](const MetricsSnapshot& a,
                                    const MetricsSnapshot& b) {
    return PassCounters{b.counter("bfs.levels") - a.counter("bfs.levels"),
                        b.counter("bfs.edges_scanned") - a.counter("bfs.edges_scanned"),
                        b.counter("comm.messages_sent") - a.counter("comm.messages_sent")};
  };

  // A few untimed searches bring the cache to its steady state.
  for (std::size_t i = 0; i < std::min<std::size_t>(10, pairs.size()); ++i) {
    const QueryPair& p = pairs[i];
    if (cluster.bfs(p.src, p.dst, options).distance != p.distance) ++r.wrong;
  }

  // Each pass over the pairs is one timed phase with a snapshot on either
  // side; every full pass must repeat the first one's exact counters.
  MetricsSnapshot mark = cluster.metrics_snapshot();
  std::optional<PassCounters> expected;
  SnapshotDelta delta;
  delta.before = mark;
  std::vector<double> latency_ms[2];  // [traced] — all untraced unless --trace
  std::vector<double> deep_ms[2];
  std::map<Metadata, std::vector<double>> by_distance;
  double edges[2] = {0, 0};
  double wall[2] = {0, 0};
  double levels = 0, vertices = 0, skew = 0;
  std::uint64_t searches = 0, drifted_passes = 0;
  const auto t_start = Clock::now();
  bool done = false;
  while (!done) {
    std::size_t i = 0;
    for (; i < pairs.size(); ++i) {
      if (secs(Clock::now() - t_start) >= o.seconds) {
        done = true;
        break;
      }
      const QueryPair& p = pairs[i];
      const RequestTrace trace = sampled(tracer, searches++);
      const bool traced = trace.on();
      const auto t0 = Clock::now();
      const ClusterQueryResult res = cluster.bfs(p.src, p.dst, options);
      const auto t1 = Clock::now();
      const std::int64_t root = trace.add("search", Tracer::kNoParent, t0, t1);
      const std::int64_t call = trace.add("mssg.bfs", root, t0, t1);
      trace.add_reported("query.bfs", call, t0, res.seconds);
      ++r.attempted;
      if (res.distance != p.distance) ++r.wrong;
      const double ms = 1e3 * secs(t1 - t0);
      latency_ms[traced].push_back(ms);
      if (p.distance >= 5) deep_ms[traced].push_back(ms);
      by_distance[p.distance].push_back(ms);
      edges[traced] += static_cast<double>(res.edges_scanned);
      wall[traced] += secs(t1 - t0);
      levels += static_cast<double>(res.levels);
      vertices += static_cast<double>(res.vertices_expanded);
      double slowest = 0, total = 0;
      for (const BfsStats& node : res.per_node) {
        slowest = std::max(slowest, node.seconds);
        total += node.seconds;
      }
      skew += ratio(slowest, total / static_cast<double>(res.per_node.size()));
    }
    if (i == pairs.size()) {
      MetricsSnapshot next = cluster.metrics_snapshot();
      const PassCounters pass = counters_between(mark, next);
      if (!expected) {
        expected = pass;
      } else if (!(pass == *expected)) {
        ++drifted_passes;
      }
      mark = std::move(next);
    }
  }
  delta.after = cluster.metrics_snapshot();
  const double n = static_cast<double>(searches);

  std::vector<double> all = latency_ms[0];
  all.insert(all.end(), latency_ms[1].begin(), latency_ms[1].end());
  std::vector<double> deep = deep_ms[0];
  deep.insert(deep.end(), deep_ms[1].begin(), deep_ms[1].end());
  r.end_to_end["p50_ms"] = quantile(all, 0.5);
  record_tail(all, 0.95, r);
  r.end_to_end["second_p50_ms"] = quantile(deep, 0.5);
  r.end_to_end["edges_per_s"] = ratio(edges[0] + edges[1], wall[0] + wall[1]);
  if (tracer != nullptr) {
    r.layer["trace.overhead_pct.p50_ms"] = overhead_pct(
        quantile(latency_ms[1], 0.5), quantile(latency_ms[0], 0.5), false);
    r.layer["trace.overhead_pct.tail_ms"] = overhead_pct(
        quantile(latency_ms[1], 0.95), quantile(latency_ms[0], 0.95), false);
    r.layer["trace.overhead_pct.second_p50_ms"] = overhead_pct(
        quantile(deep_ms[1], 0.5), quantile(deep_ms[0], 0.5), false);
    r.layer["trace.overhead_pct.edges_per_s"] =
        overhead_pct(ratio(edges[1], wall[1]), ratio(edges[0], wall[0]), true);
  }

  r.layer["query.bfs.levels_per_search"] = ratio(levels, n);
  r.layer["query.bfs.edges_per_search"] = ratio(edges[0] + edges[1], n);
  r.layer["query.bfs.vertices_per_search"] = ratio(vertices, n);
  r.layer["query.bfs.level_ms_mean"] =
      delta.histogram_mean("span.bfs.level.us") / 1e3;
  r.layer["query.bfs.node_skew"] = ratio(skew, n);
  r.layer["query.bfs.counter_drift"] = static_cast<double>(drifted_passes);
  if (drifted_passes != 0) {
    std::cerr << "warning: exact BFS work counters drifted in "
              << drifted_passes << " pass(es)\n";
  }
  record_io_layers(delta, n, r);
  r.facts["search.pairs"] = static_cast<double>(pairs.size());
  for (const auto& [distance, ms] : by_distance) {
    r.facts["search.p50_ms.d" + std::to_string(distance)] = quantile(ms, 0.5);
  }
  if (expected) {
    r.facts["search.pass_levels"] = static_cast<double>(expected->levels);
    r.facts["search.pass_edges_scanned"] = static_cast<double>(expected->edges);
    r.facts["search.pass_messages"] = static_cast<double>(expected->messages);
  }
  if (tracer != nullptr) record_adjacency_reads(cluster, d.edges, o.seed, 20000, r);
  record_space(d, 0, r);
  return r;
}

// ---- ingest_live -------------------------------------------------------------

Result run_ingest_live(const Options& o, Tracer* tracer) {
  const DatasetSpec spec = dataset_for(o);
  Deployment d;
  d.config.backend = Backend::kGrDB;
  d.config.backend_nodes = kBackendNodes;
  d.config.frontend_nodes = kFrontendNodes;
  d.config.db.max_vertices = spec.vertices;
  d.config.db.cache_bytes = 32 * raw_share_bytes(spec);
  // Snapshot isolation on; flush policy at its defaults (journal on,
  // every flush commits durably).
  d.config.db.snapshots = true;
  d.config.db.journal = true;
  d.config.db.journal_sync_interval = 1;
  Result r;
  set_up(d, spec, o, tracer);
  record_setup(d, spec, r);

  // The writer's input: a fixed number of seeded random batches, eight per
  // second of run length (it commits about eight a second on a 4-core
  // host).  The count is fixed, not the time: the store's size per edge
  // grows with the batches it holds, so a faster writer must not be
  // charged more space.
  const std::size_t batches =
      std::max<std::size_t>(4, static_cast<std::size_t>(std::lround(8 * o.seconds)));
  std::vector<std::vector<Edge>> stream(batches, std::vector<Edge>(kBatchEdges));
  Rng rng(o.seed ^ 0x1f);
  for (auto& batch : stream) {
    for (Edge& e : batch) e = Edge{rng.below(spec.vertices), rng.below(spec.vertices)};
  }

  // Reads may see any committed prefix of the stream: each distance lies
  // between the final graph's (base + every batch, batches one-way as
  // live_ingest stores them) and the base graph's.
  const MemoryGraph base(spec.vertices, d.edges);
  // Reads are long searches (distance 4-6): each walks most of the graph,
  // so it crosses many of the blocks the writer is changing, and the read
  // median sits inside one cost plateau.
  const std::vector<QueryPair> pairs =
      weighted_pairs(base, DistanceWeights{0, 0, 0, 0, 1, 1, 1}, 40, o.seed);
  std::vector<Metadata> final_distance;
  {
    std::vector<Edge> all;
    all.reserve(2 * d.edges.size() + batches * kBatchEdges);
    for (const Edge& e : d.edges) {
      all.push_back(e);
      all.push_back(Edge{e.dst, e.src});
    }
    for (const auto& batch : stream) all.insert(all.end(), batch.begin(), batch.end());
    const MemoryGraph final_graph(spec.vertices, all, /*symmetrize=*/false);
    for (const QueryPair& p : pairs) {
      final_distance.push_back(final_graph.bfs_distance(p.src, p.dst));
    }
  }
  MssgCluster& cluster = *d.cluster;

  serve::ServeSession session(cluster);  // default SLO classes

  SnapshotDelta delta;
  delta.before = cluster.metrics_snapshot();
  std::vector<double> commit_ms[2];
  std::vector<double> read_ms[2];
  std::vector<double> compile_us, queue_ms, run_ms, overhead_ms, jobs;
  std::map<Metadata, std::vector<double>> read_by_distance;
  std::atomic<bool> writing{true};
  std::uint64_t read_failures = 0, wrong_reads = 0, expired = 0, missed = 0;
  const auto t0 = Clock::now();
  double writer_seconds = 0;
  std::size_t written = 0;
  std::thread writer([&] {
    for (; written < stream.size(); ++written) {
      const std::size_t b = written;
      const RequestTrace trace = sampled(tracer, b);
      const auto s = Clock::now();
      cluster.live_ingest(stream[b]);
      const auto e = Clock::now();
      const std::int64_t root = trace.add("batch", Tracer::kNoParent, s, e);
      trace.add("mssg.live_ingest", root, s, e);
      commit_ms[trace.on()].push_back(1e3 * secs(e - s));
    }
    writer_seconds = secs(Clock::now() - t0);
    writing.store(false, std::memory_order_release);
  });
  std::uint64_t reads = 0;
  while (writing.load(std::memory_order_acquire)) {
    const std::size_t i = reads % pairs.size();
    const QueryPair& p = pairs[i];
    const RequestTrace trace = sampled(tracer, reads++);
    const std::string text = "PATH " + std::to_string(p.src) + " " +
                             std::to_string(p.dst) + " MAXLEN " +
                             std::to_string(kMaxDistance);
    const auto s = Clock::now();
    const serve::PlanResult plan = serve::compile_query(text);
    const auto compiled = Clock::now();
    serve::ServeResult res;
    if (plan.ok()) {
      res = session.run_plan(*plan.plan);
    } else {
      res.error = plan.error.to_string();
    }
    const auto e = Clock::now();
    const std::int64_t root = trace.add("read", Tracer::kNoParent, s, e);
    trace.add("serve.compile_query", root, s, compiled);
    const std::int64_t run = trace.add("serve.run_plan", root, compiled, e);
    const auto queued = trace.add_reported("query.queue", run, compiled, res.queue_seconds);
    trace.add_reported("query.run", run, queued, res.run_seconds);
    const double ms = 1e3 * secs(e - s);
    read_ms[trace.on()].push_back(ms);
    read_by_distance[p.distance].push_back(ms);
    compile_us.push_back(1e6 * secs(compiled - s));
    queue_ms.push_back(1e3 * res.queue_seconds);
    run_ms.push_back(1e3 * res.run_seconds);
    overhead_ms.push_back(ms - compile_us.back() / 1e3 - queue_ms.back() - run_ms.back());
    jobs.push_back(static_cast<double>(res.jobs));
    expired += res.expired ? 1 : 0;
    missed += res.deadline_missed ? 1 : 0;
    if (!res.ok()) {
      ++read_failures;
      continue;
    }
    // values = {leg distance, total}; -1 when over MAXLEN or unreachable.
    const double got = res.values.back();
    if (got < final_distance[i] || got > p.distance) ++wrong_reads;
  }
  writer.join();
  delta.after = cluster.metrics_snapshot();

  const double b = static_cast<double>(written);
  const double live_edges = b * kBatchEdges;
  r.attempted = written + reads;
  r.wrong = wrong_reads;
  r.failed = read_failures + wrong_reads;
  std::vector<double> all_reads = read_ms[0];
  all_reads.insert(all_reads.end(), read_ms[1].begin(), read_ms[1].end());
  std::vector<double> all_commits = commit_ms[0];
  all_commits.insert(all_commits.end(), commit_ms[1].begin(), commit_ms[1].end());
  r.end_to_end["p50_ms"] = quantile(all_reads, 0.5);
  record_tail(all_reads, 0.95, r);
  r.end_to_end["second_p50_ms"] = quantile(all_commits, 0.5);
  r.end_to_end["edges_per_s"] = ratio(live_edges, writer_seconds);
  if (tracer != nullptr) {
    r.layer["trace.overhead_pct.p50_ms"] = overhead_pct(
        quantile(read_ms[1], 0.5), quantile(read_ms[0], 0.5), false);
    r.layer["trace.overhead_pct.tail_ms"] = overhead_pct(
        quantile(read_ms[1], 0.95), quantile(read_ms[0], 0.95), false);
    r.layer["trace.overhead_pct.second_p50_ms"] = overhead_pct(
        quantile(commit_ms[1], 0.5), quantile(commit_ms[0], 0.5), false);
    // Per-batch rate, traced half against untraced half.
    r.layer["trace.overhead_pct.edges_per_s"] = overhead_pct(
        ratio(kBatchEdges, mean(commit_ms[1]) / 1e3),
        ratio(kBatchEdges, mean(commit_ms[0]) / 1e3), true);
  }

  r.layer["storage.commit_ms_p50"] = quantile(all_commits, 0.5);
  r.layer["storage.commit_ms_p99"] = quantile(all_commits, 0.99);
  r.layer["storage.fsyncs_per_batch"] = delta.counter("io.syncs") / b;
  r.layer["storage.journal_records_per_batch"] =
      delta.counter("storage.journal_records") / b;
  r.layer["storage.write_amp"] =
      ratio(delta.counter("io.bytes_written"), live_edges * sizeof(Edge));
  r.layer["graphdb.snapshot_reads_per_read"] =
      ratio(delta.counter("txn.snapshot_reads"), static_cast<double>(reads));
  r.layer["graphdb.cow_pages_per_batch"] = delta.counter("txn.cow_pages") / b;
  r.layer["graphdb.epochs_per_batch"] = delta.counter("txn.committed_epoch") / b;
  r.layer["serve.compile_us_p50"] = quantile(compile_us, 0.5);
  r.layer["serve.overhead_ms_p50"] = quantile(overhead_ms, 0.5);
  r.layer["serve.jobs_per_read"] = mean(jobs);
  r.layer["query.read_queue_ms_p50"] = quantile(queue_ms, 0.5);
  r.layer["query.read_run_ms_p50"] = quantile(run_ms, 0.5);
  r.layer["query.expired"] = static_cast<double>(expired);
  r.layer["query.deadline_miss"] = static_cast<double>(missed);
  r.layer["query.msbfs.level_ms_mean"] =
      delta.histogram_mean("span.msbfs.level.us") / 1e3;
  record_io_layers(delta, static_cast<double>(reads), r);
  r.facts["ingest_live.batches"] = b;
  r.facts["ingest_live.stream_batches"] = static_cast<double>(batches);
  r.facts["ingest_live.batch_edges"] = kBatchEdges;
  r.facts["ingest_live.reads"] = static_cast<double>(reads);
  r.facts["ingest_live.pairs"] = static_cast<double>(pairs.size());
  for (const auto& [distance, ms] : read_by_distance) {
    r.facts["read.p50_ms.d" + std::to_string(distance)] = quantile(ms, 0.5);
  }
  if (tracer != nullptr) record_adjacency_reads(cluster, d.edges, o.seed, 20000, r);
  record_space(d, written * kBatchEdges, r);
  return r;
}

// ---- Output -----------------------------------------------------------------

/// Every metric name either mode may print; a workload that does not
/// exercise a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"store_bytes_per_edge", "B"}, {"p50_ms", "ms"},
    {"tail_ms", "ms"},          {"second_p50_ms", "ms"},
    {"edges_per_s", "1/s"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"serve.compile_us_p50", "us"},
    {"serve.overhead_ms_p50", "ms"},
    {"serve.jobs_per_read", "count"},
    {"query.read_queue_ms_p50", "ms"},
    {"query.read_run_ms_p50", "ms"},
    {"query.expired", "count"},
    {"query.deadline_miss", "count"},
    {"query.bfs.levels_per_search", "count"},
    {"query.bfs.edges_per_search", "count"},
    {"query.bfs.vertices_per_search", "count"},
    {"query.bfs.level_ms_mean", "ms"},
    {"query.bfs.node_skew", "ratio"},
    {"query.bfs.counter_drift", "count"},
    {"query.msbfs.level_ms_mean", "ms"},
    {"runtime.msgs_per_op", "count"},
    {"runtime.bytes_per_op", "B"},
    {"runtime.codec_ratio", "ratio"},
    {"graphdb.adjacency_read_us_p50", "us"},
    {"graphdb.adjacency_read_us_p99", "us"},
    {"graphdb.snapshot_reads_per_read", "count"},
    {"graphdb.cow_pages_per_batch", "count"},
    {"graphdb.epochs_per_batch", "count"},
    {"storage.cache_hit_ratio", "ratio"},
    {"storage.evictions_per_op", "count"},
    {"storage.preads_per_op", "count"},
    {"storage.bytes_read_per_op", "B"},
    {"storage.read_stalls_per_op", "count"},
    {"storage.prefetch_useful_ratio", "ratio"},
    {"storage.vectored_merge_ratio", "ratio"},
    {"storage.commit_ms_p50", "ms"},
    {"storage.commit_ms_p99", "ms"},
    {"storage.fsyncs_per_batch", "count"},
    {"storage.journal_records_per_batch", "count"},
    {"storage.write_amp", "ratio"},
    {"storage.checksum_failures", "count"},
    {"ingest.bulk_edges_per_s", "1/s"},
    {"ingest.imbalance", "ratio"},
    {"ingest.window_ms_mean", "ms"},
    {"error_frac", "ratio"},
    {"tail.percentile", "%"},
    {"tail.samples", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_pct.p50_ms", "%"},
    {"trace.overhead_pct.tail_ms", "%"},
    {"trace.overhead_pct.second_p50_ms", "%"},
    {"trace.overhead_pct.edges_per_s", "%"},
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(
    const std::vector<std::pair<const char*, const char*>>& names,
    const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = values.find(name);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << number(it == values.end() ? 0 : it->second) << ", \"unit\": \""
        << unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

std::string flat_json(const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, value] : values) {
    out << (first ? "" : ", ") << '"' << name << "\": " << number(value);
    first = false;
  }
  out << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "mssg_perfbench: " << e.what() << "\n"
              << "usage: mssg_perfbench --workload search_ooc|ingest_live"
                 " --seed N --seconds S --trace 0|1 [--quick]"
                 " [--work-dir DIR] [--source-id ID]\n";
    return 2;
  }
  using Runner = Result (*)(const Options&, Tracer*);
  const std::map<std::string, Runner> workloads = {
      {"search_ooc", run_search_ooc},
      {"ingest_live", run_ingest_live},
  };
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) {
    std::cerr << "mssg_perfbench: unknown workload '" << o.workload << "'\n";
    return 2;
  }

  std::filesystem::create_directories(o.work_dir);
  std::unique_ptr<Tracer> tracer;
  if (o.trace) tracer = std::make_unique<Tracer>(Clock::now());
  Result r;
  try {
    r = it->second(o, tracer.get());
  } catch (const std::exception& e) {
    std::cerr << "mssg_perfbench: " << o.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  r.end_to_end["peak_rss_mb"] = peak_rss_mb();
  r.layer["error_frac"] =
      ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted));
  if (tracer) {
    r.layer["trace.coverage"] = tracer->coverage();
    r.facts["trace.spans"] = static_cast<double>(tracer->size());
  }
  const bool correct = r.wrong == 0 && r.attempted > 0;

  // The full record: host facts, build, seed, sizes, and every metric.
  const std::string stem = o.workload + "-seed" + std::to_string(o.seed) +
                           "-trace" + (o.trace ? "1" : "0");
  const std::filesystem::path results = o.work_dir.parent_path() / "results";
  std::filesystem::create_directories(results);
  if (tracer) tracer->write_chrome_json(results / (stem + ".trace.json"));
  {
    std::ofstream record(results / (stem + ".json"));
    record << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
           << ", \"seconds\": " << number(o.seconds)
           << ", \"trace\": " << (o.trace ? 1 : 0)
           << ", \"quick\": " << (o.quick ? "true" : "false")
           << ", \"source_id\": \"" << o.source_id << "\""
           << ", \"build_type\": \"" << MSSG_PERFBENCH_BUILD_TYPE << "\""
           << ", \"host\": {\"cores\": " << std::thread::hardware_concurrency()
           << ", \"page_size\": " << sysconf(_SC_PAGESIZE) << "}"
           << ", \"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
           << ", \"wrong\": " << r.wrong
           << ", \"facts\": " << flat_json(r.facts)
           << ", \"end_to_end\": " << flat_json(r.end_to_end)
           << ", \"per_layer\": " << flat_json(r.layer) << "}\n";
  }
  std::cout << "# record: " << (results / (stem + ".json")).string() << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": "
            << (o.trace ? metrics_json(kPerLayer, r.layer)
                        : metrics_json(kEndToEnd, r.end_to_end))
            << "}" << std::endl;
  return 0;
}
