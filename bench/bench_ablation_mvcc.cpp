// Ablation A16 — snapshot isolation: reads concurrent with ingest.
//
// The claim under test (DESIGN.md "Snapshot isolation"): with
// GraphDBConfig::snapshots on, point reads keep their latency while a
// live ingest stream advances the stores' epochs — each query pins the
// committed epoch at admission and never waits for (or observes) the
// batches landing around it.  The alternative a system without MVCC has
// is stop-the-world: serialize reads against ingest batches and eat the
// stalls.
//
// Legs (one cluster each, same base graph and probe set):
//
//   ReadOnly      snapshots:on, no writer — the baseline read latency
//                 distribution (p50/p99 over K sequential cbfs probes
//                 through the scheduler).
//   LiveIngest    snapshots:on; a writer thread streams random edge
//                 batches through MssgCluster::live_ingest (store +
//                 flush = one committed epoch per batch) for the whole
//                 probe run.  Reads pin their epoch and proceed — the
//                 acceptance bar is read p99 within 2x of ReadOnly.
//   StopTheWorld  snapshots:off; the same writer stream, but ingest and
//                 reads serialize on one mutex (the only safe schedule
//                 without snapshots).  Reads queue behind whole batches;
//                 the p99 gap against LiveIngest is what the epoch
//                 machinery buys.
//
// Every row reports the latency quantiles plus txn.* deltas
// (cow_pages, snapshot_reads, committed epochs advanced) so "the MVCC
// path actually engaged" is visible in the numbers.  Rows mirror into
// BENCH_A16.json; EXPERIMENTS.md §A16 reads that file.
//
// `--smoke` (stripped before benchmark::Initialize) shrinks the run to
// seconds; the `txn`-labelled ctest smoke entry runs it that way.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <random>
#include <thread>

#include "common/timer.hpp"

#include "bench_util.hpp"

namespace {

using namespace mssg;

bool g_smoke = false;

std::size_t probe_count() { return g_smoke ? 40 : 300; }
constexpr std::size_t kIngestBatchEdges = 2048;
// Steady-stream pacing, identical in both ingesting legs: the writer
// rests between batches so the mutex in StopTheWorld contends the way a
// paced ingest pipeline would, not as a tight starvation loop.
constexpr auto kInterBatchGap = std::chrono::microseconds(200);

std::unique_ptr<MssgCluster> make_cluster(const bench::Workload& w,
                                          bool snapshots) {
  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 4;
  config.frontend_nodes = 2;
  config.db.cache_bytes = 256 << 10;
  config.db.max_vertices = w.spec.vertices;
  config.db.snapshots = snapshots;
  config.scheduler.max_inflight = 8;
  auto cluster = std::make_unique<MssgCluster>(config);
  cluster->ingest(w.edges);
  return cluster;
}

/// The ingest stream: endless deterministic random batches over the
/// base vertex space, one committed epoch per batch, until stopped.
class IngestStream {
 public:
  IngestStream(MssgCluster& cluster, VertexId vertices, std::mutex* world)
      : cluster_(cluster), vertices_(vertices), world_(world) {}

  void start() {
    thread_ = std::thread([this] {
      std::mt19937_64 rng(42);
      std::uniform_int_distribution<VertexId> vertex(0, vertices_ - 1);
      std::vector<Edge> batch(kIngestBatchEdges);
      while (!stop_.load(std::memory_order_acquire)) {
        for (auto& e : batch) e = Edge{vertex(rng), vertex(rng)};
        if (world_ != nullptr) {
          // Stop-the-world: the batch excludes every reader.
          std::lock_guard<std::mutex> lock(*world_);
          cluster_.live_ingest(batch);
        } else {
          cluster_.live_ingest(batch);
        }
        batches_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(kInterBatchGap);
      }
    });
  }

  std::uint64_t stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    return batches_.load(std::memory_order_relaxed);
  }

 private:
  MssgCluster& cluster_;
  VertexId vertices_;
  std::mutex* world_;  ///< nullptr = concurrent (snapshot) mode
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> batches_{0};
  std::thread thread_;
};

struct LatencyStats {
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
};

LatencyStats quantiles(std::vector<double> samples_ms) {
  LatencyStats stats;
  if (samples_ms.empty()) return stats;
  std::sort(samples_ms.begin(), samples_ms.end());
  const auto at = [&](double q) {
    const std::size_t idx = std::min(
        samples_ms.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(samples_ms.size())));
    return samples_ms[idx];
  };
  stats.p50_ms = at(0.50);
  stats.p99_ms = at(0.99);
  double sum = 0;
  for (const double v : samples_ms) sum += v;
  stats.mean_ms = sum / static_cast<double>(samples_ms.size());
  return stats;
}

constexpr const char* kDeltaCounters[] = {
    "io.reads",        "io.bytes_read",     "io.cache_hits",
    "io.cache_misses", "txn.cow_pages",     "txn.snapshot_reads",
};

double g_readonly_p99_ms = 0;  ///< filled by the ReadOnly leg (runs first)

// One leg: K sequential probes through the scheduler, optionally with
// the ingest stream running (world != nullptr serializes reads on it).
void run_leg(benchmark::State& state, const bench::Workload& w,
             const std::string& name, bool snapshots, bool ingest,
             bool stop_the_world) {
  auto cluster = make_cluster(w, snapshots);
  const MetricsSnapshot before = cluster->metrics_snapshot();
  std::mutex world;
  std::vector<double> latencies_ms;
  std::uint64_t batches = 0;

  for (auto _ : state) {
    latencies_ms.clear();
    latencies_ms.reserve(probe_count());
    IngestStream stream(*cluster, w.spec.vertices,
                        stop_the_world ? &world : nullptr);
    if (ingest) stream.start();
    Timer wall;
    for (std::size_t q = 0; q < probe_count(); ++q) {
      const QueryPair& pair = w.pairs[q % w.pairs.size()];
      wall.reset();
      if (stop_the_world) {
        // The only safe schedule without snapshots: exclude the writer
        // for the whole read.  The wait is part of the read latency —
        // that is the point.
        std::lock_guard<std::mutex> lock(world);
        const QueryOutcome out = cluster->await_query(
            cluster->submit_analysis("cbfs", {pair.src, pair.dst}));
        if (!out.ok()) {
          state.SkipWithError(out.error.c_str());
          return;
        }
      } else {
        const QueryOutcome out = cluster->await_query(
            cluster->submit_analysis("cbfs", {pair.src, pair.dst}));
        if (!out.ok()) {
          state.SkipWithError(out.error.c_str());
          return;
        }
        // Only the no-ingest leg can check distances: the stream's
        // random edges legitimately shorten paths for later pins.
        if (!ingest &&
            static_cast<Metadata>(out.result.at(0)) != pair.distance) {
          state.SkipWithError("probe distance mismatch — result invalid");
          return;
        }
      }
      latencies_ms.push_back(1e3 * wall.seconds());
    }
    if (ingest) batches += stream.stop();
  }

  const LatencyStats lat = quantiles(latencies_ms);
  if (name == "ReadOnly") g_readonly_p99_ms = lat.p99_ms;

  bench::JsonRow row;
  row.name = name;
  row.counters["read_p50_ms"] = lat.p50_ms;
  row.counters["read_p99_ms"] = lat.p99_ms;
  row.counters["read_mean_ms"] = lat.mean_ms;
  row.counters["probes"] = static_cast<double>(latencies_ms.size());
  row.counters["ingest_batches"] = static_cast<double>(batches);
  if (name != "ReadOnly" && g_readonly_p99_ms > 0) {
    // The acceptance bar: LiveIngest p99 within 2x of ReadOnly p99.
    row.counters["p99_vs_readonly"] = lat.p99_ms / g_readonly_p99_ms;
  }
  const MetricsSnapshot after = cluster->metrics_snapshot();
  for (const char* key : kDeltaCounters) {
    row.counters[key] = static_cast<double>(after.counter(key)) -
                        static_cast<double>(before.counter(key));
  }
  // Gauges: closing values, not deltas.
  row.counters["txn.committed_epoch"] =
      static_cast<double>(after.counter("txn.committed_epoch"));
  for (const auto& [key, value] : row.counters) {
    std::string flat = key;
    for (char& c : flat) {
      if (c == '.') c = '_';
    }
    state.counters[flat] = value;
  }
  bench::json_rows().push_back(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --smoke before benchmark::Initialize sees (and rejects) it.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }

  using namespace mssg;
  const double scale = bench::scale_from_env(g_smoke ? 0.02 : 0.25);
  const auto& w = bench::workload(pubmed_s(scale));

  // Registration order is run order: ReadOnly first so the other legs
  // can report their p99 ratio against it.
  benchmark::RegisterBenchmark(
      "AblationMvcc/ReadOnly",
      [&w](benchmark::State& state) {
        run_leg(state, w, "ReadOnly", /*snapshots=*/true, /*ingest=*/false,
                /*stop_the_world=*/false);
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1)
      ->UseRealTime();
  benchmark::RegisterBenchmark(
      "AblationMvcc/LiveIngest",
      [&w](benchmark::State& state) {
        run_leg(state, w, "LiveIngest", /*snapshots=*/true, /*ingest=*/true,
                /*stop_the_world=*/false);
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1)
      ->UseRealTime();
  benchmark::RegisterBenchmark(
      "AblationMvcc/StopTheWorld",
      [&w](benchmark::State& state) {
        run_leg(state, w, "StopTheWorld", /*snapshots=*/false, /*ingest=*/true,
                /*stop_the_world=*/true);
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1)
      ->UseRealTime();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  bench::write_json("A16", w, g_smoke);
  return 0;
}
