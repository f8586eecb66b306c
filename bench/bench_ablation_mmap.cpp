// Ablation A15 — the zero-copy mmap read path for sealed grDB storage.
//
// Full-graph scans (PageRank here) read every adjacency block exactly
// once per sweep; staging those blocks through the 2Q cache buys nothing
// (one-touch blocks die in probation) and costs a memcpy per block plus
// eager CRC verification on every miss.  With GraphDBConfig::mmap_sealed
// the sealed level files are mapped once and scans read std::span views
// straight out of the page cache, with madvise(WILLNEED) standing in for
// the IoEngine prefetch and CRC verified lazily, once per mapped block.
//
// Legs, each run with mmap:off (pread + BlockCache baseline) and mmap:on:
//
//   ColdScan   OS page cache dropped before every timed iteration —
//              the headline: the mapped scan must beat pread+BlockCache
//              on io_bytes_read and wall time (no double copy, no eager
//              per-block verify, no cache eviction churn).
//   WarmScan   same scan, page cache warm: prices the residual memcpy +
//              cache-management overhead the mapped path skips.
//   Mixed      the A14 workload (PageRank scan + 4 concurrent cbfs
//              point probes through the scheduler).  Probes stay on the
//              2Q cache in both legs; probe_hit_pct must be within
//              noise of A14's mixed row — the mapped scan may not
//              degrade the probes' cache.
//
// Every row reports mmap.* deltas (zero_copy_reads, lazy_verifies,
// maps, fallbacks) so "the mapped path actually engaged" is an assertion
// the numbers make, not an assumption.  Besides the benchmark console
// output, the binary mirrors every row into BENCH_A15.json (counters +
// mean wall ms) for machine consumption; EXPERIMENTS.md §A15 reads that
// file.
//
// `--smoke` (stripped before benchmark::Initialize) shrinks the run to
// seconds; the `mmap`-labelled ctest smoke entry runs it that way.
#include <cstring>

#include "common/timer.hpp"

#include "bench_util.hpp"

namespace {

using namespace mssg;

bool g_smoke = false;

MssgCluster& shared_cluster(const bench::Workload& w, bool mmap_sealed) {
  static std::unique_ptr<MssgCluster> clusters[2];
  auto& slot = clusters[mmap_sealed ? 1 : 0];
  if (!slot) {
    ClusterConfig config;
    config.backend = Backend::kGrDB;
    config.backend_nodes = 4;
    config.frontend_nodes = 2;
    // Cache well under the per-node share (the A14 regime), so the
    // baseline scan genuinely churns the 2Q cache.
    config.db.cache_bytes = 256 << 10;
    config.db.max_vertices = w.spec.vertices;
    config.db.mmap_sealed = mmap_sealed;
    config.scheduler.max_inflight = 8;
    slot = std::make_unique<MssgCluster>(config);
    slot->ingest(w.edges);
    // finalize_ingest() flushed every store, so the grDB epochs are
    // sealed: the first scan on the mmap:on cluster maps the files.
  }
  return *slot;
}

std::uint64_t pagerank_iterations() { return g_smoke ? 2 : 5; }
constexpr int kProbes = 4;

// Per-iteration deltas of the counters this ablation prices.  The
// snapshot is cluster-wide (all four back-end nodes merged).
constexpr const char* kDeltaCounters[] = {
    "io.reads",           "io.bytes_read",      "io.cache_hits",
    "io.cache_misses",    "io.read_stalls",     "mmap.maps",
    "mmap.zero_copy_reads", "mmap.lazy_verifies", "mmap.fallbacks",
};

void finish_row(benchmark::State& state, const std::string& name,
                MssgCluster& cluster, const MetricsSnapshot& before,
                double wall_seconds, std::uint64_t iterations,
                std::map<std::string, double> extra = {}) {
  bench::JsonRow row;
  row.name = name;
  row.iterations = iterations;
  row.wall_ms_mean =
      iterations == 0 ? 0 : 1e3 * wall_seconds / static_cast<double>(iterations);
  const MetricsSnapshot after = cluster.metrics_snapshot();
  for (const char* key : kDeltaCounters) {
    const double delta = static_cast<double>(after.counter(key)) -
                         static_cast<double>(before.counter(key));
    const double per_iter =
        iterations == 0 ? 0 : delta / static_cast<double>(iterations);
    row.counters[key] = per_iter;
    // The benchmark console mirrors the same deltas (dots swapped for
    // underscores: benchmark counter names are flat identifiers).
    std::string flat = key;
    for (char& c : flat) {
      if (c == '.') c = '_';
    }
    state.counters[flat] = per_iter;
  }
  // mmap.resident_pages / sampled_pages are gauges, not monotonic
  // counters — report the closing value, not a delta.
  row.counters["mmap.resident_pages"] =
      static_cast<double>(after.counter("mmap.resident_pages"));
  row.counters["mmap.sampled_pages"] =
      static_cast<double>(after.counter("mmap.sampled_pages"));
  for (const auto& [key, value] : extra) {
    row.counters[key] = value;
    state.counters[key] = value;
  }
  bench::json_rows().push_back(std::move(row));
}

// ---- Legs ------------------------------------------------------------------

void run_scan(benchmark::State& state, const bench::Workload& w,
              bool mmap_sealed, bool cold) {
  auto& cluster = shared_cluster(w, mmap_sealed);
  const MetricsSnapshot before = cluster.metrics_snapshot();
  Timer wall;
  double busy_seconds = 0;
  std::uint64_t supersteps = 0;
  for (auto _ : state) {
    if (cold) {
      // Cold means the device: evict the mapped pages and the pread
      // path's file blocks alike, so both legs re-fault from "disk".
      state.PauseTiming();
      cluster.drop_storage_page_caches();
      wall.reset();
      state.ResumeTiming();
    }
    const std::vector<double> result =
        cluster.run_analysis("pagerank", {pagerank_iterations()});
    supersteps += static_cast<std::uint64_t>(result.at(1));
    busy_seconds += wall.seconds();
    wall.reset();
  }
  state.counters["pagerank_supersteps"] =
      static_cast<double>(supersteps) / static_cast<double>(state.iterations());
  finish_row(state,
             std::string(cold ? "ColdScan" : "WarmScan") +
                 (mmap_sealed ? "/mmap:on" : "/mmap:off"),
             cluster, before, busy_seconds,
             static_cast<std::uint64_t>(state.iterations()));
}

void run_mixed(benchmark::State& state, const bench::Workload& w,
               bool mmap_sealed) {
  auto& cluster = shared_cluster(w, mmap_sealed);
  const MetricsSnapshot before = cluster.metrics_snapshot();
  Timer wall;
  std::uint64_t probe_hits = 0, probe_misses = 0;
  for (auto _ : state) {
    const QueryScheduler::Ticket scan_ticket =
        cluster.submit_analysis("pagerank", {pagerank_iterations()});
    std::vector<QueryScheduler::Ticket> probe_tickets;
    for (int q = 0; q < kProbes; ++q) {
      const QueryPair& pair = w.pairs[q % w.pairs.size()];
      probe_tickets.push_back(
          cluster.submit_analysis("cbfs", {pair.src, pair.dst}));
    }
    const QueryOutcome scan = cluster.await_query(scan_ticket);
    if (!scan.ok()) {
      state.SkipWithError(scan.error.c_str());
      return;
    }
    for (std::size_t q = 0; q < probe_tickets.size(); ++q) {
      const QueryOutcome out = cluster.await_query(probe_tickets[q]);
      if (!out.ok()) {
        state.SkipWithError(out.error.c_str());
        return;
      }
      const auto expected = w.pairs[q % w.pairs.size()].distance;
      if (static_cast<Metadata>(out.result.at(0)) != expected) {
        state.SkipWithError("probe distance mismatch — result invalid");
        return;
      }
      probe_hits += out.cache_hits;
      probe_misses += out.cache_misses;
    }
  }
  const double probe_hit_pct =
      probe_hits + probe_misses == 0
          ? 0.0
          : 100.0 * static_cast<double>(probe_hits) /
                static_cast<double>(probe_hits + probe_misses);
  finish_row(state,
             std::string("Mixed") + (mmap_sealed ? "/mmap:on" : "/mmap:off"),
             cluster, before, wall.seconds(),
             static_cast<std::uint64_t>(state.iterations()),
             {{"probe_hit_pct", probe_hit_pct}});
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

  for (const bool mmap_on : {false, true}) {
    const std::string suffix = mmap_on ? "/mmap:on" : "/mmap:off";
    benchmark::RegisterBenchmark(
        ("AblationMmap/ColdScan" + suffix).c_str(),
        [&w, mmap_on](benchmark::State& state) {
          run_scan(state, w, mmap_on, /*cold=*/true);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(g_smoke ? 1 : 3)
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        ("AblationMmap/WarmScan" + suffix).c_str(),
        [&w, mmap_on](benchmark::State& state) {
          run_scan(state, w, mmap_on, /*cold=*/false);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(g_smoke ? 1 : 3)
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        ("AblationMmap/Mixed" + suffix).c_str(),
        [&w, mmap_on](benchmark::State& state) { run_mixed(state, w, mmap_on); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(g_smoke ? 1 : 3)
        ->UseRealTime();
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  bench::write_json("A15", w, g_smoke);
  return 0;
}
