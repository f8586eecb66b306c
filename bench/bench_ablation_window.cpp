// Ablation A8 — ingestion window ("block") size (§3.2).
//
// "MSSG processes the ingested data in blocks (or windows) of a
// predetermined size, each of which fits into memory."  Small windows
// stream promptly but pay per-block partitioning and messaging overhead
// and fragment grDB chains; large windows batch better.  This bench
// sweeps the window size and reports ingestion throughput and back-end
// write traffic.
#include "bench_util.hpp"

namespace {

using namespace mssg;

void window_bench(benchmark::State& state, const bench::Workload& w,
                  std::size_t window_edges) {
  for (auto _ : state) {
    ClusterConfig config;
    config.backend = Backend::kGrDB;
    config.backend_nodes = 8;
    config.frontend_nodes = 4;
    config.ingest.window_edges = window_edges;
    config.db.cache_bytes =
        std::max<std::size_t>(256 << 10, 4 * w.directed_bytes() / 8);
    config.db.max_vertices = w.spec.vertices;
    MssgCluster cluster(config);
    const auto report = cluster.ingest(w.edges);
    const auto io = cluster.metrics_snapshot();
    state.counters["wall_edges_per_s"] =
        static_cast<double>(report.edges_stored) / report.seconds;
    state.counters["imbalance"] = report.imbalance();
    state.counters["disk_writes"] =
        static_cast<double>(io.counter("io.writes"));
    state.counters["bytes_written"] =
        static_cast<double>(io.counter("io.bytes_written"));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = mssg::bench::scale_from_env(0.25);
  const auto& w = mssg::bench::workload(mssg::pubmed_s(scale));

  for (const std::size_t window : {1024, 8192, 65536, 524288}) {
    benchmark::RegisterBenchmark(
        ("AblationWindow/window:" + std::to_string(window)).c_str(),
        [&w, window](benchmark::State& state) {
          window_bench(state, w, window);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
