// Ablation A2 — grDB block-cache size sweep.  The chapter 5 discussion
// notes grDB has "room for improvement ... when the grDB cache size
// becomes negligible compared to the size of the graph"; this bench maps
// that regime: hit rate and modeled time vs cache budget.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mssg;
  const double scale = bench::scale_from_env(0.25);
  const auto& w = bench::workload(pubmed_s(scale));

  for (const std::size_t cache_kb : {64, 256, 1024, 4096, 16384}) {
    bench::ClusterSpec spec;
    spec.backend = Backend::kGrDB;
    spec.backend_nodes = 8;
    spec.cache_bytes = cache_kb << 10;
    // This sweep prices the *block cache*, so the layer underneath must
    // not quietly serve the misses from memory: drop the OS page cache
    // before every timed iteration (the bench_ablation_io discipline).
    spec.cold = true;
    benchmark::RegisterBenchmark((std::string(        "AblationCache/grDB/cache_kb:" + std::to_string(cache_kb))).c_str(),
        [&w, spec](benchmark::State& state) {
          bench::run_search_bucket(state, w, spec, /*distance=*/5);
          // Report the aggregate hit rate of the whole cluster so far.
          auto& ready = bench::cluster_for(w, spec);
          const auto io = ready.cluster->metrics_snapshot();
          const auto hits = io.counter("io.cache_hits");
          const auto accesses = hits + io.counter("io.cache_misses");
          state.counters["hit_pct"] =
              accesses == 0 ? 0
                            : 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(accesses);
        })
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
