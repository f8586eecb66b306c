// Ablation A-prefetch — asynchronous fringe prefetch against none.
//
// The §4.2 prefetch sorts the next fringe's block reads by file offset;
// the IoEngine overlaps them with the fringe exchange (FlashGraph-style
// async issue).  This bench runs the same search bucket in two
// configurations on grDB and BerkeleyDB:
//
//   async   — prefetch on, async_io on: reads issue through the engine
//             while the exchange drains; get() adopts the completions.
//   none    — prefetch off, async_io off: every block loads on the query
//             thread when the walk reaches it.
//
// Without an engine, prefetch() does nothing (a synchronous warm-up is
// the same blocking read the walk would make), so prefetch-on/async-off
// measures the same as none and is not a leg.  The headline comparison
// is io.read_stalls (blocking reads on the query thread).  BFS work
// counters (edges scanned, messages) are identical across both legs by
// construction — the engine changes *when* blocks load, never what the
// query computes.
#include "bench_util.hpp"

namespace {

void register_variant(const mssg::bench::Workload& w, mssg::Backend backend,
                      const char* mode, bool prefetch, bool async_io) {
  using namespace mssg;
  bench::ClusterSpec spec;
  spec.backend = backend;
  spec.backend_nodes = 8;
  // A deliberately small cache keeps the fringe blocks cold between
  // levels, so prefetch has real work to overlap.
  spec.cache_bytes = 512u << 10;
  spec.async_io = async_io;
  // Cold means the device, not the host's memory: drop the OS page
  // cache before each timed iteration so the prefetch overlap is
  // measured against real blocking reads (the bench_ablation_io
  // discipline).
  spec.cold = true;

  BfsOptions options;
  options.prefetch = prefetch;

  const std::string name = "AblationPrefetchAsync/" +
                           bench::short_name(backend) + "/" + mode;
  benchmark::RegisterBenchmark(
      name.c_str(),
      [&w, spec, options](benchmark::State& state) {
        bench::run_search_bucket(state, w, spec, /*distance=*/5, options);
      })
      ->Unit(benchmark::kMillisecond);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mssg;
  const double scale = bench::scale_from_env(0.25);
  const auto& w = bench::workload(pubmed_s(scale));

  for (const Backend backend : {Backend::kGrDB, Backend::kKVStore}) {
    register_variant(w, backend, "none", /*prefetch=*/false, /*async=*/false);
    register_variant(w, backend, "async", /*prefetch=*/true, /*async=*/true);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
