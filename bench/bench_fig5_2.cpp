// Figure 5.2 — effect of the block cache: BerkeleyDB (KVStore) and grDB
// on PubMed-S, 16 nodes, cache enabled vs disabled.
//
// Paper shape: "caching can reduce the execution time up to 50% on both
// implementations, especially for longer path queries."  Watch the
// modeled_ms_per_query counter: disabling the cache multiplies disk
// accesses, and the effect grows with path length.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mssg;
  const double scale = bench::scale_from_env(0.25);
  const auto& w = bench::workload(pubmed_s(scale));

  for (const Backend backend : {Backend::kKVStore, Backend::kGrDB}) {
    for (const bool cache : {true, false}) {
      for (Metadata distance = 2; distance <= 6; ++distance) {
        bench::ClusterSpec spec;
        spec.backend = backend;
        spec.backend_nodes = 16;
        if (!cache) spec.cache_bytes = 0;
        benchmark::RegisterBenchmark((std::string(            "Fig5_2/" + bench::short_name(backend) +
                (cache ? "/cache:on" : "/cache:off") +
                "/pathlen:" + std::to_string(distance))).c_str(),
            [&w, spec, distance](benchmark::State& state) {
              bench::run_search_bucket(state, w, spec, distance);
            })
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
