// Figure 5.5 — ingestion performance of the five backends on PubMed-L:
// 8 front-end ingestion nodes, back-end storage nodes varied (4/8/16).
//
// Paper shape: StreamDB has "unrivaled ingestion performance" (raw append
// of binary edges); BerkeleyDB degrades badly at this scale (>1600 s in
// the paper); grDB holds a significant advantage over BerkeleyDB; more
// back-end nodes help every disk-backed store.
#include "bench_util.hpp"

namespace {

using namespace mssg;

void ingest_once(benchmark::State& state, const bench::Workload& w,
                 Backend backend, int backends) {
  for (auto _ : state) {
    ClusterConfig config;
    config.backend = backend;
    config.backend_nodes = backends;
    config.frontend_nodes = 8;
    config.db.cache_bytes = std::max<std::size_t>(
        256 << 10, 32 * w.directed_bytes() / backends);
    config.db.max_vertices = w.spec.vertices;
    MssgCluster cluster(config);
    const auto report = cluster.ingest(w.edges);
    const auto io = bench::node_counters(cluster);
    state.counters["edges_stored"] =
        static_cast<double>(report.edges_stored);
    state.counters["wall_edges_per_s"] =
        static_cast<double>(report.edges_stored) / report.seconds;
    state.counters["modeled_s"] = bench::modeled_ingest_seconds(report, io);
    state.counters["imbalance"] = report.imbalance();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = mssg::bench::scale_from_env(0.25);
  const auto& w = mssg::bench::workload(mssg::pubmed_l(scale));

  for (const auto backend :
       {mssg::Backend::kArray, mssg::Backend::kHashMap, mssg::Backend::kStream,
        mssg::Backend::kKVStore, mssg::Backend::kRelational,
        mssg::Backend::kGrDB}) {
    for (const int backends : {4, 8, 16}) {
      benchmark::RegisterBenchmark((std::string(          "Fig5_5/" + mssg::bench::short_name(backend) +
              "/backends:" + std::to_string(backends))).c_str(),
          [&w, backend, backends](benchmark::State& state) {
            ingest_once(state, w, backend, backends);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
