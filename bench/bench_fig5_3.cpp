// Figure 5.3 — ingestion performance of the five GraphDB backends on
// PubMed-S, 16 back-end nodes, 1 vs 4 front-end ingestion nodes.
//
// Paper shape: Array, BerkeleyDB and grDB are similar; HashMap and MySQL
// are slower with a single ingestion node; MySQL is the slowest overall;
// adding front-end nodes removes the front-end bottleneck and improves
// back-end load balance.
#include "bench_util.hpp"

namespace {

using namespace mssg;

void ingest_once(benchmark::State& state, const bench::Workload& w,
                 Backend backend, int frontends) {
  for (auto _ : state) {
    // A fresh cluster per iteration: ingestion must start from empty.
    ClusterConfig config;
    config.backend = backend;
    config.backend_nodes = 16;
    config.frontend_nodes = frontends;
    config.db.cache_bytes = std::max<std::size_t>(
        256 << 10, 32 * w.directed_bytes() / config.backend_nodes);
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
    state.counters["ingest_windows"] =
        static_cast<double>(report.metrics.counter("ingest.windows"));
    bench::report_cluster_metrics(state, cluster);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = mssg::bench::scale_from_env(0.25);
  const auto& w = mssg::bench::workload(mssg::pubmed_s(scale));

  for (const auto backend :
       {mssg::Backend::kArray, mssg::Backend::kHashMap, mssg::Backend::kStream,
        mssg::Backend::kKVStore, mssg::Backend::kRelational,
        mssg::Backend::kGrDB}) {
    for (const int frontends : {1, 4}) {
      benchmark::RegisterBenchmark((std::string(          "Fig5_3/" + mssg::bench::short_name(backend) +
              "/frontends:" + std::to_string(frontends))).c_str(),
          [&w, backend, frontends](benchmark::State& state) {
            ingest_once(state, w, backend, frontends);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
