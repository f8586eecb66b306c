// Ablation A11 — durability journal on/off.  Crash-safe flushes double-
// write dirty pages (undo pre-images + redo post-images) and add fsync
// barriers; this bench prices that insurance on the ingest path for each
// persistent backend.  StreamDB's "journal" is only a 24-byte commit
// slot + one extra fsync per flush, so its gap should be noise; the page
// stores pay roughly 2x the flush writes.
#include "bench_util.hpp"

namespace {

using namespace mssg;

void ingest_once(benchmark::State& state, const bench::Workload& w,
                 Backend backend, bool journal) {
  constexpr int kBackends = 4;
  for (auto _ : state) {
    ClusterConfig config;
    config.backend = backend;
    config.backend_nodes = kBackends;
    config.frontend_nodes = 2;
    config.db.cache_bytes = std::max<std::size_t>(
        256 << 10, 32 * w.directed_bytes() / kBackends);
    config.db.max_vertices = w.spec.vertices;
    config.db.journal = journal;
    MssgCluster cluster(config);
    const auto report = cluster.ingest(w.edges);
    MetricsSnapshot io;
    for (const auto& node : bench::node_counters(cluster)) io.merge(node);
    state.counters["edges_stored"] = static_cast<double>(report.edges_stored);
    state.counters["wall_edges_per_s"] =
        static_cast<double>(report.edges_stored) / report.seconds;
    state.counters["writes"] = static_cast<double>(io.counter("io.writes"));
    state.counters["syncs"] = static_cast<double>(io.counter("io.syncs"));
    state.counters["journal_records"] =
        static_cast<double>(io.counter("storage.journal_records"));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = mssg::bench::scale_from_env(0.25);
  const auto& w = mssg::bench::workload(mssg::pubmed_s(scale));

  for (const auto backend : {mssg::Backend::kGrDB, mssg::Backend::kKVStore,
                             mssg::Backend::kStream}) {
    for (const bool journal : {true, false}) {
      benchmark::RegisterBenchmark(
          (std::string("AblationJournal/" + mssg::bench::short_name(backend) +
                       "/journal:" + (journal ? "on" : "off")))
              .c_str(),
          [&w, backend, journal](benchmark::State& state) {
            ingest_once(state, w, backend, journal);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
