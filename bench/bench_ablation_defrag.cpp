// Ablation A4 — adjacency-chain fragmentation (§3.4.1): link-mode growth
// vs copy-up growth vs link + offline defragment.  Single-node grDB;
// edges arrive one tiny batch at a time (the worst-case streaming ingest
// the thesis describes), then the full adjacency set is read back.
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/temp_dir.hpp"
#include "graphdb/grdb/grdb.hpp"

namespace {

using namespace mssg;

void defrag_bench(benchmark::State& state, const bench::Workload& w,
                  GrDBGrowth growth, bool defragment) {
  for (auto _ : state) {
    TempDir dir("grdb-defrag");
    GraphDBConfig config;
    config.dir = dir.path();
    config.cache_bytes = std::max<std::size_t>(256 << 10,
                                               w.directed_bytes() / 16);
    GrDBOptions options;
    options.growth = growth;
    GrDB db(config, options);

    // Tiny batches maximize incremental growth (and fragmentation).
    std::vector<Edge> directed;
    directed.reserve(w.edges.size() * 2);
    for (const auto& e : w.edges) {
      directed.push_back(e);
      directed.push_back(Edge{e.dst, e.src});
    }
    Timer ingest_timer;
    constexpr std::size_t kBatch = 256;
    for (std::size_t i = 0; i < directed.size(); i += kBatch) {
      const auto n = std::min(kBatch, directed.size() - i);
      db.store_edges(std::span(directed).subspan(i, n));
    }
    const double ingest_s = ingest_timer.seconds();

    double defrag_s = 0;
    std::uint64_t rewritten = 0;
    if (defragment) {
      Timer defrag_timer;
      rewritten = db.defragment();
      defrag_s = defrag_timer.seconds();
    }

    // Average chain length over high-degree vertices (where the layout
    // matters) and a full read sweep.
    std::uint64_t chain_total = 0, chain_count = 0;
    std::vector<VertexId> out;
    Timer read_timer;
    for (VertexId v = 0; v < w.spec.vertices; ++v) {
      out.clear();
      db.get_adjacency(v, out);
      if (out.size() > 8) {
        chain_total += db.chain_of(v).size();
        ++chain_count;
      }
    }
    const double read_s = read_timer.seconds();

    state.counters["ingest_s"] = ingest_s;
    state.counters["defrag_s"] = defrag_s;
    state.counters["chains_rewritten"] = static_cast<double>(rewritten);
    state.counters["read_sweep_s"] = read_s;
    state.counters["avg_chain_len"] =
        chain_count == 0 ? 0
                         : static_cast<double>(chain_total) /
                               static_cast<double>(chain_count);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = mssg::bench::scale_from_env(0.1);
  const auto& w = mssg::bench::workload(mssg::pubmed_s(scale));

  benchmark::RegisterBenchmark((std::string("AblationDefrag/link")).c_str(),
                               [&w](benchmark::State& state) {
                                 defrag_bench(state, w, mssg::GrDBGrowth::kLink,
                                              false);
                               })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
  benchmark::RegisterBenchmark((std::string(      "AblationDefrag/copyup")).c_str(),
      [&w](benchmark::State& state) {
        defrag_bench(state, w, mssg::GrDBGrowth::kCopyUp, false);
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
  benchmark::RegisterBenchmark((std::string(      "AblationDefrag/link_then_defrag")).c_str(),
      [&w](benchmark::State& state) {
        defrag_bench(state, w, mssg::GrDBGrowth::kLink, true);
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
