// Ablation A1 — grDB level schedule and block size (§3.4.1 design
// choices).  Single-node grDB: ingest a scale-free graph, then sweep
// random adjacency reads, for several geometries:
//   standard   — the thesis' 6-level schedule (d = 2,4,16,256,4K,16K)
//   shallow    — 2 levels {2, 16384}: low-degree vertices waste a jump
//                straight to huge sub-blocks
//   doubling   — d_l = 2^(l+1): many small levels => long chains for hubs
//   bigblock   — standard d but 64 KB blocks everywhere: fewer, larger IOs
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/temp_dir.hpp"
#include "graphdb/grdb/grdb.hpp"

namespace {

using namespace mssg;

grdb::Geometry make_geometry(const std::string& name) {
  grdb::Geometry geo;
  if (name == "standard") {
    geo = grdb::Geometry::standard();
  } else if (name == "shallow") {
    geo.levels = {grdb::LevelSpec{2, 4096}, grdb::LevelSpec{16384, 262144}};
    geo.max_file_bytes = 256u << 20;
  } else if (name == "doubling") {
    geo.levels = {grdb::LevelSpec{2, 4096},   grdb::LevelSpec{4, 4096},
                  grdb::LevelSpec{8, 4096},   grdb::LevelSpec{16, 4096},
                  grdb::LevelSpec{32, 4096},  grdb::LevelSpec{64, 4096}};
    geo.max_file_bytes = 256u << 20;
  } else {  // bigblock
    geo.levels = {grdb::LevelSpec{2, 65536},    grdb::LevelSpec{4, 65536},
                  grdb::LevelSpec{16, 65536},   grdb::LevelSpec{256, 65536},
                  grdb::LevelSpec{4096, 65536},
                  grdb::LevelSpec{16384, 262144}};
    geo.max_file_bytes = 256u << 20;
  }
  geo.validate();
  return geo;
}

void geometry_bench(benchmark::State& state, const bench::Workload& w,
                    const std::string& geometry_name) {
  for (auto _ : state) {
    TempDir dir("grdb-fmt");
    GraphDBConfig config;
    config.dir = dir.path();
    config.cache_bytes = std::max<std::size_t>(256 << 10,
                                               w.directed_bytes() / 16);
    GrDBOptions options;
    options.geometry = make_geometry(geometry_name);
    GrDB db(config, options);

    Timer ingest_timer;
    std::vector<Edge> directed;
    directed.reserve(w.edges.size() * 2);
    for (const auto& e : w.edges) {
      directed.push_back(e);
      directed.push_back(Edge{e.dst, e.src});
    }
    constexpr std::size_t kBatch = 64 * 1024;
    for (std::size_t i = 0; i < directed.size(); i += kBatch) {
      const auto n = std::min(kBatch, directed.size() - i);
      db.store_edges(std::span(directed).subspan(i, n));
    }
    db.flush();
    const double ingest_s = ingest_timer.seconds();

    // Random adjacency reads (the BFS access pattern).
    Rng rng(7);
    Timer read_timer;
    std::vector<VertexId> out;
    std::uint64_t entries = 0;
    constexpr int kReads = 20'000;
    for (int i = 0; i < kReads; ++i) {
      out.clear();
      db.get_adjacency(rng.below(w.spec.vertices), out);
      entries += out.size();
    }
    const double read_s = read_timer.seconds();
    const MetricsSnapshot io = db.metrics().snapshot();

    state.counters["ingest_s"] = ingest_s;
    state.counters["read_us_per_vertex"] = 1e6 * read_s / kReads;
    state.counters["entries_read"] = static_cast<double>(entries);
    state.counters["disk_blocks"] =
        static_cast<double>(io.counter("io.reads") + io.counter("io.writes"));
    state.counters["bytes_io"] = static_cast<double>(
        io.counter("io.bytes_read") + io.counter("io.bytes_written"));
    state.counters["cache_miss"] =
        static_cast<double>(io.counter("io.cache_misses"));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = mssg::bench::scale_from_env(0.25);
  const auto& w = mssg::bench::workload(mssg::pubmed_s(scale));
  for (const std::string name :
       {"standard", "shallow", "doubling", "bigblock"}) {
    benchmark::RegisterBenchmark((std::string("AblationFormat/" + name)).c_str(),
                                 [&w, name](benchmark::State& state) {
                                   geometry_bench(state, w, name);
                                 })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
