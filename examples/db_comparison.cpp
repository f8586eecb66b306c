// Side-by-side comparison of the six GraphDB backends on one workload —
// a miniature of the thesis' chapter 5 comparison, showing ingestion
// time, search time, and disk I/O per backend.
//
//   ./db_comparison [vertices] [edges]
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "mssg/mssg.hpp"

int main(int argc, char** argv) {
  using namespace mssg;

  const std::uint64_t vertices = argc > 1 ? std::atoll(argv[1]) : 30'000;
  const std::uint64_t edge_count = argc > 2 ? std::atoll(argv[2]) : 250'000;

  ChungLuConfig gen;
  gen.vertices = vertices;
  gen.edges = edge_count;
  gen.seed = 12;
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(vertices, edges);
  const auto pairs = sample_random_pairs(reference, 10, 3);

  std::cout << "workload: " << vertices << " vertices, " << edges.size()
            << " undirected edges, 10 random BFS queries, 4 back-end nodes\n\n";
  std::cout << std::left << std::setw(22) << "backend" << std::right
            << std::setw(12) << "ingest_s" << std::setw(12) << "search_s"
            << std::setw(14) << "disk_reads" << std::setw(14) << "disk_writes"
            << std::setw(12) << "cache_hit%" << "\n";

  for (const Backend backend :
       {Backend::kArray, Backend::kHashMap, Backend::kStream,
        Backend::kKVStore, Backend::kRelational, Backend::kGrDB}) {
    ClusterConfig config;
    config.frontend_nodes = 2;
    config.backend_nodes = 4;
    config.backend = backend;
    MssgCluster cluster(config);

    const auto ingest = cluster.ingest(edges);
    double search_seconds = 0;
    for (const auto& pair : pairs) {
      search_seconds += cluster.bfs(pair.src, pair.dst).seconds;
    }
    const MetricsSnapshot io = cluster.metrics_snapshot();
    const auto hits = io.counter("io.cache_hits");
    const auto accesses = hits + io.counter("io.cache_misses");
    const double hit_rate =
        accesses == 0 ? 0.0
                      : 100.0 * static_cast<double>(hits) /
                            static_cast<double>(accesses);

    std::cout << std::left << std::setw(22) << to_string(backend)
              << std::right << std::fixed << std::setw(12)
              << std::setprecision(3) << ingest.seconds << std::setw(12)
              << search_seconds << std::setw(14) << io.counter("io.reads")
              << std::setw(14) << io.counter("io.writes") << std::setw(11)
              << std::setprecision(1) << hit_rate << "%\n";
  }

  std::cout << "\n(in-memory backends report zero disk I/O; StreamDB's "
               "search cost is full log scans)\n";
  return 0;
}
