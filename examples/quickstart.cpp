// Quickstart: stand up a simulated MSSG cluster, stream a scale-free
// graph through the Ingestion service into grDB, and run relationship
// (BFS) queries through the Query service.
//
//   ./quickstart [backend_nodes] [vertices] [edges]
#include <cstdlib>
#include <iostream>

#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "mssg/mssg.hpp"

int main(int argc, char** argv) {
  using namespace mssg;

  const int backend_nodes = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::uint64_t vertices = argc > 2 ? std::atoll(argv[2]) : 50'000;
  const std::uint64_t edge_count = argc > 3 ? std::atoll(argv[3]) : 400'000;

  std::cout << "MSSG quickstart: " << backend_nodes
            << " back-end nodes, grDB storage\n";

  // 1. Generate a scale-free semantic graph (Chung-Lu, exponent 2.3 —
  //    the kind of degree distribution MSSG targets).
  ChungLuConfig gen;
  gen.vertices = vertices;
  gen.edges = edge_count;
  gen.seed = 1;
  const auto edges = generate_chung_lu(gen);
  std::cout << "generated " << edges.size() << " undirected edges over "
            << vertices << " vertices\n";

  // 2. Configure the cluster: 2 front-end ingestion nodes, grDB on each
  //    back-end node, vertex declustering with the GID-mod-p map.
  ClusterConfig config;
  config.frontend_nodes = 2;
  config.backend_nodes = backend_nodes;
  config.backend = Backend::kGrDB;
  MssgCluster cluster(config);

  // 3. Stream the edges through the Ingestion service.
  const auto report = cluster.ingest(edges);
  std::cout << "ingested " << report.edges_stored << " directed edges in "
            << report.seconds << " s ("
            << static_cast<std::uint64_t>(report.edges_stored /
                                          report.seconds)
            << " edges/s), back-end load imbalance " << report.imbalance()
            << "x\n";

  // 4. Run a few relationship queries (parallel out-of-core BFS).
  const MemoryGraph reference(vertices, edges);
  const auto pairs = sample_random_pairs(reference, 5, 99);
  for (const auto& pair : pairs) {
    const auto result = cluster.bfs(pair.src, pair.dst);
    std::cout << "path " << pair.src << " -> " << pair.dst << ": "
              << result.distance << " hops, scanned "
              << result.edges_scanned << " edges in " << result.seconds
              << " s\n";
  }

  // 5. Inspect the storage layer.
  const MetricsSnapshot io = cluster.metrics_snapshot();
  std::cout << "aggregate grDB I/O: reads=" << io.counter("io.reads")
            << " writes=" << io.counter("io.writes")
            << " cache_hits=" << io.counter("io.cache_hits")
            << " cache_misses=" << io.counter("io.cache_misses") << "\n";
  return 0;
}
