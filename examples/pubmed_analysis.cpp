// PubMed-style out-of-core analysis: ingest a PubMed-S-calibrated
// scale-free graph into grDB and profile search cost by path length —
// a laptop-scale rerun of the thesis' chapter 5 methodology.
//
//   ./pubmed_analysis [scale]   (default 0.1; 1.0 = the repo's PubMed-S')
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <map>

#include "gen/datasets.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "gen/stats.hpp"
#include "mssg/mssg.hpp"

int main(int argc, char** argv) {
  using namespace mssg;

  const double scale = argc > 1 ? std::atof(argv[1]) : 0.1;
  const auto spec = pubmed_s(scale);
  std::cout << "building " << spec.name << " analogue at scale " << scale
            << "...\n";
  const auto edges = build_dataset(spec);
  const auto stats = compute_stats(spec.vertices, edges);
  std::cout << "graph: " << stats.vertices << " vertices, "
            << stats.undirected_edges << " undirected edges, degrees ["
            << stats.min_degree << ", " << stats.max_degree << "], avg "
            << std::fixed << std::setprecision(2) << stats.avg_degree
            << "\n";

  ClusterConfig config;
  config.frontend_nodes = 4;
  config.backend_nodes = 8;
  config.backend = Backend::kGrDB;
  MssgCluster cluster(config);

  const auto report = cluster.ingest(edges);
  std::cout << "ingestion: " << report.seconds << " s, "
            << static_cast<std::uint64_t>(report.edges_stored /
                                          report.seconds)
            << " directed edges/s\n\n";

  // Label query pairs by true distance, then profile per path length —
  // the bucketing of Figures 5.1-5.4.
  const MemoryGraph reference(spec.vertices, edges);
  const auto pairs = sample_stratified_pairs(reference, 6, 4, 4242);

  std::map<Metadata, std::pair<double, std::uint64_t>> by_length;
  std::map<Metadata, int> count;
  for (const auto& pair : pairs) {
    const auto result = cluster.bfs(pair.src, pair.dst);
    by_length[pair.distance].first += result.seconds;
    by_length[pair.distance].second += result.edges_scanned;
    ++count[pair.distance];
  }

  std::cout << "path_len  avg_seconds  avg_edges_scanned  edges_per_sec\n";
  for (const auto& [length, totals] : by_length) {
    const auto n = count[length];
    const double avg_s = totals.first / n;
    const double avg_edges = static_cast<double>(totals.second) / n;
    std::cout << std::setw(8) << length << "  " << std::setw(11)
              << std::setprecision(5) << avg_s << "  " << std::setw(17)
              << std::setprecision(0) << avg_edges << "  " << std::setw(13)
              << std::setprecision(0) << (avg_edges / avg_s) << "\n";
  }

  // The small-world effect: long-path queries touch most of the graph.
  const MetricsSnapshot io = cluster.metrics_snapshot();
  std::cout << "\naggregate I/O: reads=" << io.counter("io.reads")
            << " writes=" << io.counter("io.writes")
            << " cache_hits=" << io.counter("io.cache_hits")
            << " cache_misses=" << io.counter("io.cache_misses") << "\n";
  return 0;
}
