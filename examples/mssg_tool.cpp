// mssg_tool — command-line front end to the framework, the workflow a
// downstream user drives: generate graph files, inspect them, ingest
// them into a persistent cluster directory, and run analyses against it.
//
//   mssg_tool gen   <out.txt> [--model pubmed-s|pubmed-l|syn|ba] [--scale S]
//   mssg_tool stats <edges.txt>
//   mssg_tool ingest <edges.txt> <storage-dir> [--nodes N] [--backend B]
//                   [--group-commit N]
//   mssg_tool bfs   <storage-dir> <src> <dst> [--nodes N] [--backend B]
//                   [--concurrency Q] [--budget T] [--live-ingest E.txt]
//   mssg_tool khop  <storage-dir> <src> <k>   [--nodes N] [--backend B]
//   mssg_tool cc    <storage-dir>             [--nodes N] [--backend B]
//   mssg_tool analyze <storage-dir> <name> [param...] [--nodes N]
//                   [--backend B] [--budget T] [--live-ingest E.txt]
//   mssg_tool defrag <storage-dir>            [--nodes N]
//   mssg_tool query <storage-dir> "<query>"   [--nodes N] [--backend B]
//                   [--fifo] [--budget T] [--live-ingest E.txt]
//   mssg_tool serve <storage-dir>             [--nodes N] [--backend B]
//                   [--fifo] [--budget T]
//
// Backends: grdb (default), kvstore, relational, stream.
//
// query runs ONE query-language statement (DESIGN.md "Serving
// front-end") through a ServeSession — parse -> plan -> scheduler with
// per-class priorities/deadlines:
//   mssg_tool query dir "PATH 3 17 MAXLEN 5"
//   mssg_tool query dir "NEIGHBORS 3 DEPTH 2 WHERE META = 1"
//   mssg_tool query dir "RANK TOP 10"
// serve reads statements line by line from stdin (blank lines skipped,
// `quit` exits) against one long-lived session; --metrics prints the
// serve.* per-class rows merged with the cluster snapshot at exit.
// --fifo disables the SLO policies (the A17 baseline).
//
// analyze submits any registered analysis through the concurrent query
// engine (so --budget and sched.q<id>.* attribution apply) and decodes
// the result vector.  The VertexProgram suite:
//   analyze dir pagerank [iterations]
//   analyze dir lp-cc                  (alias: cc)
//   analyze dir kcore [k]
//   analyze dir triangles
//   analyze dir sssp <source> [target [delta [max-weight]]]
// and the traversals:
//   analyze dir ms-bfs <source>... <target>   (alias: cbfs)
//   analyze dir khop <source> <k>
//   analyze dir bidir-bfs <source> <target>
//
// Every cluster command accepts --metrics: after the result it prints
// the merged MetricsSnapshot (io.*, comm.*, bfs.*, ingest.*, ...) as a
// single JSON line on stdout.
//
// bfs with --concurrency Q > 1 runs Q searches from consecutive sources
// through the concurrent query engine (shared 2Q block cache, per-query
// token budgets via --budget); --metrics then also shows the scheduler's
// sched.q<id>.* per-query cache attribution and the cache's
// cache.qprobation_hits / cache.qprotected_hits split.
//
// Every cluster command also accepts --fault-spec "<rules>" to arm a
// deterministic storage fault (crash-recovery drills from the shell):
//   mssg_tool ingest e.txt dir --fault-spec "path=dir,op=write,nth=40,kill"
// See storage/fault_injector.hpp for the rule grammar.
//
// --live-ingest <edges.txt> (bfs / analyze) turns on snapshot isolation
// and streams the file into the back-ends in batches on a background
// thread WHILE the foreground queries run.  Queries submitted through
// the scheduler pin their epoch at admission, so each one sees a single
// consistent committed state no matter how many batches land meanwhile;
// --metrics shows the txn.* rows (epochs_live, cow_pages,
// snapshot_reads).  DESIGN.md "Snapshot isolation" has the semantics.
#include <atomic>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "gen/datasets.hpp"
#include "gen/stats.hpp"
#include "ingest/edge_source.hpp"
#include "mssg/mssg.hpp"
#include "serve/session.hpp"
#include "storage/fault_injector.hpp"

namespace {

using namespace mssg;

int usage() {
  std::cerr << "usage: mssg_tool gen|stats|ingest|bfs|khop|cc|analyze|"
               "query|serve|defrag ...\n"
               "       (see header comment of examples/mssg_tool.cpp)\n";
  return 2;
}

struct CommonArgs {
  int nodes = 4;
  Backend backend = Backend::kGrDB;
  double scale = 0.05;
  std::string model = "pubmed-s";
  bool metrics = false;
  int concurrency = 1;
  std::uint64_t budget = 0;
  int group_commit = 1;
  bool fifo = false;  ///< serve/query: disable SLO class policies
  std::string live_ingest;  ///< edge file streamed concurrently (empty = off)
};

CommonArgs parse_flags(int argc, char** argv, int first) {
  CommonArgs args;
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--nodes") {
      args.nodes = std::stoi(next());
    } else if (flag == "--metrics") {
      args.metrics = true;
    } else if (flag == "--scale") {
      args.scale = std::stod(next());
    } else if (flag == "--model") {
      args.model = next();
    } else if (flag == "--concurrency") {
      args.concurrency = std::stoi(next());
    } else if (flag == "--budget") {
      args.budget = std::stoull(next());
    } else if (flag == "--group-commit") {
      // Journal group commit: fsync every N-th flush (1 = every flush,
      // the classic fully-durable behavior).
      args.group_commit = std::stoi(next());
    } else if (flag == "--fifo") {
      // serve/query: submit every class at priority 0 with no deadline
      // (the baseline the A17 load harness compares against).
      args.fifo = true;
    } else if (flag == "--live-ingest") {
      // Stream this edge file into the cluster on a background thread
      // while the command's queries run; implies db.snapshots so every
      // scheduled query reads one pinned committed epoch.
      args.live_ingest = next();
    } else if (flag == "--fault-spec") {
      // Arm a deterministic storage fault, e.g.
      //   --fault-spec "path=grdb,op=write,kind=torn,nth=3,bytes=512,kill"
      // (see storage/fault_injector.hpp for the grammar).  Used to
      // exercise crash recovery from the command line.
      FaultInjector::instance().parse_spec(next());
    } else if (flag == "--backend") {
      const auto name = next();
      if (name == "grdb") {
        args.backend = Backend::kGrDB;
      } else if (name == "kvstore") {
        args.backend = Backend::kKVStore;
      } else if (name == "relational") {
        args.backend = Backend::kRelational;
      } else if (name == "stream") {
        args.backend = Backend::kStream;
      } else {
        throw UsageError("unknown backend: " + name);
      }
    } else {
      throw UsageError("unknown flag: " + flag);
    }
  }
  return args;
}

std::vector<Edge> load_edges(const std::string& path) {
  AsciiEdgeSource source(path);
  std::vector<Edge> all, block;
  while (source.next_block(1 << 20, block)) {
    all.insert(all.end(), block.begin(), block.end());
  }
  return all;
}

void maybe_print_metrics(const CommonArgs& args, const MssgCluster& cluster) {
  if (args.metrics) std::cout << cluster.metrics_snapshot().to_json() << "\n";
}

MssgCluster open_cluster(const std::string& dir, const CommonArgs& args) {
  ClusterConfig config;
  config.backend_nodes = args.nodes;
  config.backend = args.backend;
  config.storage_root = dir;
  config.scheduler.max_inflight = std::max(args.concurrency, 1);
  config.scheduler.token_budget = args.budget;
  config.db.journal_sync_interval =
      static_cast<std::uint32_t>(std::max(args.group_commit, 1));
  config.db.snapshots = !args.live_ingest.empty();
  return MssgCluster(std::move(config));
}

/// Streams an edge file into the cluster in batches on its own thread —
/// the writer half of --live-ingest.  start() before submitting queries,
/// finish() after awaiting them (joins the thread, commits every node,
/// prints what landed).
class LiveIngestDriver {
 public:
  LiveIngestDriver(MssgCluster& cluster, const std::string& path)
      : cluster_(cluster), edges_(load_edges(path)) {}

  void start() {
    thread_ = std::thread([this] {
      constexpr std::size_t kBatch = 4096;
      for (std::size_t i = 0; i < edges_.size(); i += kBatch) {
        const std::size_t n = std::min(kBatch, edges_.size() - i);
        cluster_.live_ingest(std::span(edges_.data() + i, n));
        batches_.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  void finish() {
    if (thread_.joinable()) thread_.join();
    cluster_.commit_all();
    std::cout << "live-ingested " << edges_.size() << " edges in "
              << batches_.load() << " batches while the queries ran\n";
  }

 private:
  MssgCluster& cluster_;
  std::vector<Edge> edges_;
  std::atomic<std::uint64_t> batches_{0};
  std::thread thread_;
};

int cmd_gen(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto args = parse_flags(argc, argv, 3);
  DatasetSpec spec;
  if (args.model == "pubmed-s") {
    spec = pubmed_s(args.scale);
  } else if (args.model == "pubmed-l") {
    spec = pubmed_l(args.scale);
  } else if (args.model == "syn") {
    spec = syn_2b(args.scale);
  } else if (args.model == "ba") {
    spec = pubmed_s(args.scale);
    spec.model = DatasetModel::kBarabasiAlbert;
  } else {
    throw UsageError("unknown model: " + args.model);
  }
  const auto edges = build_dataset(spec);
  write_ascii_edges(argv[2], edges);
  std::cout << "wrote " << edges.size() << " edges (" << spec.name
            << " analogue, scale " << args.scale << ") to " << argv[2]
            << "\n";
  return 0;
}

int cmd_stats(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto edges = load_edges(argv[2]);
  VertexId max_vertex = 0;
  for (const auto& e : edges) max_vertex = std::max({max_vertex, e.src, e.dst});
  const auto stats = compute_stats(max_vertex + 1, edges);
  std::cout << "vertices:   " << stats.vertices << "\n"
            << "und. edges: " << stats.undirected_edges << "\n"
            << "min degree: " << stats.min_degree << "\n"
            << "max degree: " << stats.max_degree << "\n"
            << "avg degree: " << stats.avg_degree << "\n";
  return 0;
}

int cmd_ingest(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto args = parse_flags(argc, argv, 4);
  const auto edges = load_edges(argv[2]);
  auto cluster = open_cluster(argv[3], args);
  const auto report = cluster.ingest(edges);
  std::cout << "ingested " << report.edges_stored << " directed edges in "
            << report.seconds << " s across " << args.nodes
            << " nodes (imbalance " << report.imbalance() << "x)\n";
  maybe_print_metrics(args, cluster);
  return 0;
}

int cmd_bfs(int argc, char** argv) {
  if (argc < 5) return usage();
  const auto args = parse_flags(argc, argv, 5);
  auto cluster = open_cluster(argv[2], args);
  const VertexId src = std::stoull(argv[3]);
  const VertexId dst = std::stoull(argv[4]);
  std::optional<LiveIngestDriver> live;
  if (!args.live_ingest.empty()) {
    live.emplace(cluster, args.live_ingest);
    live->start();
  }
  if (args.concurrency > 1) {
    // Q concurrent searches from consecutive sources, all sharing the
    // block caches through the query scheduler.
    std::vector<QueryScheduler::Ticket> tickets;
    tickets.reserve(args.concurrency);
    for (int q = 0; q < args.concurrency; ++q) {
      tickets.push_back(cluster.submit_analysis(
          "cbfs", {src + static_cast<std::uint64_t>(q), dst}));
    }
    for (int q = 0; q < args.concurrency; ++q) {
      const QueryOutcome outcome = cluster.await_query(tickets[q]);
      std::cout << "query " << tickets[q].id() << " (src "
                << src + static_cast<std::uint64_t>(q) << "): ";
      if (!outcome.ok()) {
        std::cout << "error: " << outcome.error << "\n";
        continue;
      }
      const auto distance = static_cast<Metadata>(outcome.result.at(0));
      if (distance == kUnvisited) {
        std::cout << "unreachable";
      } else {
        std::cout << "distance " << distance;
      }
      // ms-bfs layout, one source: distance, discovered, levels, edges.
      std::cout << " (" << outcome.result.at(3) << " edges, cache hit "
                << outcome.cache_hit_ratio * 100.0 << "%, " << outcome.seconds
                << " s";
      if (outcome.truncated) std::cout << ", budget-truncated";
      std::cout << ")\n";
    }
    if (live) live->finish();
    maybe_print_metrics(args, cluster);
    return 0;
  }
  const auto result = cluster.bfs(src, dst);
  if (live) live->finish();
  if (result.distance == kUnvisited) {
    std::cout << "unreachable (scanned " << result.edges_scanned
              << " edges)\n";
  } else {
    std::cout << "distance " << result.distance << " (scanned "
              << result.edges_scanned << " edges in " << result.seconds
              << " s)\n";
  }
  maybe_print_metrics(args, cluster);
  return 0;
}

int cmd_khop(int argc, char** argv) {
  if (argc < 5) return usage();
  const auto args = parse_flags(argc, argv, 5);
  auto cluster = open_cluster(argv[2], args);
  const auto result = cluster.khop(std::stoull(argv[3]),
                                   static_cast<Metadata>(std::stoi(argv[4])));
  std::cout << result.vertices_within << " vertices within " << argv[4]
            << " hops of " << argv[3] << "\n";
  maybe_print_metrics(args, cluster);
  return 0;
}

int cmd_cc(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto args = parse_flags(argc, argv, 3);
  auto cluster = open_cluster(argv[2], args);
  const auto result = cluster.connected_components();
  std::cout << result.components << " connected components over "
            << result.vertices << " vertices (" << result.iterations
            << " rounds, " << result.seconds << " s)\n";
  maybe_print_metrics(args, cluster);
  return 0;
}

/// Decodes one analysis result vector for the console, mirroring each
/// registration's documented layout; unknown names print raw.
void print_analysis_result(const std::string& name,
                           const std::vector<double>& r) {
  if (name == "pagerank" && r.size() >= 8) {
    std::cout << "pagerank over " << r[0] << " vertices: top vertex "
              << static_cast<std::uint64_t>(r[3]) << " (rank " << r[4]
              << "), rank sum " << r[5] << ", " << r[1] << " supersteps, "
              << r[2] << " edges";
    if (r[6] != 0.0) std::cout << ", budget-truncated";
    std::cout << " (" << r[7] << " s)\n";
  } else if ((name == "lp-cc" || name == "cc") && r.size() >= 5) {
    std::cout << r[0] << " components over " << r[1] << " vertices ("
              << r[2] << " rounds, " << r[3] << " edges, " << r[4] << " s)\n";
  } else if (name == "kcore" && r.size() >= 5) {
    std::cout << r[0] << " vertices in the core (" << r[1] << " peel rounds, "
              << r[2] << " edges";
    if (r[3] != 0.0) std::cout << ", budget-truncated";
    std::cout << ", " << r[4] << " s)\n";
  } else if (name == "triangles" && r.size() >= 4) {
    std::cout << r[0] << " triangles (" << r[1] << " wedge checks, " << r[2]
              << " edges, " << r[3] << " s)\n";
  } else if (name == "sssp" && r.size() >= 6) {
    if (r[0] < 0) {
      // Infinite distance: either no target was given (full tree) or
      // the target was unreached — the result vector can't tell.
      std::cout << "shortest-path tree, no finite target distance";
    } else {
      std::cout << "weighted distance " << r[0];
    }
    std::cout << " (" << r[1] << " vertices reached, " << r[2]
              << " supersteps, " << r[3] << " edges";
    if (r[4] != 0.0) std::cout << ", budget-truncated";
    std::cout << ", " << r[5] << " s)\n";
  } else {
    std::cout << "result:";
    for (const double v : r) std::cout << " " << v;
    std::cout << "\n";
  }
}

int cmd_analyze(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string name = argv[3];
  // Positional numeric params end at the first --flag.
  std::vector<std::uint64_t> params;
  int i = 4;
  for (; i < argc && std::strncmp(argv[i], "--", 2) != 0; ++i) {
    params.push_back(std::stoull(argv[i]));
  }
  const auto args = parse_flags(argc, argv, i);
  auto cluster = open_cluster(argv[2], args);
  std::optional<LiveIngestDriver> live;
  if (!args.live_ingest.empty()) {
    live.emplace(cluster, args.live_ingest);
    live->start();
  }
  const QueryOutcome outcome = cluster.await_query(cluster.submit_analysis(
      name, params,
      args.budget != 0 ? std::optional<std::uint64_t>(args.budget)
                       : std::nullopt));
  if (live) live->finish();
  if (!outcome.ok()) {
    std::cerr << "error: " << outcome.error << "\n";
    return 1;
  }
  print_analysis_result(name, outcome.result);
  if (outcome.truncated) std::cout << "(truncated by token budget)\n";
  maybe_print_metrics(args, cluster);
  return 0;
}

void print_serve_result(const serve::ServeResult& result) {
  if (!result.ok()) {
    std::cout << "error: " << result.error << "\n";
    return;
  }
  std::cout << "[" << serve::to_string(result.query_class) << ", "
            << result.jobs << (result.jobs == 1 ? " job" : " jobs")
            << ", queue " << result.queue_seconds << " s, run "
            << result.run_seconds << " s";
  if (result.truncated) std::cout << ", budget-truncated";
  if (result.deadline_missed) std::cout << ", deadline-missed";
  std::cout << "]";
  for (const double v : result.values) std::cout << " " << v;
  std::cout << "\n";
}

serve::ServeConfig serve_config(const CommonArgs& args) {
  serve::ServeConfig config;
  config.fifo = args.fifo;
  if (args.budget != 0) config.token_budget = args.budget;
  return config;
}

int cmd_query(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto args = parse_flags(argc, argv, 4);
  auto cluster = open_cluster(argv[2], args);
  serve::ServeSession session(cluster, serve_config(args));
  std::optional<LiveIngestDriver> live;
  if (!args.live_ingest.empty()) {
    live.emplace(cluster, args.live_ingest);
    live->start();
  }
  const serve::ServeResult result = session.execute(argv[3]);
  if (live) live->finish();
  print_serve_result(result);
  if (args.metrics) {
    MetricsSnapshot snap = cluster.metrics_snapshot();
    snap.merge(session.metrics_snapshot());
    std::cout << snap.to_json() << "\n";
  }
  return result.ok() ? 0 : 1;
}

int cmd_serve(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto args = parse_flags(argc, argv, 3);
  auto cluster = open_cluster(argv[2], args);
  serve::ServeSession session(cluster, serve_config(args));
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == "quit" || line == "exit") break;
    print_serve_result(session.execute(line));
  }
  if (args.metrics) {
    MetricsSnapshot snap = cluster.metrics_snapshot();
    snap.merge(session.metrics_snapshot());
    std::cout << snap.to_json() << "\n";
  }
  return 0;
}

int cmd_defrag(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto args = parse_flags(argc, argv, 3);
  auto cluster = open_cluster(argv[2], args);
  std::cout << "rewrote " << cluster.defragment_all()
            << " fragmented adjacency chains\n";
  maybe_print_metrics(args, cluster);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "gen") return cmd_gen(argc, argv);
    if (command == "stats") return cmd_stats(argc, argv);
    if (command == "ingest") return cmd_ingest(argc, argv);
    if (command == "bfs") return cmd_bfs(argc, argv);
    if (command == "khop") return cmd_khop(argc, argv);
    if (command == "cc") return cmd_cc(argc, argv);
    if (command == "analyze") return cmd_analyze(argc, argv);
    if (command == "query") return cmd_query(argc, argv);
    if (command == "serve") return cmd_serve(argc, argv);
    if (command == "defrag") return cmd_defrag(argc, argv);
    return usage();
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
