// Ablation A17 — the serving front-end under open-loop load: SLO
// scheduling vs FIFO.
//
// The claim under test (DESIGN.md "Serving front-end"): with a mixed
// query stream at saturation — full-graph scans occupying every
// scheduler slot — per-class priority/deadline admission holds
// point-lookup tail latency near its service time, while FIFO admission
// queues points behind every earlier scan and their p99 blows up with
// the backlog.  Acceptance: point p99 under SLO is >= 3x better than
// FIFO on the saturated legs.
//
// Methodology: an OPEN-LOOP driver — arrivals follow a seeded Poisson
// process whose rate never reacts to completions (the millions-of-users
// regime: users do not politely wait for each other).  Each arrival is
// one query-language statement through a shared ServeSession:
//
//   60% point      GET <hub>               (class point,     priority 2)
//   20% traversal  PATH <a> <b> MAXLEN 6   (class traversal, priority 1)
//   20% scan       CC | COUNT TRIANGLES    (class scan,      priority 0)
//
// The saturated legs additionally open with a SCAN STORM: a batch of
// full-graph scans all due at t=0, several times the scheduler's two
// admission slots, so the queue is provably deep while points arrive.
//
// Keys are hub-biased: vertices are drawn from edge endpoints, so the
// popularity of a vertex is proportional to its degree — the power-law
// traffic shape real serving sees.  Latency is measured from the
// SCHEDULED arrival time (dispatch slip + queue + execution); goodput
// counts successfully completed queries per wall second.
//
// Legs: {Fifo, Slo} x {Light, Saturated} over one shared warm cluster.
// Rows mirror into BENCH_A17.json; EXPERIMENTS.md §A17 reads that file.
//
// `--smoke` (stripped before benchmark::Initialize) shrinks the run to
// seconds; the `serve`-labelled ctest smoke entry runs it that way.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "serve/session.hpp"

#include "bench_util.hpp"

namespace {

using namespace mssg;

bool g_smoke = false;

enum class Mix { kPoint, kTraversal, kScan };

/// One scheduled arrival: when it fires and what it asks.
struct Arrival {
  double offset_seconds = 0;
  Mix mix = Mix::kPoint;
  std::string query;
};

/// Shape of one offered-load leg.  The saturated legs open with a scan
/// storm — `storm_scans` full-graph scans all due at t=0, several times
/// the scheduler's slot count — so the queue is guaranteed deep while
/// the Poisson body (with its own steady scan share) keeps it fed.
struct LoadShape {
  double qps = 0;
  std::size_t arrivals = 0;
  std::size_t storm_scans = 0;
};

LoadShape light_load() {
  return g_smoke ? LoadShape{10.0, 60, 0} : LoadShape{8.0, 120, 0};
}
LoadShape saturated_load() {
  return g_smoke ? LoadShape{150.0, 150, 16} : LoadShape{200.0, 300, 24};
}

/// Builds the deterministic open-loop schedule: exponential interarrival
/// gaps at `shape.qps`, hub-biased keys (vertices sampled from edge
/// endpoints, so P(vertex) is proportional to degree), 60/20/20
/// point/traversal/scan class mix after the storm prefix.  The SAME
/// seed is used for the FIFO and SLO legs of a load level, so the two
/// modes replay byte-identical traffic.
std::vector<Arrival> build_schedule(const bench::Workload& w,
                                    const LoadShape& shape,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(shape.qps);
  std::uniform_int_distribution<std::size_t> edge(0, w.edges.size() - 1);
  std::uniform_int_distribution<int> mix(0, 9);
  const auto hub = [&] {
    const Edge& e = w.edges[edge(rng)];
    return (rng() & 1) != 0 ? e.src : e.dst;
  };
  std::vector<Arrival> schedule(shape.storm_scans + shape.arrivals);
  std::size_t scans = 0;
  for (std::size_t i = 0; i < shape.storm_scans; ++i) {
    schedule[i].offset_seconds = 0;
    schedule[i].mix = Mix::kScan;
    schedule[i].query = (scans++ & 1) != 0 ? "COUNT TRIANGLES" : "CC";
  }
  double clock = 0;
  for (std::size_t i = shape.storm_scans; i < schedule.size(); ++i) {
    Arrival& a = schedule[i];
    clock += gap(rng);
    a.offset_seconds = clock;
    const int m = mix(rng);
    std::ostringstream text;
    if (m < 6) {
      a.mix = Mix::kPoint;
      text << "GET " << hub();
    } else if (m < 8) {
      a.mix = Mix::kTraversal;
      text << "PATH " << hub() << " " << hub() << " MAXLEN 6";
    } else {
      a.mix = Mix::kScan;
      text << ((scans++ & 1) != 0 ? "COUNT TRIANGLES" : "CC");
    }
    a.query = text.str();
  }
  return schedule;
}

struct LatencyStats {
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  std::size_t n = 0;
};

LatencyStats quantiles(std::vector<double> samples_ms) {
  LatencyStats stats;
  stats.n = samples_ms.size();
  if (samples_ms.empty()) return stats;
  std::sort(samples_ms.begin(), samples_ms.end());
  const auto at = [&](double q) {
    const std::size_t idx = std::min(
        samples_ms.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(samples_ms.size())));
    return samples_ms[idx];
  };
  stats.p50_ms = at(0.50);
  stats.p95_ms = at(0.95);
  stats.p99_ms = at(0.99);
  double sum = 0;
  for (const double v : samples_ms) sum += v;
  stats.mean_ms = sum / static_cast<double>(samples_ms.size());
  return stats;
}

const char* mix_name(Mix m) {
  switch (m) {
    case Mix::kPoint: return "point";
    case Mix::kTraversal: return "traversal";
    case Mix::kScan: return "scan";
  }
  return "?";
}

double g_fifo_saturated_point_p99 = 0;  ///< FIFO leg runs first

/// A deliberately narrow scheduler — two admission slots — so the scan
/// storm saturates it the way a production pool saturates under a burst
/// of analytics.  bench::cluster_for does not expose max_inflight, so
/// the cluster is built (once, warm across legs) here.
MssgCluster& shared_cluster(const bench::Workload& w) {
  static std::unique_ptr<MssgCluster> cluster;
  if (!cluster) {
    ClusterConfig config;
    config.backend = Backend::kGrDB;
    config.backend_nodes = 4;
    config.frontend_nodes = 2;
    config.scheduler.max_inflight = 2;
    config.db.cache_bytes =
        std::max<std::size_t>(256 << 10, 32 * w.directed_bytes() / 4);
    config.db.max_vertices = w.spec.vertices;
    cluster = std::make_unique<MssgCluster>(config);
    cluster->ingest(w.edges);
  }
  return *cluster;
}

// One leg: replay the schedule open-loop against a fresh session on the
// shared warm cluster, collect per-class latency and goodput.
void run_leg(benchmark::State& state, const bench::Workload& w,
             const std::string& name, bool fifo, const LoadShape& shape) {
  MssgCluster& cluster = shared_cluster(w);
  serve::ServeConfig config;
  config.fifo = fifo;
  // Class deadlines: points must START within 250 ms of arrival,
  // traversals within 1 s, scans within 10 s (then they expire rather
  // than run pointlessly late).  FIFO mode ignores all of this.
  config.point = {/*priority=*/2, /*deadline_seconds=*/0.25};
  config.traversal = {/*priority=*/1, /*deadline_seconds=*/1.0};
  config.scan = {/*priority=*/0, /*deadline_seconds=*/10.0};
  const std::vector<Arrival> schedule = build_schedule(w, shape, 0x5107);

  std::mutex mu;
  std::map<Mix, std::vector<double>> latencies_ms;
  std::uint64_t completed_ok = 0;
  std::uint64_t expired = 0;
  std::uint64_t deadline_missed = 0;
  std::uint64_t errors = 0;
  double wall_seconds = 0;

  for (auto _ : state) {
    serve::ServeSession session(cluster, config);
    std::vector<std::thread> workers;
    workers.reserve(schedule.size());
    const auto t0 = std::chrono::steady_clock::now();
    for (const Arrival& a : schedule) {
      // Open loop: fire at the scheduled instant regardless of how far
      // behind the service is.  Any dispatch slip counts against the
      // query's latency — the user pressed the button at offset_seconds.
      const auto due = t0 + std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(a.offset_seconds));
      std::this_thread::sleep_until(due);
      workers.emplace_back([&session, &a, &mu, &latencies_ms, &completed_ok,
                            &expired, &deadline_missed, &errors, due] {
        const serve::ServeResult result = session.execute(a.query);
        const double latency_ms =
            1e3 * std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - due)
                      .count();
        std::lock_guard<std::mutex> lock(mu);
        latencies_ms[a.mix].push_back(latency_ms);
        if (result.ok()) {
          ++completed_ok;
        } else if (result.expired) {
          ++expired;
        } else {
          ++errors;
        }
        if (result.deadline_missed) ++deadline_missed;
      });
    }
    for (std::thread& worker : workers) worker.join();
    wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  bench::JsonRow row;
  row.name = name;
  row.counters["offered_qps"] = shape.qps;
  row.counters["storm_scans"] = static_cast<double>(shape.storm_scans);
  row.counters["arrivals"] = static_cast<double>(schedule.size());
  row.counters["completed_ok"] = static_cast<double>(completed_ok);
  row.counters["expired"] = static_cast<double>(expired);
  row.counters["deadline_missed"] = static_cast<double>(deadline_missed);
  row.counters["errors"] = static_cast<double>(errors);
  row.counters["goodput_qps"] =
      wall_seconds == 0 ? 0 : static_cast<double>(completed_ok) / wall_seconds;
  for (auto& [mix, samples] : latencies_ms) {
    const LatencyStats lat = quantiles(samples);
    const std::string prefix = mix_name(mix);
    row.counters[prefix + "_n"] = static_cast<double>(lat.n);
    row.counters[prefix + "_p50_ms"] = lat.p50_ms;
    row.counters[prefix + "_p95_ms"] = lat.p95_ms;
    row.counters[prefix + "_p99_ms"] = lat.p99_ms;
    row.counters[prefix + "_mean_ms"] = lat.mean_ms;
  }
  if (name == "Fifo/Saturated") {
    g_fifo_saturated_point_p99 = row.counters["point_p99_ms"];
  }
  if (name == "Slo/Saturated" && g_fifo_saturated_point_p99 > 0 &&
      row.counters["point_p99_ms"] > 0) {
    // The A17 acceptance bar: >= 3x better than FIFO at saturation.
    row.counters["point_p99_fifo_over_slo"] =
        g_fifo_saturated_point_p99 / row.counters["point_p99_ms"];
  }
  for (const auto& [key, value] : row.counters) {
    state.counters[key] = value;
  }
  bench::json_rows().push_back(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --smoke before benchmark::Initialize sees (and rejects) it.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }

  using namespace mssg;
  const double scale = bench::scale_from_env(g_smoke ? 0.02 : 0.08);
  const auto& w = bench::workload(pubmed_s(scale));

  // Registration order is run order: the FIFO saturated leg runs before
  // the SLO one so the latter can report the headline p99 ratio.
  struct Leg {
    const char* name;
    bool fifo;
    LoadShape shape;
  };
  const Leg legs[] = {
      {"Fifo/Light", true, light_load()},
      {"Slo/Light", false, light_load()},
      {"Fifo/Saturated", true, saturated_load()},
      {"Slo/Saturated", false, saturated_load()},
  };
  for (const Leg& leg : legs) {
    benchmark::RegisterBenchmark(
        (std::string("LoadGen/") + leg.name).c_str(),
        [&w, leg](benchmark::State& state) {
          run_leg(state, w, leg.name, leg.fifo, leg.shape);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1)
        ->UseRealTime();
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  bench::write_json("A17", w, g_smoke);
  return 0;
}
