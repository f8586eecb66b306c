// Ablation A13 — the vectored read-ahead engine and journal group
// commit.  Two questions, priced separately:
//
//  1. Engine sweep: a cold multi-file read sweep (sorted batches spanning
//     several files) through the raw IoEngine, as
//     (a) no merging — one pread per block;
//     (b) vectored merging — adjacent blocks fused into one preadv, fewer
//         syscalls for identical bytes.
//
//  2. Group commit: the A11 journal-on ingest overhead, re-measured with
//     the ingest sliced into many flush epochs.  sync_interval=1 pays
//     two fsyncs per flush (the A11 price); sync_interval=8 batches redo
//     records across flush boundaries and amortizes the fsyncs, so the
//     journal-on gap must narrow while recovery still lands on a group
//     boundary (crash_recovery_test proves that half).
//
// `--smoke` (stripped before benchmark::Initialize) shrinks both parts
// to seconds — the `io`-labelled ctest smoke entry runs it that way.
#include <array>
#include <cstring>

#include "bench_util.hpp"
#include "common/temp_dir.hpp"
#include "storage/file.hpp"
#include "storage/io_engine.hpp"

namespace {

using namespace mssg;

bool g_smoke = false;

// ---- Part 1: raw-engine cold sweep -----------------------------------------

constexpr std::size_t kSweepFiles = 4;
constexpr std::size_t kSweepBlock = 4096;

std::size_t sweep_blocks_per_file() { return g_smoke ? 128 : 2048; }

// One shared on-disk dataset for every engine configuration.
const std::filesystem::path& sweep_dir() {
  static TempDir dir;
  static bool built = false;
  if (!built) {
    std::vector<std::byte> block(kSweepBlock);
    for (std::size_t f = 0; f < kSweepFiles; ++f) {
      File file = File::open(dir.path() / ("sweep" + std::to_string(f)));
      for (std::size_t b = 0; b < sweep_blocks_per_file(); ++b) {
        std::memset(block.data(), static_cast<int>((f * 131 + b) & 0xFF),
                    kSweepBlock);
        file.write_at(b * kSweepBlock, block);
      }
      file.sync();
    }
    built = true;
  }
  return dir.path();
}

void engine_sweep(benchmark::State& state, std::size_t max_merge) {
  const std::size_t blocks = sweep_blocks_per_file();
  MetricsRegistry metrics;
  IoStats stats(metrics);
  std::vector<std::unique_ptr<File>> files;
  for (std::size_t f = 0; f < kSweepFiles; ++f) {
    files.push_back(std::make_unique<File>(
        File::open(sweep_dir() / ("sweep" + std::to_string(f)), &stats)));
  }

  constexpr std::size_t kChunk = 32;  // contiguous blocks per file per batch
  std::uint64_t batches = 0;
  for (auto _ : state) {
    // Cold means the device: evict the sweep files from the OS page
    // cache so the worker's reads actually block.
    state.PauseTiming();
    for (const auto& file : files) file->drop_page_cache();
    state.ResumeTiming();
    IoEngine engine({.max_merge = max_merge, .stats = &stats});
    for (std::size_t start = 0; start < blocks; start += kChunk) {
      // One sorted batch spanning all files: merge runs never cross a
      // file, so each file's chunk is one run.
      std::vector<IoRequest> batch;
      batch.reserve(kSweepFiles * kChunk);
      for (std::size_t f = 0; f < kSweepFiles; ++f) {
        for (std::size_t b = start; b < std::min(start + kChunk, blocks);
             ++b) {
          IoRequest req;
          req.file = files[f].get();
          req.offset = b * kSweepBlock;
          req.buffer.resize(kSweepBlock);
          req.key = f * blocks + b;
          batch.push_back(std::move(req));
        }
      }
      engine.submit(std::move(batch));
      ++batches;
      // Keep the completion queue bounded, like the cache's adopt loop.
      if (batches % 8 == 0) (void)engine.poll_completions();
    }
    engine.drain();
    (void)engine.poll_completions();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(stats.bytes_read.load()));
  state.counters["syscall_reads"] = static_cast<double>(stats.reads);
  state.counters["vectored_merges"] =
      static_cast<double>(stats.vectored_merges);
  state.counters["blocks"] =
      static_cast<double>(kSweepFiles * blocks * state.iterations());
  // Wall time on this harness is bounded by one machine and the host's
  // caches; the modeled 2006-era device time (8 ms seek per issued op,
  // 50 MB/s sequential — bench_util.hpp's CostModel) prices the measured
  // syscall counts on the paper's hardware.
  state.counters["modeled_device_ms"] =
      1e3 *
      (static_cast<double>(stats.reads) * 8e-3 +
       static_cast<double>(stats.bytes_read) / 50e6) /
      static_cast<double>(state.iterations());
}

// ---- Part 2: journal group commit on the sliced ingest path ----------------

constexpr int kIngestBackends = 4;

void ingest_sliced(benchmark::State& state, const bench::Workload& w,
                   ClusterConfig& base, bool journal,
                   std::uint32_t interval) {
  // The backend's three journal legs share `base` (one deployment
  // config, reconfigured per leg).  Save the journal fields and put them
  // back when the leg ends, so a reordered or partially-run leg list can
  // never silently inherit journal-off — or a stale sync interval —
  // from whichever leg happened to run before it.
  const bool saved_journal = base.db.journal;
  const std::uint32_t saved_interval = base.db.journal_sync_interval;
  base.db.journal = journal;
  base.db.journal_sync_interval = interval;
  // A multiple of every sync_interval below, so the last slice's flush
  // lands exactly on a group boundary and the counters read at the end
  // describe a fully durable state.
  const std::size_t slices = g_smoke ? 8 : 24;
  for (auto _ : state) {
    ClusterConfig config = base;
    MssgCluster cluster(config);

    // Many flush epochs, the regime group commit exists for: each
    // ingest() call finalizes with one flush() per node.
    std::uint64_t stored = 0;
    double seconds = 0;
    const std::size_t per_slice = (w.edges.size() + slices - 1) / slices;
    for (std::size_t s = 0; s < slices; ++s) {
      const std::size_t begin = s * per_slice;
      if (begin >= w.edges.size()) break;
      const std::size_t len = std::min(per_slice, w.edges.size() - begin);
      const auto report = cluster.ingest(
          std::span<const Edge>(w.edges).subspan(begin, len));
      stored += report.edges_stored;
      seconds += report.seconds;
    }

    MetricsSnapshot io;
    for (const auto& node : bench::node_counters(cluster)) io.merge(node);
    state.counters["edges_stored"] = static_cast<double>(stored);
    state.counters["wall_edges_per_s"] =
        seconds == 0 ? 0 : static_cast<double>(stored) / seconds;
    state.counters["writes"] = static_cast<double>(io.counter("io.writes"));
    state.counters["syncs"] = static_cast<double>(io.counter("io.syncs"));
    state.counters["journal_records"] =
        static_cast<double>(io.counter("storage.journal_records"));
    state.counters["group_commits"] =
        static_cast<double>(io.counter("journal.group_commits"));
    state.counters["deferred_flushes"] =
        static_cast<double>(io.counter("journal.deferred_flushes"));
  }
  base.db.journal = saved_journal;
  base.db.journal_sync_interval = saved_interval;
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

  struct EngineConfig {
    const char* label;
    std::size_t max_merge;
  };
  for (const EngineConfig& c : {EngineConfig{"vectored:off", 1},
                                EngineConfig{"vectored:on", 16}}) {
    benchmark::RegisterBenchmark(
        (std::string("AblationIo/ColdSweep/") + c.label).c_str(),
        [c](benchmark::State& state) { engine_sweep(state, c.max_merge); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(g_smoke ? 1 : 3);
  }

  const double scale = mssg::bench::scale_from_env(g_smoke ? 0.02 : 0.25);
  const auto& w = mssg::bench::workload(mssg::pubmed_s(scale));
  struct JournalConfig {
    const char* label;
    bool journal;
    std::uint32_t interval;
  };
  // One config template per backend, shared by its journal legs (lives
  // on main's stack through RunSpecifiedBenchmarks; legs run serially).
  const std::array<mssg::Backend, 2> backends{mssg::Backend::kGrDB,
                                              mssg::Backend::kKVStore};
  std::array<mssg::ClusterConfig, 2> bases;
  for (std::size_t b = 0; b < backends.size(); ++b) {
    bases[b].backend = backends[b];
    bases[b].backend_nodes = kIngestBackends;
    bases[b].frontend_nodes = 2;
    bases[b].db.cache_bytes = std::max<std::size_t>(
        256 << 10, 32 * w.directed_bytes() / kIngestBackends);
    bases[b].db.max_vertices = w.spec.vertices;
  }
  for (std::size_t b = 0; b < backends.size(); ++b) {
    for (const JournalConfig& j :
         {JournalConfig{"journal:off", false, 1},
          JournalConfig{"journal:on/sync:1", true, 1},
          JournalConfig{"journal:on/sync:8", true, 8}}) {
      mssg::ClusterConfig* base = &bases[b];
      benchmark::RegisterBenchmark(
          (std::string("AblationIo/SlicedIngest/") +
           mssg::bench::short_name(backends[b]) + "/" + j.label)
              .c_str(),
          [&w, base, j](benchmark::State& state) {
            ingest_sliced(state, w, *base, j.journal, j.interval);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
