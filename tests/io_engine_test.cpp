// Async I/O engine tests: the raw read-ahead IoEngine (ordering,
// merging, errors, shutdown), the BlockCache read-ahead protocol and its
// synchronous eviction write-back with an engine attached, the Pager
// free-list hardening, and the end-to-end guarantee that asynchronous
// prefetch changes *when* blocks load but never what a query computes.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/temp_dir.hpp"
#include "gen/generators.hpp"
#include "storage/block_cache.hpp"
#include "storage/fault_injector.hpp"
#include "storage/file.hpp"
#include "storage/io_engine.hpp"
#include "storage/pager.hpp"
#include "mssg/mssg.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

constexpr std::size_t kBlock = 512;

std::vector<std::byte> pattern_block(std::uint8_t tag) {
  return std::vector<std::byte>(kBlock, std::byte{tag});
}

// ---- IoEngine ---------------------------------------------------------------

TEST(IoEngine, ExecutesBatchSortedByOffset) {
  TempDir dir;
  MetricsRegistry metrics;
  IoStats file_stats(metrics);
  File file = File::open(dir.path() / "data", &file_stats);
  for (std::uint8_t i = 0; i < 8; ++i) {
    file.write_at(i * kBlock, pattern_block(i));
  }

  IoEngine engine({.stats = &file_stats});
  std::vector<IoRequest> batch;
  // Submit in deliberately shuffled offset order.
  for (const std::uint64_t block : {5u, 1u, 7u, 0u, 3u, 6u, 2u, 4u}) {
    IoRequest req;
    req.file = &file;
    req.offset = block * kBlock;
    req.buffer.resize(kBlock);
    req.key = block;
    batch.push_back(std::move(req));
  }
  engine.submit(std::move(batch));
  engine.drain();

  const auto done = engine.poll_completions();
  ASSERT_EQ(done.size(), 8u);
  for (std::size_t i = 0; i < done.size(); ++i) {
    // Completions come back in execution order == ascending offset.
    EXPECT_EQ(done[i].offset, i * kBlock);
    EXPECT_EQ(done[i].key, i);
    EXPECT_EQ(done[i].buffer, pattern_block(static_cast<std::uint8_t>(i)));
  }
  // The worker counted its I/O into the file's own stats as it ran —
  // and coalesced the 8 byte-contiguous blocks into ONE vectored read.
  EXPECT_EQ(file_stats.reads, 1u);
  EXPECT_EQ(file_stats.bytes_read, 8u * kBlock);
  EXPECT_EQ(file_stats.vectored_merges, 7u);
}

TEST(IoEngine, ShutdownDiscardsUnpolledReadsSafely) {
  TempDir dir;
  File file = File::open(dir.path() / "data");
  file.write_at(0, pattern_block(9));
  {
    IoEngine engine;
    std::vector<IoRequest> batch;
    IoRequest req;
    req.file = &file;
    req.offset = 0;
    req.buffer.resize(kBlock);
    batch.push_back(std::move(req));
    engine.submit(std::move(batch));
    // Destroyed with a completed-but-unpolled read: must not leak or hang.
  }
  SUCCEED();
}

TEST(IoEngine, DestructorSpillsDroppedErrorsIntoSink) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug builds assert on dropped errors by design";
#else
  TempDir dir;
  File file = File::open(dir.path() / "data");
  file.write_at(0, pattern_block(1));
  FaultInjector::instance().clear();
  FaultInjector::instance().parse_spec(
      "path=" + (dir.path() / "data").string() + ",op=read,kind=fail,nth=0");

  MetricsRegistry metrics;
  IoStats sink(metrics);
  {
    IoEngine engine({.stats = &sink});
    std::vector<IoRequest> batch;
    IoRequest req;
    req.file = &file;
    req.offset = 0;
    req.buffer.resize(kBlock);
    req.key = 5;
    batch.push_back(std::move(req));
    engine.submit(std::move(batch));
    engine.drain();
    // Destroyed WITHOUT polling: the failed read's error must not
    // vanish silently.  It is logged and counted in the sink.
  }
  FaultInjector::instance().clear();
  EXPECT_EQ(sink.engine_dropped_errors, 1u);
#endif
}

TEST(IoEngine, NullFileRequestCompletesWithoutIo) {
  MetricsRegistry metrics;
  IoStats stats(metrics);
  IoEngine engine({.stats = &stats});
  std::vector<IoRequest> batch;
  IoRequest req;
  req.file = nullptr;  // resolved by the owner without touching disk
  req.key = 42;
  batch.push_back(std::move(req));
  engine.submit(std::move(batch));
  engine.drain();
  const auto done = engine.poll_completions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].key, 42u);
  EXPECT_EQ(stats.reads, 0u);
}

TEST(IoEngine, WorkerErrorsPropagateToOwningThread) {
  TempDir dir;
  File file = File::open(dir.path() / "data");
  file.write_at(0, pattern_block(3));
  FaultInjector::instance().clear();
  FaultInjector::instance().parse_spec(
      "path=" + (dir.path() / "data").string() + ",op=read,kind=fail,nth=0");

  IoEngine engine;
  std::vector<IoRequest> batch;
  IoRequest req;
  req.file = &file;
  req.offset = 0;
  req.buffer.resize(kBlock);
  req.key = 7;
  batch.push_back(std::move(req));
  engine.submit(std::move(batch));
  engine.drain();  // the worker must survive the throw, not terminate

  const auto done = engine.poll_completions();
  FaultInjector::instance().clear();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].key, 7u);
  // The failure comes back on the completion, for the owner to rethrow.
  EXPECT_FALSE(done[0].error.empty());
  EXPECT_NE(done[0].error.find("fault injection"), std::string::npos)
      << done[0].error;
}

TEST(IoEngine, WaitForCompletionReturnsWhenIdle) {
  IoEngine engine;
  engine.wait_for_completion();  // idle engine: returns, no deadlock
  EXPECT_FALSE(engine.has_completions());
  EXPECT_EQ(engine.queue_depth(), 0u);
}

TEST(IoEngine, MetricsCountBatches) {
  TempDir dir;
  File file = File::open(dir.path() / "data");
  file.write_at(0, pattern_block(1));
  MetricsRegistry metrics;
  IoStats stats(metrics);
  IoEngine engine({.stats = &stats});
  for (int b = 0; b < 3; ++b) {
    std::vector<IoRequest> batch;
    IoRequest req;
    req.file = &file;
    req.offset = 0;
    req.buffer.resize(kBlock);
    batch.push_back(std::move(req));
    engine.submit(std::move(batch));
  }
  // Counted in the registry of the stats it was given, as each batch
  // finishes: once drain() returns, all three are there.
  engine.drain();
  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counter("span.io.engine.batch"), 3u);
  ASSERT_TRUE(snap.histograms.contains("io.engine.batch_requests"));
  EXPECT_EQ(snap.histograms.at("io.engine.batch_requests").count, 3u);
  EXPECT_TRUE(snap.histograms.contains("io.engine.queue_depth"));
  // Non-destructive: a second snapshot reports the same totals.
  EXPECT_EQ(metrics.snapshot().counter("span.io.engine.batch"), 3u);
  (void)engine.poll_completions();
}

// Many batches queued, polled part-way: the FIFO reuses and compacts
// its slots, and the completion list hands every request back once, in
// submission order, with the bytes of the slot it read.
TEST(IoEngine, QueuedSubBatchesCompleteInSubmissionOrder) {
  TempDir dir;
  File file = File::open(dir.path() / "data");
  for (std::uint8_t slot = 0; slot < 3; ++slot) {
    file.write_at(slot * kBlock, pattern_block(slot));
  }
  IoEngine engine;
  std::vector<IoRequest> done;
  const auto take = [&] {
    for (IoRequest& req : engine.poll_completions()) {
      done.push_back(std::move(req));
    }
  };
  for (std::uint64_t i = 0; i < 300; ++i) {
    IoRequest req;
    req.file = &file;
    req.offset = (i % 3) * kBlock;
    req.buffer.resize(kBlock);
    req.key = i;
    std::vector<IoRequest> batch;
    batch.push_back(std::move(req));
    engine.submit(std::move(batch));
    if (i % 40 == 39) take();
  }
  engine.drain();
  take();
  ASSERT_EQ(done.size(), 300u);
  for (std::uint64_t i = 0; i < done.size(); ++i) {
    EXPECT_EQ(done[i].key, i);
    EXPECT_TRUE(done[i].error.empty());
    EXPECT_EQ(done[i].buffer, pattern_block(static_cast<std::uint8_t>(i % 3)));
  }
}

// ---- BlockCache with an engine --------------------------------------------

// A file-backed store harness: blocks map 1:1 to file offsets, and the
// sync reader/writer count their invocations so tests can prove the
// read-ahead path bypassed the reader and every write went through the
// writer.
struct FileStore {
  explicit FileStore(const std::filesystem::path& path, IoStats* stats,
                     std::size_t capacity)
      : file(File::open(path, stats)), cache(capacity, stats) {
    store = cache.register_store(
        kBlock,
        [this](std::uint64_t block, std::span<std::byte> out) {
          ++sync_reads;
          file.read_at(block * kBlock, out);
        },
        [this](std::uint64_t block, std::span<const std::byte> in) {
          ++sync_writes;
          file.write_at(block * kBlock, in);
        },
        [this](std::uint64_t block) -> std::optional<AsyncTarget> {
          return AsyncTarget{&file, block * kBlock};
        });
  }

  File file;
  BlockCache cache;
  std::uint16_t store = 0;
  int sync_reads = 0;
  int sync_writes = 0;
};

TEST(AsyncIo, PrefetchedBlocksAreAdoptedAsHits) {
  TempDir dir;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  FileStore fs(dir.path() / "store", &stats, 1u << 20);
  for (std::uint8_t b = 0; b < 4; ++b) fs.file.write_at(b * kBlock, pattern_block(b));
  fs.cache.enable_async_io();
  ASSERT_TRUE(fs.cache.async_enabled());

  const std::vector<std::uint64_t> blocks{0, 1, 2, 3};
  EXPECT_EQ(fs.cache.prefetch_async(fs.store, blocks), 4u);
  EXPECT_EQ(stats.prefetch_issued, 4u);
  EXPECT_EQ(stats.cache_misses, 4u);  // the misses happen at issue time

  for (std::uint8_t b = 0; b < 4; ++b) {
    const BlockHandle h = fs.cache.get(fs.store, b);
    EXPECT_EQ(h.data()[0], std::byte{b});
  }
  EXPECT_EQ(stats.cache_hits, 4u);
  EXPECT_EQ(stats.prefetch_hits, 4u);
  EXPECT_EQ(stats.read_stalls, 0u);  // nothing loaded on the caller's path
  EXPECT_EQ(fs.sync_reads, 0);       // async path bypassed the sync reader

  // A second get of the same block is a plain hit, not a prefetch hit.
  (void)fs.cache.get(fs.store, 0);
  EXPECT_EQ(stats.prefetch_hits, 4u);
  EXPECT_EQ(stats.cache_hits, 5u);
}

TEST(AsyncIo, PrefetchSkipsCachedAndInflightBlocks) {
  TempDir dir;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  FileStore fs(dir.path() / "store", &stats, 1u << 20);
  fs.file.write_at(0, pattern_block(1));
  fs.cache.enable_async_io();

  const std::vector<std::uint64_t> blocks{0};
  EXPECT_EQ(fs.cache.prefetch_async(fs.store, blocks), 1u);
  // Re-issuing immediately (in flight) and after adoption (cached) are
  // both no-ops: a block is never read twice.
  EXPECT_EQ(fs.cache.prefetch_async(fs.store, blocks), 0u);
  (void)fs.cache.get(fs.store, 0);
  EXPECT_EQ(fs.cache.prefetch_async(fs.store, blocks), 0u);
  EXPECT_EQ(stats.prefetch_issued, 1u);
}

TEST(AsyncIo, GetDuringInflightPrefetchWaitsAndReadsOnce) {
  TempDir dir;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  FileStore fs(dir.path() / "store", &stats, 1u << 20);
  for (std::uint8_t b = 0; b < 16; ++b) {
    fs.file.write_at(b * kBlock, pattern_block(b));
  }
  fs.cache.enable_async_io();

  std::vector<std::uint64_t> blocks;
  for (std::uint64_t b = 0; b < 16; ++b) blocks.push_back(b);
  ASSERT_EQ(fs.cache.prefetch_async(fs.store, blocks), 16u);
  // Immediately demand every block: some reads are still in flight, so
  // get() must wait for the engine rather than re-read synchronously.
  for (std::uint8_t b = 0; b < 16; ++b) {
    const BlockHandle h = fs.cache.get(fs.store, b);
    EXPECT_EQ(h.data()[0], std::byte{b});
  }
  EXPECT_EQ(fs.sync_reads, 0);
  EXPECT_EQ(stats.read_stalls, 0u);
  EXPECT_EQ(stats.prefetch_hits, 16u);
}

TEST(AsyncIo, WriteBehindNeverServesStaleBytes) {
  TempDir dir;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  // Capacity of exactly two blocks forces eviction traffic.
  FileStore fs(dir.path() / "store", &stats, 2 * kBlock);
  fs.cache.enable_async_io();
  ASSERT_TRUE(fs.cache.async_enabled());

  {
    BlockHandle h = fs.cache.get(fs.store, 0);
    std::memset(h.mutable_data().data(), 0xAB, kBlock);
  }
  // Touch enough other blocks to evict block 0.  Its dirty bytes are
  // written back on this thread, through the store's writer, before the
  // eviction returns: the engine only reads.
  for (std::uint64_t b = 1; b <= 3; ++b) (void)fs.cache.get(fs.store, b);
  EXPECT_EQ(fs.sync_writes, 1);
  std::vector<std::byte> on_disk(kBlock);
  fs.file.read_at(0, on_disk);
  EXPECT_EQ(on_disk, std::vector<std::byte>(kBlock, std::byte{0xAB}));

  // Read back at once, through a read-ahead and through a miss alike.
  const std::vector<std::uint64_t> blocks{0};
  EXPECT_EQ(fs.cache.prefetch_async(fs.store, blocks), 1u);
  const BlockHandle h = fs.cache.get(fs.store, 0);
  EXPECT_EQ(h.data()[0], std::byte{0xAB});
  EXPECT_EQ(stats.prefetch_hits, 1u);
}

TEST(AsyncIo, FlushAndDestructorDrainWriteBehind) {
  TempDir dir;
  const auto path = dir.path() / "store";
  {
    MetricsRegistry metrics;
    IoStats stats(metrics);
    FileStore fs(path, &stats, 2 * kBlock);
    fs.cache.enable_async_io();
    for (std::uint64_t b = 0; b < 6; ++b) {
      BlockHandle h = fs.cache.get(fs.store, b);
      std::memset(h.mutable_data().data(), static_cast<int>(0x10 + b), kBlock);
    }
    // Four evictions wrote their blocks back as they happened; the
    // destructor writes the two still resident before the File closes.
    EXPECT_EQ(fs.sync_writes, 4);
  }
  File file = File::open(path);
  for (std::uint64_t b = 0; b < 6; ++b) {
    std::vector<std::byte> out(kBlock);
    file.read_at(b * kBlock, out);
    EXPECT_EQ(out[0], std::byte(0x10 + b)) << "block " << b;
  }
}

TEST(AsyncIo, WriteBehindErrorSurfacesAsStorageError) {
  TempDir dir;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  FileStore fs(dir.path() / "store", &stats, 2 * kBlock);
  fs.cache.enable_async_io();
  const std::string fail_first_write =
      "path=" + (dir.path() / "store").string() + ",op=write,kind=fail,nth=0";
  FaultInjector::instance().clear();
  FaultInjector::instance().parse_spec(fail_first_write);

  const auto dirty = [&](std::uint64_t block) {
    BlockHandle h = fs.cache.get(fs.store, block);
    std::memset(h.mutable_data().data(), 0xAB, kBlock);
  };
  // Unpinning block 2 evicts dirty block 0, whose write fails inside the
  // handle's destructor.  The error is parked and must come back as a
  // StorageError on the next get() — never a crash, never silence.
  dirty(0);
  (void)fs.cache.get(fs.store, 1);
  (void)fs.cache.get(fs.store, 2);
  EXPECT_EQ(fs.sync_writes, 1);
  EXPECT_THROW((void)fs.cache.get(fs.store, 3), StorageError);

  // The same through flush(): blocks 4, 5 and 6 push out 1, 2 and then
  // dirty block 4, whose write fails.
  FaultInjector::instance().clear();
  FaultInjector::instance().parse_spec(fail_first_write);
  dirty(4);
  (void)fs.cache.get(fs.store, 5);
  (void)fs.cache.get(fs.store, 6);
  EXPECT_THROW(fs.cache.flush(), StorageError);
  FaultInjector::instance().clear();
}

TEST(AsyncIo, LocatorNulloptFallsBackToSyncReader) {
  TempDir dir;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  File file = File::open(dir.path() / "store", &stats);
  file.write_at(0, pattern_block(7));
  BlockCache cache(1u << 20, &stats);
  int sync_reads = 0;
  const std::uint16_t store = cache.register_store(
      kBlock,
      [&](std::uint64_t block, std::span<std::byte> out) {
        ++sync_reads;
        file.read_at(block * kBlock, out);
      },
      [&](std::uint64_t block, std::span<const std::byte> in) {
        file.write_at(block * kBlock, in);
      },
      // Only even blocks are async-resolvable (grDB's uninitialized
      // blocks behave this way).
      [&](std::uint64_t block) -> std::optional<AsyncTarget> {
        if (block % 2 != 0) return std::nullopt;
        return AsyncTarget{&file, block * kBlock};
      });
  cache.enable_async_io();

  const std::vector<std::uint64_t> blocks{0, 1};
  EXPECT_EQ(cache.prefetch_async(store, blocks), 1u);  // block 1 skipped
  (void)cache.get(store, 0);
  (void)cache.get(store, 1);
  EXPECT_EQ(sync_reads, 1);  // block 1 loaded synchronously
  EXPECT_EQ(stats.read_stalls, 1u);
  EXPECT_EQ(stats.prefetch_hits, 1u);
}

TEST(AsyncIo, CapacityZeroCacheNeverEnablesAsync) {
  MetricsRegistry metrics;
  IoStats stats(metrics);
  BlockCache cache(0, &stats);
  cache.enable_async_io();
  // With nothing retained between unpins there is nothing to prefetch
  // into.
  EXPECT_FALSE(cache.async_enabled());
}

TEST(AsyncIo, PagerPrefetchWarmsPages) {
  TempDir dir;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  Pager pager(dir.path() / "pages.db", 4096, 1u << 20, &stats,
              /*async_io=*/true);
  ASSERT_TRUE(pager.async_enabled());
  std::vector<PageId> pages;
  for (int i = 0; i < 8; ++i) pages.push_back(pager.allocate());
  for (const PageId p : pages) {
    BlockHandle h = pager.pin(p);
    std::memset(h.mutable_data().data(), static_cast<int>(p), 64);
  }
  pager.flush();

  pager.prefetch(pages);  // already resident: all skipped
  const std::uint64_t issued_resident = stats.prefetch_issued;
  EXPECT_EQ(issued_resident, 0u);

  // Invalid/out-of-range ids are filtered, duplicates deduped — no throw.
  const std::vector<PageId> wild{kInvalidPage, pages[0], pages[0], 999999};
  pager.prefetch(wild);
  EXPECT_EQ(stats.prefetch_issued, 0u);
}

// ---- Pager free-list hardening ---------------------------------------------

TEST(PagerFreeList, DoubleFreeThrows) {
  TempDir dir;
  Pager pager(dir.path() / "pages.db", 4096, 1u << 20);
  const PageId a = pager.allocate();
  const PageId b = pager.allocate();
  pager.free_page(a);
  EXPECT_THROW(pager.free_page(a), StorageError);
  // The list survives the refused free: b can still be freed and both
  // slots recycle cleanly.
  pager.free_page(b);
  EXPECT_EQ(pager.allocate(), b);
  EXPECT_EQ(pager.allocate(), a);
}

TEST(PagerFreeList, FreeingPinnedPageThrows) {
  TempDir dir;
  Pager pager(dir.path() / "pages.db", 4096, 1u << 20);
  const PageId page = pager.allocate();
  {
    const BlockHandle pin = pager.pin(page);
    EXPECT_THROW(pager.free_page(page), StorageError);
  }
  pager.free_page(page);  // fine once unpinned
}

TEST(PagerFreeList, FreedPagesRecycleLifoAcrossReopen) {
  TempDir dir;
  const auto path = dir.path() / "pages.db";
  PageId a = kInvalidPage;
  PageId b = kInvalidPage;
  {
    Pager pager(path, 4096, 1u << 20);
    a = pager.allocate();
    b = pager.allocate();
    pager.free_page(a);
    pager.free_page(b);
    pager.flush();
  }
  Pager pager(path, 4096, 1u << 20);  // rebuilds the free-set mirror
  EXPECT_EQ(pager.allocate(), b);
  EXPECT_EQ(pager.allocate(), a);
}

TEST(PagerFreeList, CyclicListDetectedOnLoad) {
  TempDir dir;
  const auto path = dir.path() / "pages.db";
  PageId a = kInvalidPage;
  PageId b = kInvalidPage;
  {
    Pager pager(path, 4096, 1u << 20);
    a = pager.allocate();
    b = pager.allocate();
    pager.free_page(a);
    pager.free_page(b);  // free list: b -> a -> end
    pager.flush();
  }
  {
    // Corrupt page a's next pointer to point back at b: b -> a -> b ...
    File file = File::open(path);
    std::vector<std::byte> next(sizeof(PageId));
    std::memcpy(next.data(), &b, sizeof(b));
    file.write_at(a * 4096, next);
  }
  EXPECT_THROW(Pager(path, 4096, 1u << 20), StorageError);
}

TEST(PagerFreeList, OutOfRangeListDetectedOnLoad) {
  TempDir dir;
  const auto path = dir.path() / "pages.db";
  PageId a = kInvalidPage;
  {
    Pager pager(path, 4096, 1u << 20);
    a = pager.allocate();
    pager.free_page(a);
    pager.flush();
  }
  {
    // Point the freed page's next pointer far past the file.
    File file = File::open(path);
    const PageId bogus = 1u << 20;
    std::vector<std::byte> next(sizeof(PageId));
    std::memcpy(next.data(), &bogus, sizeof(bogus));
    file.write_at(a * 4096, next);
  }
  EXPECT_THROW(Pager(path, 4096, 1u << 20), StorageError);
}

// ---- End-to-end: async prefetch must not change what BFS computes ----------

struct BfsObservation {
  ClusterQueryResult result;
  std::map<std::string, std::uint64_t> query_counters;
};

// One seeded cluster run with the given async_io setting.  Small cache
// so the fringe blocks actually leave the cache between levels.
BfsObservation observe_bfs(Backend backend, bool async_io) {
  ClusterConfig config;
  config.backend = backend;
  config.backend_nodes = 4;
  config.frontend_nodes = 1;
  config.db.cache_bytes = 64u << 10;
  config.db.async_io = async_io;

  ChungLuConfig graph{.vertices = 400, .edges = 2000, .seed = 77};
  const auto edges = generate_chung_lu(graph);
  config.db.max_vertices = graph.vertices;

  MssgCluster cluster(std::move(config));
  cluster.ingest(edges);
  BfsOptions options;
  options.prefetch = true;

  BfsObservation obs;
  obs.result = cluster.bfs(1, 2, options);
  const MetricsSnapshot snap = cluster.metrics_snapshot();
  for (const auto& [name, value] : snap.counters) {
    // Everything the query layer counts must be identical; io.* differs
    // by design (stalls move off the critical path).
    if (name.starts_with("bfs.") || name.starts_with("span.bfs") ||
        name.starts_with("comm.") || name.starts_with("ingest.")) {
      obs.query_counters.emplace(name, value);
    }
  }
  return obs;
}

class BfsAsyncEquivalence : public ::testing::TestWithParam<Backend> {};

TEST_P(BfsAsyncEquivalence, AsyncPrefetchMatchesSyncBitForBit) {
  const BfsObservation sync = observe_bfs(GetParam(), /*async_io=*/false);
  const BfsObservation async = observe_bfs(GetParam(), /*async_io=*/true);

  EXPECT_EQ(sync.result.distance, async.result.distance);
  EXPECT_EQ(sync.result.levels, async.result.levels);
  EXPECT_EQ(sync.result.edges_scanned, async.result.edges_scanned);
  EXPECT_EQ(sync.result.vertices_expanded, async.result.vertices_expanded);
  EXPECT_EQ(sync.result.fringe_messages, async.result.fringe_messages);

  ASSERT_EQ(sync.result.per_node.size(), async.result.per_node.size());
  for (std::size_t r = 0; r < sync.result.per_node.size(); ++r) {
    const BfsStats& s = sync.result.per_node[r];
    const BfsStats& a = async.result.per_node[r];
    EXPECT_EQ(s.distance, a.distance) << "rank " << r;
    EXPECT_EQ(s.levels, a.levels) << "rank " << r;
    EXPECT_EQ(s.edges_scanned, a.edges_scanned) << "rank " << r;
    EXPECT_EQ(s.vertices_expanded, a.vertices_expanded) << "rank " << r;
    EXPECT_EQ(s.fringe_messages, a.fringe_messages) << "rank " << r;
    EXPECT_EQ(s.discovered_owned, a.discovered_owned) << "rank " << r;
  }
  EXPECT_EQ(sync.query_counters, async.query_counters);
}

INSTANTIATE_TEST_SUITE_P(
    OutOfCoreBackends, BfsAsyncEquivalence,
    ::testing::Values(Backend::kGrDB, Backend::kKVStore),
    [](const ::testing::TestParamInfo<Backend>& param_info) {
      auto name = to_string(param_info.param);
      return name.substr(0, name.find('('));
    });

TEST(AsyncIo, GrdbPublishesEngineMetrics) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  config.async_io = true;
  std::filesystem::create_directories(config.dir);
  {
    auto db = make_graphdb(Backend::kGrDB, config);
    std::vector<Edge> edges;
    for (VertexId v = 0; v < 4000; ++v) edges.push_back({v, (v + 1) % 4000});
    db->store_edges(edges);
  }
  // Reopen: the cache is cold, so the prefetch has real reads to issue.
  auto db = make_graphdb(Backend::kGrDB, config);
  std::vector<VertexId> fringe;
  for (VertexId v = 0; v < 4000; v += 3) fringe.push_back(v);
  db->prefetch(fringe);

  // The engine counts a batch when a worker finishes it, not when the
  // snapshot is taken; flush() drains the engine first.
  db->flush();
  const MetricsSnapshot stats = db->metrics().snapshot();
  EXPECT_GT(stats.counter("io.prefetch_issued"), 0u);

  MetricsSnapshot snap;
  db->publish_metrics(snap);
  EXPECT_EQ(snap.counter("io.prefetch_issued"),
            stats.counter("io.prefetch_issued"));
  EXPECT_GT(snap.counter("span.io.engine.batch"), 0u);
  EXPECT_TRUE(snap.histograms.contains("io.engine.batch_requests"));

  // The warmed blocks satisfy the reads that follow without stalling.
  const auto stalls_before = stats.counter("io.read_stalls");
  std::vector<VertexId> out;
  for (const VertexId v : fringe) db->get_adjacency(v, out);
  EXPECT_GT(db->metrics().counter("io.prefetch_hits"), 0u);
  EXPECT_EQ(db->metrics().counter("io.read_stalls"), stalls_before);
}

TEST(AsyncIo, KvstorePrefetchWarmsChunkLeaves) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  config.async_io = true;
  std::filesystem::create_directories(config.dir);
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 3000; ++v) {
    edges.push_back({v, (v + 1) % 3000});
    edges.push_back({v, (v + 7) % 3000});
  }
  {
    auto db = make_graphdb(Backend::kKVStore, config);
    db->store_edges(edges);
  }
  // Reopen for a cold cache, as above.
  auto db = make_graphdb(Backend::kKVStore, config);
  std::vector<VertexId> fringe;
  for (VertexId v = 0; v < 3000; v += 5) fringe.push_back(v);
  db->prefetch(fringe);
  EXPECT_GT(db->metrics().counter("io.prefetch_issued"), 0u);

  std::vector<VertexId> out;
  for (const VertexId v : fringe) {
    out.clear();
    db->get_adjacency(v, out);
    EXPECT_EQ(out.size(), 2u) << "vertex " << v;
  }
  EXPECT_GT(db->metrics().counter("io.prefetch_hits"), 0u);
}

}  // namespace
}  // namespace mssg
