#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "common/temp_dir.hpp"
#include "storage/block_cache.hpp"
#include "storage/fault_injector.hpp"
#include "storage/file.hpp"
#include "storage/journal.hpp"
#include "storage/overflow.hpp"
#include "storage/pager.hpp"

namespace mssg {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

// ---- File ------------------------------------------------------------------

TEST(File, WriteThenReadBack) {
  TempDir dir;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  File f = File::open(dir.path() / "data.bin", &stats);
  const auto payload = bytes_of("hello disk");
  f.write_at(100, payload);
  std::vector<std::byte> readback(payload.size());
  f.read_at(100, readback);
  EXPECT_EQ(readback, payload);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.bytes_written, payload.size());
}

TEST(File, ReadPastEofZeroFills) {
  TempDir dir;
  File f = File::open(dir.path() / "data.bin");
  f.write_at(0, bytes_of("abc"));
  std::vector<std::byte> buffer(10, std::byte{0xFF});
  const auto real = f.read_at(0, buffer);
  EXPECT_EQ(real, 3u);
  EXPECT_EQ(static_cast<char>(buffer[0]), 'a');
  EXPECT_EQ(buffer[3], std::byte{0});
  EXPECT_EQ(buffer[9], std::byte{0});
}

TEST(File, SparseWriteExtends) {
  TempDir dir;
  File f = File::open(dir.path() / "data.bin");
  f.write_at(1 << 20, bytes_of("x"));
  EXPECT_EQ(f.size(), (1u << 20) + 1);
}

TEST(File, TruncateShrinks) {
  TempDir dir;
  File f = File::open(dir.path() / "data.bin");
  f.write_at(0, bytes_of("0123456789"));
  f.truncate(4);
  EXPECT_EQ(f.size(), 4u);
}

TEST(File, OpenReadonlyMissingThrows) {
  TempDir dir;
  EXPECT_THROW(File::open_readonly(dir.path() / "nope.bin"), StorageError);
}

TEST(File, MoveTransfersDescriptor) {
  TempDir dir;
  File a = File::open(dir.path() / "data.bin");
  a.write_at(0, bytes_of("abc"));
  File b = std::move(a);
  EXPECT_FALSE(a.is_open());  // NOLINT(bugprone-use-after-move) — testing it
  EXPECT_TRUE(b.is_open());
  EXPECT_EQ(b.size(), 3u);
}

// A sync fdatasyncs only a handle that wrote or truncated since its last
// sync; a clean one costs nothing and is not counted.
TEST(File, SyncSkipsAHandleThatSawNoWrite) {
  TempDir dir;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  File f = File::open(dir.path() / "data.bin", &stats);
  f.sync();
  EXPECT_EQ(stats.syncs, 0u);
  f.write_at(0, bytes_of("abc"));
  f.sync();
  f.sync();
  EXPECT_EQ(stats.syncs, 1u);
  f.truncate(4);
  f.sync();
  EXPECT_EQ(stats.syncs, 2u);
  // A write before a move carries over: the flag moves with the
  // descriptor.
  f.write_at(0, bytes_of("d"));
  File g = std::move(f);
  g.sync();
  EXPECT_EQ(stats.syncs, 3u);
}

// A failed fdatasync leaves the handle unsynced, so the retry syncs.
TEST(File, FailedSyncIsRetried) {
  TempDir dir;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  File f = File::open(dir.path() / "data.bin", &stats);
  f.write_at(0, bytes_of("abc"));
  FaultInjector::instance().clear();
  FaultInjector::instance().parse_spec("path=" + dir.path().string() +
                                       ",op=sync,kind=fail,nth=0");
  EXPECT_THROW(f.sync(), StorageError);
  FaultInjector::instance().clear();
  f.sync();
  EXPECT_EQ(stats.syncs, 1u);
}

// trim() leaves an undo log that holds only its header alone.
TEST(WriteJournal, TrimSkipsAHeaderOnlyUndoLog) {
  TempDir dir;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  WriteJournal journal(dir.path() / "j", &stats);
  const auto payload = bytes_of("post-image");
  journal.redo_begin();
  journal.redo_record(1, payload);
  journal.redo_commit();  // two syncs
  const std::uint64_t before = stats.syncs;
  journal.trim();  // the redo log only
  EXPECT_EQ(stats.syncs - before, 1u);
  journal.undo_record(2, payload);
  journal.undo_barrier();
  const std::uint64_t with_undo = stats.syncs;
  journal.trim();  // both logs
  EXPECT_EQ(stats.syncs - with_undo, 2u);
}

// ---- BlockCache ------------------------------------------------------------

/// In-memory backing store for cache tests.
class FakeStore {
 public:
  explicit FakeStore(std::size_t block_size) : block_size_(block_size) {}

  BlockCache::Reader reader() {
    return [this](std::uint64_t block, std::span<std::byte> out) {
      ++reads_;
      auto it = blocks_.find(block);
      if (it == blocks_.end()) {
        std::memset(out.data(), 0, out.size());
      } else {
        std::memcpy(out.data(), it->second.data(), out.size());
      }
    };
  }

  BlockCache::Writer writer() {
    return [this](std::uint64_t block, std::span<const std::byte> in) {
      ++writes_;
      blocks_[block].assign(in.begin(), in.end());
    };
  }

  int reads_ = 0;
  int writes_ = 0;
  std::size_t block_size_;
  std::map<std::uint64_t, std::vector<std::byte>> blocks_;
};

TEST(BlockCache, HitAvoidsSecondRead) {
  FakeStore store(64);
  MetricsRegistry metrics;
  IoStats stats(metrics);
  BlockCache cache(1024, &stats);
  const auto id = cache.register_store(64, store.reader(), store.writer());
  { auto h = cache.get(id, 5); }
  { auto h = cache.get(id, 5); }
  EXPECT_EQ(store.reads_, 1);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

TEST(BlockCache, DirtyBlockWrittenBackOnEviction) {
  FakeStore store(64);
  BlockCache cache(64, nullptr);  // capacity: exactly one block
  const auto id = cache.register_store(64, store.reader(), store.writer());
  {
    auto h = cache.get(id, 1);
    h.mutable_data()[0] = std::byte{0xAA};
  }
  { auto h = cache.get(id, 2); }  // evicts block 1
  EXPECT_EQ(store.writes_, 1);
  EXPECT_EQ(store.blocks_.at(1)[0], std::byte{0xAA});
}

TEST(BlockCache, CleanEvictionSkipsWrite) {
  FakeStore store(64);
  BlockCache cache(64, nullptr);
  const auto id = cache.register_store(64, store.reader(), store.writer());
  { auto h = cache.get(id, 1); }
  { auto h = cache.get(id, 2); }
  EXPECT_EQ(store.writes_, 0);
}

TEST(BlockCache, LruEvictsOldestUnpinned) {
  FakeStore store(64);
  BlockCache cache(2 * 64, nullptr);
  const auto id = cache.register_store(64, store.reader(), store.writer());
  { auto h = cache.get(id, 1); }
  { auto h = cache.get(id, 2); }
  { auto h = cache.get(id, 1); }  // touch 1: now 2 is LRU
  { auto h = cache.get(id, 3); }  // evicts 2
  store.reads_ = 0;
  { auto h = cache.get(id, 1); }
  EXPECT_EQ(store.reads_, 0);  // 1 still resident
  { auto h = cache.get(id, 2); }
  EXPECT_EQ(store.reads_, 1);  // 2 was evicted
}

TEST(BlockCache, PinnedBlocksSurviveCapacityPressure) {
  FakeStore store(64);
  BlockCache cache(64, nullptr);
  const auto id = cache.register_store(64, store.reader(), store.writer());
  auto pinned = cache.get(id, 1);
  pinned.mutable_data()[0] = std::byte{0x42};
  { auto h = cache.get(id, 2); }
  { auto h = cache.get(id, 3); }
  // Block 1 stayed pinned through the churn.
  EXPECT_EQ(pinned.data()[0], std::byte{0x42});
  EXPECT_FALSE(store.blocks_.contains(1));  // never evicted => never written
}

TEST(BlockCache, DisabledCacheReportsNoHits) {
  FakeStore store(64);
  MetricsRegistry metrics;
  IoStats stats(metrics);
  BlockCache cache(0, &stats);
  const auto id = cache.register_store(64, store.reader(), store.writer());
  {
    // Pin the block twice at once: the second get() finds the entry in
    // the map, but with caching disabled nothing is retained between
    // unpins, so it must not count as a hit (Fig 5.2's cache-off series
    // reads 0 hits by definition).
    auto first = cache.get(id, 3);
    auto second = cache.get(id, 3);
  }
  { auto again = cache.get(id, 3); }
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 3u);
}

TEST(BlockCache, PinLeakAtDestructionIsDetected) {
#ifndef NDEBUG
  GTEST_SKIP() << "leak check aborts via assert() in debug builds";
#else
  FakeStore store(64);
  MetricsRegistry metrics;
  IoStats stats(metrics);
  BlockHandle leaked;
  {
    BlockCache cache(1024, &stats);
    const auto id = cache.register_store(64, store.reader(), store.writer());
    leaked = cache.get(id, 9);
    leaked.mutable_data()[0] = std::byte{0x5A};
    // The cache dies while block 9 is still pinned — a leaked handle.
  }
  EXPECT_EQ(stats.cache_pin_leaks, 1u);
  // The dirty block was still persisted (never silently lost)...
  EXPECT_EQ(store.blocks_.at(9)[0], std::byte{0x5A});
  // ...and the straggling handle can read and release safely.
  EXPECT_EQ(leaked.data()[0], std::byte{0x5A});
  leaked = BlockHandle{};
#endif
}

TEST(BlockCache, ZeroCapacityWritesThrough) {
  FakeStore store(64);
  BlockCache cache(0, nullptr);
  const auto id = cache.register_store(64, store.reader(), store.writer());
  {
    auto h = cache.get(id, 7);
    h.mutable_data()[1] = std::byte{0x07};
  }
  EXPECT_EQ(store.writes_, 1);
  store.reads_ = 0;
  { auto h = cache.get(id, 7); }
  EXPECT_EQ(store.reads_, 1);  // nothing cached
}

TEST(BlockCache, FlushPersistsDirtyAndKeepsResident) {
  FakeStore store(64);
  BlockCache cache(1024, nullptr);
  const auto id = cache.register_store(64, store.reader(), store.writer());
  {
    auto h = cache.get(id, 4);
    h.mutable_data()[0] = std::byte{0x99};
  }
  cache.flush();
  EXPECT_EQ(store.blocks_.at(4)[0], std::byte{0x99});
  store.reads_ = 0;
  { auto h = cache.get(id, 4); }
  EXPECT_EQ(store.reads_, 0);
}

TEST(BlockCache, MultipleStoresAreIndependent) {
  FakeStore a(32), b(128);
  BlockCache cache(4096, nullptr);
  const auto ida = cache.register_store(32, a.reader(), a.writer());
  const auto idb = cache.register_store(128, b.reader(), b.writer());
  {
    auto ha = cache.get(ida, 0);
    auto hb = cache.get(idb, 0);
    EXPECT_EQ(ha.data().size(), 32u);
    EXPECT_EQ(hb.data().size(), 128u);
    ha.mutable_data()[0] = std::byte{1};
    hb.mutable_data()[0] = std::byte{2};
  }
  cache.flush();
  EXPECT_EQ(a.blocks_.at(0)[0], std::byte{1});
  EXPECT_EQ(b.blocks_.at(0)[0], std::byte{2});
}

TEST(BlockCache, RepinnedBlockLeavesLru) {
  FakeStore store(64);
  BlockCache cache(3 * 64, nullptr);
  const auto id = cache.register_store(64, store.reader(), store.writer());
  { auto h = cache.get(id, 1); }
  auto repinned = cache.get(id, 1);  // back out of the LRU
  { auto h = cache.get(id, 2); }
  { auto h = cache.get(id, 3); }
  { auto h = cache.get(id, 4); }  // evictions must skip pinned block 1
  store.reads_ = 0;
  repinned = BlockHandle{};  // unpin
  { auto h = cache.get(id, 1); }
  EXPECT_EQ(store.reads_, 0);
}

// ---- BlockCache frame reuse -------------------------------------------------
// A miss or a prefetch takes its frame from a stash of evicted frames,
// which still hold the bytes of the block they last held.  Every reader
// writes its whole span, so a pinned frame must hold exactly its own
// block.

std::vector<std::byte> frame_pattern(std::size_t size, std::uint64_t block) {
  std::vector<std::byte> bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::byte>((block * 167 + i * 13 + size) & 0xff);
  }
  return bytes;
}

TEST(BlockCache, ReusedFrameHoldsOnlyItsOwnBlock) {
  TempDir dir;
  constexpr std::size_t kSizes[] = {64, 256};
  constexpr std::uint64_t kBlocks = 40;
  // Blocks whose synchronous read fills the frame with junk, then throws.
  const auto throws = [](std::uint64_t block) { return block % 8 == 5; };
  std::vector<std::unique_ptr<File>> files;
  for (const std::size_t size : kSizes) {
    files.push_back(std::make_unique<File>(
        File::open(dir.path() / ("store" + std::to_string(size)))));
    for (std::uint64_t block = 0; block < kBlocks; ++block) {
      files.back()->write_at(block * size, frame_pattern(size, block));
    }
  }
  // A few blocks of each size fit.
  BlockCache cache(3 * kSizes[0] + 3 * kSizes[1]);
  std::vector<std::uint16_t> stores;
  for (std::size_t s = 0; s < 2; ++s) {
    const std::size_t size = kSizes[s];
    File* file = files[s].get();
    stores.push_back(cache.register_store(
        size,
        [=](std::uint64_t block, std::span<std::byte> out) {
          if (throws(block)) {
            std::memset(out.data(), 0xEE, out.size());
            throw StorageError("planted read failure");
          }
          file->read_at(block * size, out);
        },
        [=](std::uint64_t block, std::span<const std::byte> in) {
          file->write_at(block * size, in);
        },
        // A throwing block is never read ahead, so it always reaches the
        // synchronous reader.
        [=](std::uint64_t block) -> std::optional<AsyncTarget> {
          if (throws(block)) return std::nullopt;
          return AsyncTarget{file, block * size};
        }));
  }
  cache.enable_async_io();

  std::uint64_t rng = 0x2545F4914F6CDD1Dull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int round = 0; round < 300; ++round) {
    // Read-ahead for a few blocks of one store; later gets adopt them.
    const std::size_t ahead = next() % 2;
    std::vector<std::uint64_t> blocks;
    for (int i = 0; i < 3; ++i) blocks.push_back(next() % kBlocks);
    std::sort(blocks.begin(), blocks.end());
    blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
    cache.prefetch_async(stores[ahead], blocks);
    // Several frames pinned at once, from both stores.
    std::vector<BlockHandle> pinned;
    std::vector<std::pair<std::size_t, std::uint64_t>> pinned_blocks;
    for (int i = 0; i < 4; ++i) {
      const std::size_t s = next() % 2;
      const std::uint64_t block = next() % kBlocks;
      if (throws(block)) {
        EXPECT_THROW((void)cache.get(stores[s], block), StorageError);
        continue;
      }
      pinned.push_back(cache.get(stores[s], block));
      pinned_blocks.emplace_back(s, block);
    }
    for (std::size_t i = 0; i < pinned.size(); ++i) {
      const auto [s, block] = pinned_blocks[i];
      const auto want = frame_pattern(kSizes[s], block);
      const auto got = pinned[i].data();
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "round " << round << " store " << kSizes[s] << " block "
          << block;
    }
  }
  EXPECT_GT(cache.stashed_bytes(), 0u) << "no frame was ever reused";
}

TEST(BlockCache, FrameStashStaysBounded) {
  FakeStore small(64), large(256);
  BlockCache cache(2 * 256 + 2 * 64);
  const auto ids = cache.register_store(64, small.reader(), small.writer());
  const auto idl = cache.register_store(256, large.reader(), large.writer());
  for (std::uint64_t block = 0; block < 500; ++block) {
    {
      auto h = cache.get(ids, block);
      if (block % 3 == 0) h.mutable_data()[0] = std::byte{1};
    }
    {
      auto h = cache.get(idl, block / 2);
      if (block % 5 == 0) h.mutable_data()[0] = std::byte{2};
    }
    ASSERT_LE(cache.stashed_bytes(), 64u + 256u) << "block " << block;
  }
  EXPECT_GT(small.writes_, 0);
  EXPECT_GT(large.writes_, 0);
  EXPECT_GT(cache.stashed_bytes(), 0u);
  EXPECT_LE(cache.resident_bytes(), cache.capacity_bytes());
  // A cache that keeps nothing drops every frame on unpin: one per size.
  BlockCache off(0);
  const auto offs = off.register_store(64, small.reader(), small.writer());
  const auto offl = off.register_store(256, large.reader(), large.writer());
  for (std::uint64_t block = 0; block < 50; ++block) {
    { auto h = off.get(offs, block); }
    { auto h = off.get(offl, block); }
  }
  EXPECT_EQ(off.stashed_bytes(), 64u + 256u);
}

// ---- BlockCache 2Q (scan resistance) ---------------------------------------

TEST(BlockCache2Q, OnePassScanDoesNotEvictProtectedSet) {
  FakeStore store(64);
  BlockCache cache(8 * 64, nullptr);
  const auto id = cache.register_store(64, store.reader(), store.writer());
  // Build a re-referenced working set: blocks 1..4 touched twice each
  // land on the protected list.
  for (const std::uint64_t b : {1u, 2u, 3u, 4u}) {
    { auto h = cache.get(id, b); }
    { auto h = cache.get(id, b); }
  }
  // A one-pass scan 3x the cache size: every block is touched ONCE, so
  // the scan churns through probation only.
  for (std::uint64_t b = 100; b < 124; ++b) {
    auto h = cache.get(id, b);
  }
  // The working set survived the scan.
  store.reads_ = 0;
  for (const std::uint64_t b : {1u, 2u, 3u, 4u}) {
    auto h = cache.get(id, b);
  }
  EXPECT_EQ(store.reads_, 0) << "a single-touch scan displaced the "
                                "re-referenced working set";
}

TEST(BlockCache2Q, ProtectedListCappedAtThreeQuartersByDemotion) {
  FakeStore store(64);
  BlockCache cache(8 * 64, nullptr);  // protected cap: 6 blocks
  const auto id = cache.register_store(64, store.reader(), store.writer());
  // Re-reference 8 blocks: all want the protected list, only 3/4 of
  // capacity may stay there; the overflow demotes back to probation.
  for (std::uint64_t b = 1; b <= 8; ++b) {
    { auto h = cache.get(id, b); }
    { auto h = cache.get(id, b); }
  }
  EXPECT_LE(cache.protected_bytes(), 6 * 64u);
  EXPECT_EQ(cache.resident_bytes(), 8 * 64u);  // demoted, not evicted
}

TEST(BlockCache2Q, HitSplitReportedInIoStats) {
  FakeStore store(64);
  MetricsRegistry metrics;
  IoStats stats(metrics);
  BlockCache cache(8 * 64, &stats);
  const auto id = cache.register_store(64, store.reader(), store.writer());
  { auto h = cache.get(id, 1); }  // miss
  { auto h = cache.get(id, 1); }  // probation hit (promotes)
  { auto h = cache.get(id, 1); }  // protected hit
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_probation_hits, 1u);
  EXPECT_EQ(stats.cache_protected_hits, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);  // split sums to the total
}

TEST(BlockCache2Q, AttributionScopeSplitsHitsPerQuery) {
  FakeStore store(64);
  BlockCache cache(8 * 64, nullptr);
  const auto id = cache.register_store(64, store.reader(), store.writer());
  CacheAttribution q1;
  CacheAttribution q2;
  {
    CacheAttributionScope scope(&q1);
    { auto h = cache.get(id, 1); }  // q1 miss
    { auto h = cache.get(id, 1); }  // q1 hit
  }
  {
    CacheAttributionScope scope(&q2);
    { auto h = cache.get(id, 1); }  // q2 hit (warmed by q1)
    { auto h = cache.get(id, 2); }  // q2 miss
  }
  { auto h = cache.get(id, 3); }  // no scope: attributed to nobody
  EXPECT_EQ(q1.hits.load(), 1u);
  EXPECT_EQ(q1.misses.load(), 1u);
  EXPECT_EQ(q2.hits.load(), 1u);
  EXPECT_EQ(q2.misses.load(), 1u);
  EXPECT_DOUBLE_EQ(q1.hit_ratio(), 0.5);
}

TEST(BlockCache2Q, DemotedBlockEvictsBeforeFreshProtected) {
  FakeStore store(64);
  BlockCache cache(4 * 64, nullptr);  // protected cap: 3 blocks
  const auto id = cache.register_store(64, store.reader(), store.writer());
  // Four re-referenced blocks: 1 is the protected LRU tail and gets
  // demoted to probation when 4 promotes.
  for (std::uint64_t b = 1; b <= 4; ++b) {
    { auto h = cache.get(id, b); }
    { auto h = cache.get(id, b); }
  }
  // One cold fill forces an eviction: the demoted tail (1) must go
  // before any still-protected block.
  { auto h = cache.get(id, 9); }
  store.reads_ = 0;
  { auto h = cache.get(id, 4); }
  EXPECT_EQ(store.reads_, 0) << "a protected block was evicted";
  { auto h = cache.get(id, 1); }
  EXPECT_EQ(store.reads_, 1) << "the demoted tail should have been the victim";
}

// ---- Pager -----------------------------------------------------------------

TEST(Pager, AllocateReturnsZeroedDistinctPages) {
  TempDir dir;
  Pager pager(dir.path() / "pages.db", 512, 1 << 16);
  const PageId a = pager.allocate();
  const PageId b = pager.allocate();
  EXPECT_NE(a, b);
  EXPECT_NE(a, kInvalidPage);
  auto h = pager.pin(a);
  for (const auto byte : h.data()) EXPECT_EQ(byte, std::byte{0});
}

TEST(Pager, FreeListRecyclesPages) {
  TempDir dir;
  Pager pager(dir.path() / "pages.db", 512, 1 << 16);
  const PageId a = pager.allocate();
  pager.allocate();
  pager.free_page(a);
  EXPECT_EQ(pager.allocate(), a);
}

TEST(Pager, MetaPersistsAcrossReopen) {
  TempDir dir;
  const auto path = dir.path() / "pages.db";
  PageId page;
  {
    Pager pager(path, 512, 1 << 16);
    page = pager.allocate();
    auto h = pager.pin(page);
    h.mutable_data()[10] = std::byte{0x5A};
    pager.set_meta(0, 777);
    pager.flush();
  }
  Pager pager(path, 512, 1 << 16);
  EXPECT_EQ(pager.meta(0), 777u);
  auto h = pager.pin(page);
  EXPECT_EQ(h.data()[10], std::byte{0x5A});
}

TEST(Pager, WrongPageSizeRejected) {
  TempDir dir;
  const auto path = dir.path() / "pages.db";
  { Pager pager(path, 512, 0); }
  EXPECT_THROW(Pager(path, 1024, 0), StorageError);
}

TEST(Pager, PinHeaderOrOutOfRangeThrows) {
  TempDir dir;
  Pager pager(dir.path() / "pages.db", 512, 0);
  EXPECT_THROW(pager.pin(kInvalidPage), UsageError);
  EXPECT_THROW(pager.pin(99), UsageError);
}

// ---- Overflow chains -------------------------------------------------------

TEST(Overflow, RoundTripsLargeValue) {
  TempDir dir;
  Pager pager(dir.path() / "pages.db", 512, 1 << 16);
  std::vector<std::byte> value(5000);
  for (std::size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<std::byte>(i * 7);
  }
  const PageId head = overflow::write_chain(pager, value);
  EXPECT_EQ(overflow::read_chain(pager, head, value.size()), value);
}

TEST(Overflow, EmptyValueAllocatesOnePage) {
  TempDir dir;
  Pager pager(dir.path() / "pages.db", 512, 1 << 16);
  const PageId head = overflow::write_chain(pager, {});
  EXPECT_NE(head, kInvalidPage);
  EXPECT_TRUE(overflow::read_chain(pager, head, 0).empty());
}

TEST(Overflow, FreeReturnsPagesToPager) {
  TempDir dir;
  Pager pager(dir.path() / "pages.db", 512, 1 << 16);
  std::vector<std::byte> value(2000);
  const PageId head = overflow::write_chain(pager, value);
  const PageId before = pager.page_count();
  overflow::free_chain(pager, head);
  // Next allocations reuse the freed chain instead of growing the file.
  pager.allocate();
  pager.allocate();
  EXPECT_EQ(pager.page_count(), before);
}

}  // namespace
}  // namespace mssg
