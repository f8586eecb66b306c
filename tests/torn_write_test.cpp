// Torn-write detection and FaultInjector behavior.
//
// The deterministic half proves the checksum trailer catches EVERY
// injected torn page write (all tear boundaries, counted in
// storage.checksum_failures / checksum_torn).  The fuzz half tears
// random writes while a KVStore B+tree is splitting under load, then
// reopens: with the journal on, replay must restore the committed state
// cleanly; with it off, the reopen either throws StorageError (checksum
// detection) or reads back intact committed data — never a silent
// misread either way.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/temp_dir.hpp"
#include "storage/fault_injector.hpp"
#include "storage/file.hpp"
#include "storage/pager.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

using testing::make_db;
using testing::sorted;
using testing::tiny_graph_directed;

struct InjectorGuard {
  InjectorGuard() { FaultInjector::instance().clear(); }
  ~InjectorGuard() { FaultInjector::instance().clear(); }
};

// ---- FaultInjector ----------------------------------------------------------

TEST(FaultInjector, ParseSpecRejectsMalformed) {
  InjectorGuard guard;
  auto& inj = FaultInjector::instance();
  EXPECT_THROW(inj.parse_spec(""), UsageError);
  EXPECT_THROW(inj.parse_spec("op=write"), UsageError);       // no path
  EXPECT_THROW(inj.parse_spec("path=x,op=frobnicate"), UsageError);
  EXPECT_THROW(inj.parse_spec("path=x,kind=sideways"), UsageError);
  EXPECT_THROW(inj.parse_spec("path=x,nth=banana"), UsageError);
  EXPECT_THROW(inj.parse_spec("path=x,unknown=1"), UsageError);
  EXPECT_EQ(inj.triggered(), 0u);
}

TEST(FaultInjector, NthWriteFailsExactly) {
  InjectorGuard guard;
  TempDir dir;
  auto& inj = FaultInjector::instance();
  inj.parse_spec("path=" + (dir.path() / "data").string() +
                 ",op=write,kind=fail,nth=2");

  File file = File::open(dir.path() / "data");
  const std::vector<std::byte> block(64, std::byte{0x5A});
  file.write_at(0, block);   // nth=0: fine
  file.write_at(64, block);  // nth=1: fine
  EXPECT_THROW(file.write_at(128, block), StorageError);  // nth=2: fails
  file.write_at(128, block);  // not sticky: later writes succeed
  EXPECT_EQ(inj.triggered(), 1u);
  EXPECT_GE(inj.op_count(FaultInjector::Op::kWrite), 4u);
}

TEST(FaultInjector, ShortReadZeroFillsTail) {
  InjectorGuard guard;
  TempDir dir;
  File file = File::open(dir.path() / "data");
  const std::vector<std::byte> block(64, std::byte{0x77});
  file.write_at(0, block);

  FaultInjector::instance().parse_spec(
      "path=" + (dir.path() / "data").string() +
      ",op=read,kind=short,nth=0,bytes=16");
  std::vector<std::byte> out(64, std::byte{0xFF});
  file.read_at(0, out);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(out[i], std::byte{0x77});
  for (std::size_t i = 16; i < 64; ++i) {
    EXPECT_EQ(out[i], std::byte{0}) << "byte " << i << " not zero-filled";
  }
}

TEST(FaultInjector, KillIsStickyAcrossLaterWritesAndSyncs) {
  InjectorGuard guard;
  TempDir dir;
  File file = File::open(dir.path() / "data");
  const std::vector<std::byte> block(64, std::byte{1});
  file.write_at(0, block);

  FaultInjector::instance().parse_spec(
      "path=" + dir.path().string() + ",op=write,kind=fail,nth=0,kill");
  EXPECT_THROW(file.write_at(64, block), StorageError);
  EXPECT_THROW(file.write_at(0, block), StorageError);  // sticky
  EXPECT_THROW(file.sync(), StorageError);              // syncs fail too
  std::vector<std::byte> out(64);
  file.read_at(0, out);  // reads still work — the "disk" is intact
  EXPECT_EQ(out, block);
  EXPECT_EQ(FaultInjector::instance().triggered(), 1u);
}

TEST(FaultInjector, TornWriteLandsPrefixThenThrows) {
  InjectorGuard guard;
  TempDir dir;
  File file = File::open(dir.path() / "data");
  const std::vector<std::byte> old(64, std::byte{0xAA});
  file.write_at(0, old);

  FaultInjector::instance().parse_spec(
      "path=" + dir.path().string() + ",op=write,kind=torn,nth=0,bytes=24");
  const std::vector<std::byte> fresh(64, std::byte{0xBB});
  EXPECT_THROW(file.write_at(0, fresh), StorageError);

  std::vector<std::byte> out(64);
  file.read_at(0, out);
  for (std::size_t i = 0; i < 24; ++i) EXPECT_EQ(out[i], std::byte{0xBB});
  for (std::size_t i = 24; i < 64; ++i) EXPECT_EQ(out[i], std::byte{0xAA});
}

// ---- Deterministic torn-page detection --------------------------------------

// Tears the write-back of a modified page at `tear` bytes, then proves a
// journal-less reopen surfaces the damage via the checksum trailer (and
// counts it) instead of serving the hybrid page.
void torn_page_detected_at(std::size_t tear) {
  InjectorGuard guard;
  TempDir dir;
  const auto path = dir.path() / "pages.db";
  constexpr std::size_t kPage = 512;

  PageId page = kInvalidPage;
  {
    Pager pager(path, kPage, /*cache=*/1u << 20);
    page = pager.allocate();
    auto h = pager.pin(page);
    std::memset(h.mutable_data().data(), 0xAA, h.mutable_data().size());
    pager.flush();
  }
  {
    Pager pager(path, kPage, 1u << 20);
    {
      auto h = pager.pin(page);
      std::memset(h.mutable_data().data(), 0x55, h.mutable_data().size());
    }
    FaultInjector::instance().parse_spec(
        "path=" + path.string() + ",op=write,kind=torn,nth=0,bytes=" +
        std::to_string(tear) + ",kill");
    EXPECT_THROW(pager.flush(), StorageError);
  }
  FaultInjector::instance().clear();

  MetricsRegistry metrics;
  IoStats stats(metrics);
  bool detected = false;
  try {
    Pager pager(path, kPage, 1u << 20, &stats);
    auto h = pager.pin(page);
    // If the read got this far the page must be one of the two sealed
    // states — old or new — never a byte-mix of both.
    const std::byte b0 = h.data()[0];
    ASSERT_TRUE(b0 == std::byte{0xAA} || b0 == std::byte{0x55});
    for (const std::byte b : h.data()) EXPECT_EQ(b, b0);
  } catch (const StorageError&) {
    detected = true;
  }
  EXPECT_TRUE(detected) << "tear at " << tear << " bytes went unnoticed";
  EXPECT_GE(stats.checksum_failures, 1u) << "tear at " << tear;
  EXPECT_GE(stats.checksum_torn, 1u) << "tear at " << tear;
}

TEST(TornWrite, ChecksumDetectsEveryTearBoundary) {
  // Mid-sector, sector-aligned, just-inside-trailer, mid-trailer tears.
  for (const std::size_t tear :
       {1u, 8u, 100u, 255u, 256u, 300u, 495u, 496u, 500u, 511u}) {
    torn_page_detected_at(tear);
  }
}

// Tears the k-th write under the directory (data file, undo log, and
// redo log alike — whichever the k-th one hits), for every k until one
// run completes untouched.  A journaled reopen must never throw, and the
// page must read back as exactly one of the two committed states.
TEST(TornWrite, JournaledPagerReplaysAtEveryTearPoint) {
  InjectorGuard guard;
  TempDir dir;
  const auto path = dir.path() / "pages.db";
  constexpr std::size_t kPage = 512;

  PageId page = kInvalidPage;
  {
    Pager pager(path, kPage, 1u << 20, nullptr, false, /*journal=*/true);
    page = pager.allocate();
    auto h = pager.pin(page);
    std::memset(h.mutable_data().data(), 0xAA, h.mutable_data().size());
    pager.flush();
  }

  bool reached_end = false;
  for (std::uint64_t k = 0; k < 64; ++k) {
    FaultInjector::instance().clear();
    FaultInjector::instance().parse_spec(
        "path=" + dir.path().string() +
        ",op=write,kind=torn,nth=" + std::to_string(k) + ",bytes=100,kill");
    try {
      Pager pager(path, kPage, 1u << 20, nullptr, false, true);
      auto h = pager.pin(page);
      std::memset(h.mutable_data().data(), 0x55, h.mutable_data().size());
      h = BlockHandle();  // unpin before flush
      pager.flush();
    } catch (const StorageError&) {
    }
    const bool fired = FaultInjector::instance().triggered() > 0;
    FaultInjector::instance().clear();

    Pager pager(path, kPage, 1u << 20, nullptr, false, true);  // no throw
    auto h = pager.pin(page);
    const std::byte b0 = h.data()[0];
    // Replay lands one committed state: all-old or all-new, bit-exact.
    ASSERT_TRUE(b0 == std::byte{0xAA} || b0 == std::byte{0x55})
        << "tear point " << k;
    for (const std::byte b : h.data()) EXPECT_EQ(b, b0) << "tear point " << k;
    if (!fired) {
      reached_end = true;
      break;
    }
  }
  EXPECT_TRUE(reached_end);
}

// ---- Fuzz: torn writes under B+tree split load ------------------------------

// One fuzz round: commit a baseline, then run a second epoch that drives
// B+tree splits while a randomly placed torn write (sticky) cuts it
// short.  Reopen with the journal on: replay must succeed and the
// baseline must read back intact.
void fuzz_round(std::uint64_t seed, bool journal) {
  InjectorGuard guard;
  Rng rng(seed);
  TempDir dir;
  GraphDBConfig config;
  config.cache_bytes = 32u << 10;  // tiny cache: mid-epoch evictions
  config.async_io = false;
  config.journal = journal;

  {
    auto db = make_db(Backend::kKVStore, dir, config);
    db->store_edges(tiny_graph_directed());
    db->flush();
  }

  {
    FaultInjector::Rule rule;
    rule.path_substring = dir.path().string();
    rule.op = FaultInjector::Op::kWrite;
    rule.kind = FaultInjector::Kind::kTorn;
    rule.nth = rng.below(200);
    rule.tear_bytes = rng.below(4096);
    rule.kill = true;
    FaultInjector::instance().add_rule(rule);

    try {
      auto db = make_db(Backend::kKVStore, dir, config);
      // Enough distinct keys to split leaves several times.
      std::vector<Edge> edges;
      for (VertexId v = 100; v < 700; ++v) {
        edges.push_back({v, v + 1});
        edges.push_back({v + 1, v});
      }
      db->store_edges(edges);
      db->flush();
    } catch (const StorageError&) {
    }
  }
  FaultInjector::instance().clear();

  try {
    auto db = make_db(Backend::kKVStore, dir, config);
    // Reopen succeeded: whatever state replay produced must contain the
    // committed baseline, bit-exact.
    std::vector<VertexId> out;
    db->get_adjacency(0, out);
    EXPECT_EQ(sorted(out), (std::vector<VertexId>{1, 3})) << "seed " << seed;
    // And every reachable adjacency list must parse — scanning the whole
    // store cannot hit a silently-misread page.
    db->for_each_vertex([&](VertexId v) {
      out.clear();
      db->get_adjacency(v, out);
      return true;
    });
  } catch (const StorageError&) {
    // Only acceptable without a journal: the checksum refused the torn
    // page loudly.  With the journal, replay must always succeed.
    EXPECT_FALSE(journal) << "journaled reopen threw for seed " << seed;
  }
}

TEST(TornWrite, FuzzBtreeSplitsWithJournalReplayCleanly) {
  std::uint64_t sm = 0xC0FFEE;
  for (int round = 0; round < 8; ++round) fuzz_round(splitmix64(sm), true);
}

TEST(TornWrite, FuzzBtreeSplitsWithoutJournalDetectOrSurvive) {
  std::uint64_t sm = 0xDECAF;
  for (int round = 0; round < 8; ++round) fuzz_round(splitmix64(sm), false);
}

}  // namespace
}  // namespace mssg
