// grDB-specific tests: address arithmetic, pointer tagging, chain growth
// across levels, link vs copy-up, defragmentation, persistence, bit rot
// in a level file, and a seeded mutation suite over grdb.meta
// (GrdbMetaFuzz, the `fuzz` ctest label).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>
#include <optional>
#include <random>
#include <set>

#include "common/error.hpp"
#include "common/serial.hpp"
#include "common/temp_dir.hpp"
#include "graphdb/grdb/format.hpp"
#include "graphdb/grdb/grdb.hpp"
#include "graphdb/metadata_store.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

using testing::copy_store;
using testing::read_file;
using testing::write_file;

// ---- Format / addressing ---------------------------------------------------

TEST(GrdbFormat, StandardGeometryMatchesThesis) {
  const auto geo = grdb::Geometry::standard();
  ASSERT_EQ(geo.level_count(), 6);
  const std::uint64_t d[] = {2, 4, 16, 256, 4096, 16384};
  const std::uint64_t B[] = {4096, 4096, 4096, 4096, 32768, 262144};
  for (int l = 0; l < 6; ++l) {
    EXPECT_EQ(geo.levels[l].entries_per_subblock, d[l]);
    EXPECT_EQ(geo.levels[l].block_bytes, B[l]);
  }
  EXPECT_EQ(geo.max_file_bytes, 256u << 20);
  // k_l = B_l / (b * d_l)
  EXPECT_EQ(geo.levels[0].subblocks_per_block(), 256u);
  EXPECT_EQ(geo.levels[3].subblocks_per_block(), 2u);
  EXPECT_EQ(geo.levels[4].subblocks_per_block(), 1u);
}

TEST(GrdbFormat, LocateImplementsThesisFormula) {
  grdb::Geometry geo;
  geo.levels = {grdb::LevelSpec{2, 64}};  // d=2, b*d=16, k=4
  geo.max_file_bytes = 128;               // N = 2 blocks per file
  geo.validate();

  // Sub-block 0: block 0, file 0, offset 0.
  auto a = grdb::locate(geo, 0, 0);
  EXPECT_EQ(a.block, 0u);
  EXPECT_EQ(a.file, 0u);
  EXPECT_EQ(a.file_offset, 0u);
  EXPECT_EQ(a.block_offset, 0u);

  // Sub-block 5: block 1 (5/4), file 0, file offset 64, block offset 16.
  a = grdb::locate(geo, 0, 5);
  EXPECT_EQ(a.block, 1u);
  EXPECT_EQ(a.file, 0u);
  EXPECT_EQ(a.file_offset, 64u);
  EXPECT_EQ(a.block_offset, 16u);

  // Sub-block 9: block 2, file 1 (2/2), file offset 0, block offset 16.
  a = grdb::locate(geo, 0, 9);
  EXPECT_EQ(a.block, 2u);
  EXPECT_EQ(a.file, 1u);
  EXPECT_EQ(a.file_offset, 0u);
  EXPECT_EQ(a.block_offset, 16u);
}

TEST(GrdbFormat, EntryTagging) {
  EXPECT_EQ(grdb::classify(grdb::make_vertex_entry(0)),
            grdb::EntryKind::kVertex);
  EXPECT_EQ(grdb::classify(grdb::make_vertex_entry(kMaxVertexId)),
            grdb::EntryKind::kVertex);
  EXPECT_EQ(grdb::classify(grdb::kEmptySlot), grdb::EntryKind::kEmpty);

  const auto ptr = grdb::make_pointer_entry(3, 12345);
  EXPECT_EQ(grdb::classify(ptr), grdb::EntryKind::kPointer);
  EXPECT_EQ(grdb::pointer_level(ptr), 3);
  EXPECT_EQ(grdb::pointer_subblock(ptr), 12345u);
}

TEST(GrdbFormat, VertexIdAboveLimitRejected) {
  EXPECT_THROW(grdb::make_vertex_entry(kMaxVertexId + 1), UsageError);
}

TEST(GrdbFormat, GeometryValidation) {
  grdb::Geometry geo;
  geo.levels = {grdb::LevelSpec{2, 64}, grdb::LevelSpec{3, 64}};
  geo.max_file_bytes = 128;
  EXPECT_THROW(geo.validate(), UsageError);  // d1 < 2*d0

  geo.levels = {grdb::LevelSpec{2, 60}};  // block not multiple of sub-block
  EXPECT_THROW(geo.validate(), UsageError);

  geo.levels = {grdb::LevelSpec{2, 64}};
  geo.max_file_bytes = 100;  // file not multiple of block
  EXPECT_THROW(geo.validate(), UsageError);
}

// ---- GrDB behaviour --------------------------------------------------------

/// Small geometry so tests cross levels quickly: d = 2,4,8; tiny files.
GrDBOptions small_options(GrDBGrowth growth = GrDBGrowth::kLink) {
  GrDBOptions options;
  options.geometry.levels = {grdb::LevelSpec{2, 64}, grdb::LevelSpec{4, 64},
                             grdb::LevelSpec{8, 64}};
  options.geometry.max_file_bytes = 1024;
  options.growth = growth;
  return options;
}

std::unique_ptr<GrDB> make_grdb(const TempDir& dir, GrDBOptions options,
                                std::size_t cache_bytes = 1 << 16) {
  GraphDBConfig config;
  config.dir = dir.path();
  config.cache_bytes = cache_bytes;
  std::filesystem::create_directories(config.dir);
  return std::make_unique<GrDB>(config, std::move(options));
}

std::vector<Edge> star_edges(VertexId center, std::uint64_t degree) {
  std::vector<Edge> edges;
  for (std::uint64_t i = 1; i <= degree; ++i) {
    edges.push_back({center, center + i});
  }
  return edges;
}

TEST(Grdb, LowDegreeStaysAtLevelZero) {
  TempDir dir;
  auto db = make_grdb(dir, small_options());
  db->store_edges(star_edges(5, 2));  // d0 = 2, exactly fits
  const auto chain = db->chain_of(5);
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0], (std::pair<int, std::uint64_t>{0, 5}));
  std::vector<VertexId> out;
  db->get_adjacency(5, out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Grdb, OverflowAllocatesNextLevelAndDisplacesLastEntry) {
  TempDir dir;
  auto db = make_grdb(dir, small_options());
  db->store_edges(star_edges(5, 3));  // one beyond d0
  const auto chain = db->chain_of(5);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].first, 0);
  EXPECT_EQ(chain[1].first, 1);
  std::vector<VertexId> out;
  db->get_adjacency(5, out);
  EXPECT_EQ(out.size(), 3u);  // nothing lost in the displacement
}

TEST(Grdb, ChainReachesMaxLevelAndExtendsSideways) {
  TempDir dir;
  auto db = make_grdb(dir, small_options());
  db->store_edges(star_edges(1, 100));  // far beyond 2+4+8
  const auto chain = db->chain_of(1);
  ASSERT_GE(chain.size(), 4u);
  EXPECT_EQ(chain[0].first, 0);
  EXPECT_EQ(chain[1].first, 1);
  EXPECT_EQ(chain[2].first, 2);
  for (std::size_t i = 3; i < chain.size(); ++i) {
    EXPECT_EQ(chain[i].first, 2);  // repeats at the last level
  }
  std::vector<VertexId> out;
  db->get_adjacency(1, out);
  EXPECT_EQ(out.size(), 100u);
}

TEST(Grdb, IncrementalSmallAppendsFragmentInLinkMode) {
  TempDir dir;
  auto db = make_grdb(dir, small_options(GrDBGrowth::kLink));
  // One neighbor at a time: the thesis' fragmenting ingest pattern.
  for (std::uint64_t i = 1; i <= 20; ++i) {
    db->store_edges(std::vector<Edge>{{7, 7 + i}});
  }
  std::vector<VertexId> out;
  db->get_adjacency(7, out);
  ASSERT_EQ(out.size(), 20u);
  std::sort(out.begin(), out.end());
  for (std::uint64_t i = 1; i <= 20; ++i) EXPECT_EQ(out[i - 1], 7 + i);
}

TEST(Grdb, CopyUpProducesCompactChains) {
  TempDir dir_link, dir_copy;
  auto link_db = make_grdb(dir_link, small_options(GrDBGrowth::kLink));
  auto copy_db = make_grdb(dir_copy, small_options(GrDBGrowth::kCopyUp));
  for (std::uint64_t i = 1; i <= 13; ++i) {
    link_db->store_edges(std::vector<Edge>{{3, 3 + i}});
    copy_db->store_edges(std::vector<Edge>{{3, 3 + i}});
  }
  // Identical data...
  std::vector<VertexId> a, b;
  link_db->get_adjacency(3, a);
  copy_db->get_adjacency(3, b);
  EXPECT_EQ(testing::batch_lists(*link_db, std::vector<VertexId>{3}),
            std::vector<std::vector<VertexId>>{a});
  EXPECT_EQ(testing::batch_lists(*copy_db, std::vector<VertexId>{3}),
            std::vector<std::vector<VertexId>>{b});
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  // ...but the copy-up chain is no longer than the link chain.
  EXPECT_LE(copy_db->chain_of(3).size(), link_db->chain_of(3).size());
  // 13 = 1 (level0 kept) + spill: copy-up should be 0 -> 1 -> 2 at most.
  EXPECT_LE(copy_db->chain_of(3).size(), 3u);
}

TEST(Grdb, DefragmentCompactsAndPreservesData) {
  TempDir dir;
  auto db = make_grdb(dir, small_options(GrDBGrowth::kLink));
  for (std::uint64_t i = 1; i <= 13; ++i) {
    db->store_edges(std::vector<Edge>{{3, 100 + i}});
  }
  const auto before = db->chain_of(3).size();
  std::vector<VertexId> expected;
  db->get_adjacency(3, expected);
  std::sort(expected.begin(), expected.end());

  const auto rewritten = db->defragment();
  EXPECT_GE(rewritten, 1u);
  EXPECT_LT(db->chain_of(3).size(), before);

  std::vector<VertexId> after;
  db->get_adjacency(3, after);
  EXPECT_EQ(testing::batch_lists(*db, std::vector<VertexId>{3}),
            std::vector<std::vector<VertexId>>{after});
  std::sort(after.begin(), after.end());
  EXPECT_EQ(after, expected);
}

TEST(Grdb, DefragmentIsIdempotent) {
  TempDir dir;
  auto db = make_grdb(dir, small_options(GrDBGrowth::kLink));
  for (std::uint64_t i = 1; i <= 30; ++i) {
    db->store_edges(std::vector<Edge>{{2, 200 + i}});
  }
  db->defragment();
  EXPECT_EQ(db->defragment(), 0u);  // already optimal
}

TEST(Grdb, DefragmentRecyclesSubblocks) {
  TempDir dir;
  auto db = make_grdb(dir, small_options(GrDBGrowth::kLink));
  for (std::uint64_t i = 1; i <= 13; ++i) {
    db->store_edges(std::vector<Edge>{{3, 100 + i}});
  }
  const auto allocated_before = db->allocated_subblocks(1);
  db->defragment();
  // New growth reuses freed sub-blocks instead of extending level 1.
  for (std::uint64_t i = 1; i <= 3; ++i) {
    db->store_edges(std::vector<Edge>{{50 + i, 1}, {50 + i, 2}, {50 + i, 3}});
  }
  // One freed level-1 sub-block is recycled; only the two extra vertices
  // need fresh allocations.
  EXPECT_LE(db->allocated_subblocks(1), allocated_before + 2);
}

TEST(Grdb, AppendAfterDefragmentKeepsWorking) {
  TempDir dir;
  auto db = make_grdb(dir, small_options(GrDBGrowth::kLink));
  for (std::uint64_t i = 1; i <= 13; ++i) {
    db->store_edges(std::vector<Edge>{{3, 100 + i}});
  }
  db->defragment();
  db->store_edges(star_edges(3, 0));  // no-op
  for (std::uint64_t i = 14; i <= 40; ++i) {
    db->store_edges(std::vector<Edge>{{3, 100 + i}});
  }
  std::vector<VertexId> out;
  db->get_adjacency(3, out);
  EXPECT_EQ(out.size(), 40u);
}

TEST(Grdb, PersistsAcrossReopenWithSmallGeometry) {
  TempDir dir;
  {
    auto db = make_grdb(dir, small_options());
    db->store_edges(star_edges(9, 25));
    db->flush();
  }
  auto db = make_grdb(dir, small_options());
  std::vector<VertexId> out;
  db->get_adjacency(9, out);
  EXPECT_EQ(out.size(), 25u);
}

TEST(Grdb, GeometryMismatchOnReopenRejected) {
  TempDir dir;
  {
    auto db = make_grdb(dir, small_options());
    db->store_edges(star_edges(1, 5));
    db->flush();
  }
  GrDBOptions other;
  other.geometry.levels = {grdb::LevelSpec{2, 64}, grdb::LevelSpec{4, 64}};
  other.geometry.max_file_bytes = 1024;
  EXPECT_THROW(make_grdb(dir, std::move(other)), StorageError);
}

TEST(Grdb, MultipleFilesPerLevel) {
  TempDir dir;
  // max_file_bytes 1024, level-0 blocks 64 B => 16 blocks/file; vertices
  // spread far apart force several level-0 files.
  {
    auto db = make_grdb(dir, small_options());
    std::vector<Edge> edges;
    for (VertexId v = 0; v < 2000; v += 100) edges.push_back({v, v + 1});
    db->store_edges(edges);
    db->flush();
  }
  // Counted after the close's checkpoint: a flush may be an edge-log
  // commit, which leaves the blocks in the cache.
  int level0_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    if (entry.path().filename().string().starts_with("level0.")) {
      ++level0_files;
    }
  }
  EXPECT_GT(level0_files, 1);
  auto db = make_grdb(dir, small_options());
  std::vector<VertexId> out;
  db->get_adjacency(1900, out);
  EXPECT_EQ(out, (std::vector<VertexId>{1901}));
}

TEST(Grdb, VertexZeroNeighborZeroAreValid) {
  // Entry value 0 must read back as vertex 0, not as an empty slot.
  TempDir dir;
  auto db = make_grdb(dir, small_options());
  db->store_edges(std::vector<Edge>{{1, 0}, {0, 1}});
  std::vector<VertexId> out;
  db->get_adjacency(1, out);
  EXPECT_EQ(out, (std::vector<VertexId>{0}));
  out.clear();
  db->get_adjacency(0, out);
  EXPECT_EQ(out, (std::vector<VertexId>{1}));
}

TEST(Grdb, StandardGeometryHubCrossesAllLevels) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  config.cache_bytes = 4u << 20;
  std::filesystem::create_directories(config.dir);
  GrDB db(config, GrDBOptions{});
  // Degree 20000: the link chain holds 1+3+15+255+4095 = 4369 entries in
  // levels 0-4 and the remaining 15631 fit one level-5 sub-block.
  std::vector<Edge> edges;
  for (VertexId i = 1; i <= 20'000; ++i) edges.push_back({0, i});
  db.store_edges(edges);
  const auto chain = db.chain_of(0);
  ASSERT_EQ(chain.size(), 6u);
  for (int l = 0; l < 6; ++l) EXPECT_EQ(chain[l].first, l);
  std::vector<VertexId> out;
  db.get_adjacency(0, out);
  EXPECT_EQ(out.size(), 20'000u);
  // The staged walk reads the hub next to a leaf (no out-edges) in its
  // level-0 block: one stage per level, the same list.
  EXPECT_EQ(testing::batch_lists(db, std::vector<VertexId>{1, 0}),
            (std::vector<std::vector<VertexId>>{{}, out}));
}

TEST(Grdb, SourcePastLevelZeroAddressSpaceRejected) {
  TempDir dir;
  auto db = make_grdb(dir, GrDBOptions{});
  // Standard geometry: 256 level-0 sub-blocks per block, so vertex 2^56
  // would sit in block 2^48, one past the 48-bit cache key.
  const VertexId past = VertexId{1} << 56;
  try {
    db->store_edges(std::vector<Edge>{{1, 2}, {past, 1}, {3, 4}});
    ADD_FAILURE() << "store_edges accepted source 2^56";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("level-0 address space"),
              std::string::npos)
        << e.what();
  }
  // Nothing of the batch was stored.
  EXPECT_EQ(db->allocated_subblocks(0), 0u);
  const std::vector<VertexId> probe{1, 3, past, past - 1, kMaxVertexId};
  for (const auto& list : testing::batch_lists(*db, probe)) {
    EXPECT_TRUE(list.empty());
  }
  // A destination may be any id.
  db->store_edges(std::vector<Edge>{{1, kMaxVertexId}});
  EXPECT_EQ(testing::batch_lists(*db, probe),
            (std::vector<std::vector<VertexId>>{
                {kMaxVertexId}, {}, {}, {}, {}}));
  std::vector<VertexId> out;
  db->get_adjacency(past, out);
  db->get_adjacency(kMaxVertexId, out);
  EXPECT_TRUE(out.empty());
}

// Bit rot planted in a level file behind grDB's back fails the block's
// sidecar CRC32C when a sweep loads it through the cache: a StorageError,
// counted in storage.checksum_failures.
TEST(Grdb, BitRotFailsTheSidecarChecksumOnASweep) {
  TempDir dir;
  {
    auto db = make_grdb(dir, small_options());
    db->store_edges(std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {0, 4}});
    db->flush();
  }
  auto level0 = read_file(dir.path() / "level0.0.dat");
  ASSERT_GT(level0.size(), 8u);
  level0[8] ^= std::byte{0x40};  // one bit inside vertex 0's sub-block
  write_file(dir.path() / "level0.0.dat", level0);

  auto db = make_grdb(dir, small_options());
  try {
    db->for_each_vertex([](VertexId) { return true; });
    FAIL() << "bit rot not detected";
  } catch (const StorageError& e) {
    EXPECT_NE(std::string(e.what()).find("sidecar checksum"),
              std::string::npos)
        << e.what();
  }
  EXPECT_GE(db->metrics().counter("storage.checksum_failures"), 1u);
}

// ---- GrdbMetaFuzz ----------------------------------------------------------
//
// grdb.meta carries no CRC, so every byte of it reaches decode_meta.  A
// closed store is copied, its meta truncated, bit-flipped or overwritten,
// and reopened.  Each reopen must end in a typed error (StorageError or
// FormatError), or in a store whose sweep and reads finish -- never UB,
// an abort or a hang.  The fields decode_meta bounds (max_vertex, each
// level's alloc and free list) must be rejected exactly when they leave
// their extent.  MSSG_FUZZ_SEED picks the seed.

std::uint64_t meta_fuzz_seed() {
  if (const char* env = std::getenv("MSSG_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20261020;
}

/// Where each field of a grdb.meta image sits (the order of
/// GrDB::encode_meta), and the values the bounds depend on.
struct MetaLayout {
  static constexpr std::size_t kGeneration = 8;
  static constexpr std::size_t kMaxFileBytes = 16;
  static constexpr std::size_t kMaxVertex = 24;
  static constexpr std::size_t kLevelCount = 32;

  struct Level {
    std::size_t spec = 0;   ///< entries_per_subblock, then block_bytes
    std::size_t alloc = 0;  ///< u64
    std::uint64_t alloc_value = 0;
    std::size_t free_entries = 0;  ///< first entry, after the length varint
    std::vector<std::uint64_t> free_list;
    std::uint64_t extent = 0;  ///< initialized blocks
    std::size_t crc_table = 0;  ///< the CRC table's length varint
  };

  explicit MetaLayout(std::span<const std::byte> meta) {
    ByteReader reader(meta);
    const auto at = [&] { return meta.size() - reader.remaining(); };
    for (int i = 0; i < 3; ++i) reader.get_u64();  // magic .. file size
    max_vertex = reader.get_u64();
    const std::uint32_t count = reader.get_u32();
    for (std::uint32_t l = 0; l < count; ++l) {
      Level level;
      level.spec = at();
      reader.get_u64();
      reader.get_u64();
      level.alloc = at();
      level.alloc_value = reader.get_u64();
      level.free_list = reader.get_vector<std::uint64_t>();
      level.free_entries = at() - 8 * level.free_list.size();
      level.extent = reader.get_varint();
      reader.get_vector<std::uint8_t>();
      level.crc_table = at();
      reader.get_vector<std::uint32_t>();
      levels.push_back(std::move(level));
    }
  }

  VertexId max_vertex = 0;
  std::vector<Level> levels;
};

class GrdbMetaFuzz : public ::testing::Test {
 protected:
  enum class Outcome {
    kOk,          ///< opened; the sweep and every read finished
    kRejected,    ///< the open threw StorageError or FormatError
    kReadError,   ///< opened; a read threw StorageError or FormatError
    kUntyped,     ///< any other exception (reported as a failure)
  };

  static GraphDBConfig config(const TempDir& dir) {
    GraphDBConfig config;
    config.dir = dir.path();
    config.cache_bytes = 1 << 16;
    config.async_io = false;
    return config;
  }

  static void SetUpTestSuite() {
    base_ = std::make_unique<TempDir>();
    {
      GrDB db(config(*base_), small_options());
      // A hub whose chain crosses every level, a shorter chain, and a few
      // level-0 vertices; defragment recycles sub-blocks, so the free
      // lists are not empty.
      db.store_edges(star_edges(5, 25));
      db.store_edges(star_edges(40, 6));
      db.store_edges(std::vector<Edge>{{2, 7}, {9, 1}, {9, 4}, {17, 3}});
      db.defragment();
      db.flush();
      hub_chain_ = db.chain_of(5);
    }
    meta_ = read_file(base_->path() / "grdb.meta");
  }
  static void TearDownTestSuite() { base_.reset(); }

  void SetUp() override {
    const MetaLayout layout(meta_);
    ASSERT_EQ(layout.max_vertex, 40u);
    ASSERT_EQ(layout.levels.size(), 3u);
    std::size_t free_entries = 0;
    for (const auto& level : layout.levels) {
      free_entries += level.free_list.size();
    }
    ASSERT_GT(free_entries, 0u) << "the base store recycled no sub-block";
  }

  /// Reopens a copy of the base store carrying `meta`, then sweeps it and
  /// reads every vertex the sweep visits.  `tamper`, when given, edits
  /// the copy's directory before the open.
  static Outcome reopen(
      const std::vector<std::byte>& meta,
      const std::function<void(const std::filesystem::path&)>& tamper = {}) {
    TempDir work;
    copy_store(base_->path(), work.path());
    write_file(work.path() / "grdb.meta", meta);
    if (tamper) tamper(work.path());
    std::unique_ptr<GrDB> db;
    try {
      db = std::make_unique<GrDB>(config(work), small_options());
    } catch (const StorageError&) {
      return Outcome::kRejected;
    } catch (const FormatError&) {
      return Outcome::kRejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "the open threw an untyped error: " << e.what();
      return Outcome::kUntyped;
    }
    try {
      std::vector<VertexId> vertices;
      db->for_each_vertex([&vertices](VertexId v) {
        vertices.push_back(v);
        return true;
      });
      std::vector<VertexId> out;
      for (const VertexId v : vertices) {
        out.clear();
        db->get_adjacency(v, out);
      }
      return Outcome::kOk;
    } catch (const StorageError&) {
      return Outcome::kReadError;
    } catch (const FormatError&) {
      return Outcome::kReadError;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "a read threw an untyped error: " << e.what();
      return Outcome::kUntyped;
    }
  }

  static std::vector<std::byte> with_u64(std::size_t offset,
                                         std::uint64_t value) {
    auto meta = meta_;
    std::memcpy(meta.data() + offset, &value, 8);
    return meta;
  }

  /// Offsets of the u64 fields decode_meta bounds: max_vertex, and each
  /// level's alloc and free entries.
  static std::vector<std::size_t> bounded_fields(const MetaLayout& layout) {
    std::vector<std::size_t> fields{MetaLayout::kMaxVertex};
    for (const auto& level : layout.levels) {
      fields.push_back(level.alloc);
      for (std::size_t i = 0; i < level.free_list.size(); ++i) {
        fields.push_back(level.free_entries + 8 * i);
      }
    }
    return fields;
  }

  /// What a reopen must end in once the bounded field at `offset` holds
  /// `value` and the rest of the meta is the base's.
  static Outcome bound_for(std::size_t offset, std::uint64_t value) {
    const MetaLayout layout(meta_);
    const auto ok_unless = [](bool bad) {
      return bad ? Outcome::kRejected : Outcome::kOk;
    };
    if (offset == MetaLayout::kMaxVertex) {
      const std::uint64_t k0 =
          small_options().geometry.levels[0].subblocks_per_block();
      return ok_unless(value != 0 && value / k0 >= layout.levels[0].extent);
    }
    for (std::size_t l = 0; l < layout.levels.size(); ++l) {
      const MetaLayout::Level& level = layout.levels[l];
      if (offset == level.alloc) {
        const std::uint64_t per_block =
            small_options().geometry.levels[l].subblocks_per_block();
        bool bad = value / per_block + (value % per_block != 0 ? 1 : 0) >
                   level.extent;
        for (const std::uint64_t entry : level.free_list) {
          bad = bad || entry >= value;
        }
        return ok_unless(bad);
      }
      if (offset >= level.free_entries &&
          offset < level.free_entries + 8 * level.free_list.size()) {
        return ok_unless(value >= level.alloc_value);
      }
    }
    ADD_FAILURE() << "no bound speaks about offset " << offset;
    return Outcome::kUntyped;
  }

  static inline std::unique_ptr<TempDir> base_;
  static inline std::vector<std::byte> meta_;
  /// The (level, sub-block) chain of the hub, vertex 5.
  static inline std::vector<std::pair<int, std::uint64_t>> hub_chain_;
};

TEST_F(GrdbMetaFuzz, UnmutatedMetaReopensWhole) {
  TempDir work;
  copy_store(base_->path(), work.path());
  GrDB db(config(work), small_options());
  std::vector<VertexId> vertices;
  db.for_each_vertex([&vertices](VertexId v) {
    vertices.push_back(v);
    return true;
  });
  EXPECT_EQ(vertices, (std::vector<VertexId>{2, 5, 9, 17, 40}));
  std::vector<VertexId> out;
  db.get_adjacency(5, out);
  EXPECT_EQ(out.size(), 25u);
  out.clear();
  db.get_adjacency(40, out);
  EXPECT_EQ(out.size(), 6u);
  EXPECT_TRUE(db.verify().ok());
}

TEST_F(GrdbMetaFuzz, TruncationAtEveryByteIsRejected) {
  for (std::size_t size = 0; size < meta_.size(); ++size) {
    const std::vector<std::byte> cut(meta_.begin(),
                                     meta_.begin() + static_cast<long>(size));
    EXPECT_EQ(reopen(cut), Outcome::kRejected) << "truncated at " << size;
  }
}

TEST_F(GrdbMetaFuzz, FlippedBitsInEveryFieldEndTypedOrFinish) {
  const MetaLayout layout(meta_);
  // Fields that must match the store's geometry exactly: the magic, the
  // file size, the level count and every level's spec.
  std::set<std::size_t> geometry{0, 1, 2, 3, 4, 5, 6, 7};
  for (std::size_t b = 0; b < 8; ++b) {
    geometry.insert(MetaLayout::kMaxFileBytes + b);
  }
  for (std::size_t b = 0; b < 4; ++b) {
    geometry.insert(MetaLayout::kLevelCount + b);
  }
  for (const auto& level : layout.levels) {
    for (std::size_t b = 0; b < 16; ++b) geometry.insert(level.spec + b);
  }
  const std::vector<std::size_t> bounded = bounded_fields(layout);
  for (std::size_t pos = 0; pos < meta_.size(); ++pos) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      auto meta = meta_;
      meta[pos] ^= std::byte(1u << bit);
      const Outcome got = reopen(meta);
      std::optional<Outcome> want;
      for (const std::size_t field : bounded) {
        if (field <= pos && pos < field + 8) {
          std::uint64_t value = 0;
          std::memcpy(&value, meta.data() + field, 8);
          want = bound_for(field, value);
        }
      }
      if (geometry.contains(pos)) {
        EXPECT_EQ(got, Outcome::kRejected) << "byte " << pos << " bit " << bit;
      } else if (pos >= MetaLayout::kGeneration &&
                 pos < MetaLayout::kGeneration + 8) {
        // The generation only decides which edge-log records replay, and
        // the closed store's log holds none.
        EXPECT_EQ(got, Outcome::kOk) << "generation bit " << bit;
      } else if (want) {
        EXPECT_EQ(got, *want) << "byte " << pos << " bit " << bit;
      } else {
        EXPECT_NE(got, Outcome::kUntyped) << "byte " << pos << " bit " << bit;
      }
    }
  }
}

TEST_F(GrdbMetaFuzz, MaxVertexPastTheLevelZeroExtentIsRejected) {
  const MetaLayout layout(meta_);
  const std::uint64_t k0 =
      small_options().geometry.levels[0].subblocks_per_block();
  const std::uint64_t first_past = layout.levels[0].extent * k0;
  EXPECT_EQ(reopen(with_u64(MetaLayout::kMaxVertex, first_past - 1)),
            Outcome::kOk);
  // A sweep to one of these never finished before decode_meta bounded it.
  for (const std::uint64_t past :
       {first_past, std::uint64_t{1} << 40, std::uint64_t{1} << 62,
        ~std::uint64_t{0}}) {
    EXPECT_EQ(reopen(with_u64(MetaLayout::kMaxVertex, past)),
              Outcome::kRejected)
        << "max_vertex " << past;
  }
}

TEST_F(GrdbMetaFuzz, AllocPastItsExtentOrFreeEntryPastAllocIsRejected) {
  const MetaLayout layout(meta_);
  for (std::size_t l = 1; l < layout.levels.size(); ++l) {
    const MetaLayout::Level& level = layout.levels[l];
    const std::uint64_t per_block =
        small_options().geometry.levels[l].subblocks_per_block();
    const std::uint64_t last = level.extent * per_block;
    EXPECT_EQ(reopen(with_u64(level.alloc, last)), Outcome::kOk) << l;
    EXPECT_EQ(reopen(with_u64(level.alloc, last + 1)), Outcome::kRejected)
        << l;
    EXPECT_EQ(reopen(with_u64(level.alloc, ~std::uint64_t{0})),
              Outcome::kRejected)
        << l;
    for (std::size_t i = 0; i < level.free_list.size(); ++i) {
      const std::size_t at = level.free_entries + 8 * i;
      EXPECT_EQ(reopen(with_u64(at, level.alloc_value - 1)), Outcome::kOk);
      EXPECT_EQ(reopen(with_u64(at, level.alloc_value)), Outcome::kRejected)
          << "level " << l << " free entry " << i;
    }
  }
}

TEST_F(GrdbMetaFuzz, CrcTableShorterThanItsBitmapIsRejected) {
  const MetaLayout layout(meta_);
  const int last = static_cast<int>(layout.levels.size()) - 1;
  // The last level's CRC table cut to zero entries: a length varint of 0
  // and nothing after it.
  std::vector<std::byte> meta(
      meta_.begin(),
      meta_.begin() + static_cast<long>(layout.levels[last].crc_table));
  meta.push_back(std::byte{0});
  // One flipped bit in the first entry of a last-level sub-block of the
  // hub's chain: with no CRC to check it, a reopened store would return
  // a wrong neighbour and count no checksum failure.
  const auto hop = std::find_if(
      hub_chain_.begin(), hub_chain_.end(),
      [last](const auto& link) { return link.first == last; });
  ASSERT_NE(hop, hub_chain_.end()) << "the hub's chain misses the last level";
  const grdb::SubblockAddress addr =
      grdb::locate(small_options().geometry, last, hop->second);
  const auto flip = [&](const std::filesystem::path& dir) {
    const auto file = dir / ("level" + std::to_string(last) + "." +
                             std::to_string(addr.file) + ".dat");
    auto bytes = read_file(file);
    ASSERT_GT(bytes.size(), addr.file_offset + addr.block_offset);
    bytes[addr.file_offset + addr.block_offset] ^= std::byte{1};
    write_file(file, bytes);
  };
  EXPECT_EQ(reopen(meta, flip), Outcome::kRejected);
  EXPECT_EQ(reopen(meta), Outcome::kRejected);
}

TEST_F(GrdbMetaFuzz, BytesAfterTheLastLevelAreRejected) {
  for (const std::size_t extra : {1, 4, 8, 64}) {
    auto meta = meta_;
    meta.resize(meta.size() + extra, std::byte{0});
    EXPECT_EQ(reopen(meta), Outcome::kRejected) << extra << " bytes";
  }
}

TEST_F(GrdbMetaFuzz, RandomByteOverwritesEndTypedOrFinish) {
  const std::uint64_t seed = meta_fuzz_seed();
  SCOPED_TRACE("MSSG_FUZZ_SEED=" + std::to_string(seed));
  std::mt19937_64 rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    auto meta = meta_;
    const int bytes = 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < bytes; ++i) {
      meta[rng() % meta.size()] = static_cast<std::byte>(rng());
    }
    EXPECT_NE(reopen(meta), Outcome::kUntyped) << "trial " << trial;
  }
}

}  // namespace
}  // namespace mssg
