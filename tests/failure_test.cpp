// Failure injection: corrupted on-disk state must be *detected*, never
// silently misread.  Each test damages a file out-of-band and checks the
// layer above fails loudly with StorageError.
#include <gtest/gtest.h>

#include <fstream>

#include "common/temp_dir.hpp"
#include "graphdb/grdb/grdb.hpp"
#include "graphdb/metadata_store.hpp"
#include "storage/btree.hpp"
#include "storage/pager.hpp"

namespace mssg {
namespace {

void overwrite_bytes(const std::filesystem::path& path, std::uint64_t offset,
                     const std::string& junk) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
}

TEST(FailureInjection, PagerRejectsCorruptHeaderMagic) {
  TempDir dir;
  const auto path = dir.path() / "pages.db";
  { Pager pager(path, 512, 0); }
  overwrite_bytes(path, 0, "GARBAGE!");
  EXPECT_THROW(Pager(path, 512, 0), StorageError);
}

TEST(FailureInjection, BTreeDetectsCorruptPageTypeOnDescent) {
  TempDir dir;
  const auto path = dir.path() / "tree.db";
  PageId root_page = kInvalidPage;
  {
    Pager pager(path, 512, 1 << 16);
    BTree tree(pager);
    std::vector<std::byte> value(8, std::byte{1});
    for (std::uint64_t i = 0; i < 200; ++i) tree.put({i, 0}, value);
    ASSERT_GT(tree.height(), 1);  // root is internal
    root_page = pager.meta(0);
    pager.flush();
  }
  // Smash the root page's type byte.
  overwrite_bytes(path, root_page * 512, std::string("\x09", 1));
  Pager pager(path, 512, 1 << 16);
  BTree tree(pager);
  EXPECT_THROW(tree.get({5, 0}), StorageError);
}

TEST(FailureInjection, GrdbRejectsCorruptMetaFile) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  std::filesystem::create_directories(config.dir);
  {
    GrDB db(config);
    db.store_edges(std::vector<Edge>{{1, 2}, {2, 3}});
    db.flush();
  }
  overwrite_bytes(dir.path() / "grdb.meta", 0, "NOTMAGIC");
  EXPECT_THROW(GrDB{config},
               StorageError);
}

TEST(FailureInjection, GrdbRejectsTruncatedMetaFile) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  std::filesystem::create_directories(config.dir);
  {
    GrDB db(config);
    db.store_edges(std::vector<Edge>{{1, 2}});
    db.flush();
  }
  // Truncate the meta file mid-structure.
  std::filesystem::resize_file(dir.path() / "grdb.meta", 12);
  EXPECT_THROW(GrDB{config},
               FormatError);
}

TEST(FailureInjection, GrdbCorruptPointerTagDetected) {
  // A sub-block entry with tag 7 that is not the all-ones sentinel is
  // structurally impossible; classify() must reject it as corrupt data.
  const std::uint64_t bogus = (std::uint64_t{7} << 61) | 0x1234;
  EXPECT_THROW(grdb::classify(bogus), StorageError);
}

}  // namespace
}  // namespace mssg
