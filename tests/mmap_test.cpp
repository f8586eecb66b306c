// Zero-copy mmap read path tests (the `mmap` ctest label, run under
// both sanitizer presets by tools/ci_sanitize.sh):
//
//   - MappedFile / MappedBlockSource mechanics: mapping, empty and
//     missing files, move semantics, residency sampling, and the
//     verify-once-per-block contract (including a failing verifier
//     staying failing — the bit must only latch on success),
//   - differential equivalence: every analysis result byte-identical
//     with mmap_sealed on vs off, across 1/2/4-node clusters, with the
//     mapped path proven engaged (mmap.zero_copy_reads > 0),
//   - bit-rot classification: an out-of-band disk patch must surface as
//     the same sidecar-checksum StorageError, counted in the same
//     storage.checksum_failures counter, whether the scan reads through
//     the 2Q cache or the mapping,
//   - fallback rules: mutations unmap (and flush re-arms), point reads
//     never map, an armed FaultInjector pins the store to the pread
//     path.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/temp_dir.hpp"
#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "graphdb/grdb/grdb.hpp"
#include "graphdb/metadata_store.hpp"
#include "mssg/mssg.hpp"
#include "storage/fault_injector.hpp"
#include "storage/mapped_file.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

// ---- MappedFile ------------------------------------------------------------

std::filesystem::path write_file(const TempDir& dir, const std::string& name,
                                 const std::string& content) {
  const auto path = dir.path() / name;
  std::ofstream out(path, std::ios::binary);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  return path;
}

TEST(MappedFile, MapsFileContents) {
  TempDir dir;
  const std::string content = "sealed level file bytes";
  const auto path = write_file(dir, "level0.0.dat", content);
  MappedFile file = MappedFile::map_readonly(path);
  ASSERT_TRUE(file.valid());
  ASSERT_EQ(file.size(), content.size());
  const auto bytes = file.bytes();
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size()),
            content);
}

TEST(MappedFile, EmptyFileIsValidEmptyMapping) {
  TempDir dir;
  const auto path = write_file(dir, "empty.dat", "");
  MappedFile file = MappedFile::map_readonly(path);
  EXPECT_TRUE(file.valid());
  EXPECT_EQ(file.size(), 0u);
  EXPECT_TRUE(file.bytes().empty());
}

TEST(MappedFile, MissingFileThrows) {
  TempDir dir;
  EXPECT_THROW(MappedFile::map_readonly(dir.path() / "no-such-file.dat"),
               StorageError);
}

TEST(MappedFile, MoveTransfersOwnership) {
  TempDir dir;
  const auto path = write_file(dir, "data.dat", "abcd");
  MappedFile a = MappedFile::map_readonly(path);
  MappedFile b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): contract
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(b.size(), 4u);
}

TEST(MappedFile, AdviseAndResidencyAreWellFormed) {
  TempDir dir;
  const auto path = write_file(dir, "data.dat", std::string(64 << 10, 'x'));
  MappedFile file = MappedFile::map_readonly(path);
  file.advise(MappedFile::Advice::kSequential);
  file.advise(0, file.size(), MappedFile::Advice::kWillNeed);
  // Touch every page so residency has something to find.
  std::uint64_t sum = 0;
  for (const std::byte b : file.bytes()) sum += static_cast<std::uint64_t>(b);
  EXPECT_GT(sum, 0u);
  const MappedFile::Residency r = file.residency();
  EXPECT_GT(r.sampled_pages, 0u);
  EXPECT_LE(r.resident_pages, r.sampled_pages);
}

// ---- MappedBlockSource -----------------------------------------------------

TEST(MappedBlockSource, VerifiesEachBlockOnce) {
  TempDir dir;
  constexpr std::size_t kBlock = 64;
  const auto path = write_file(dir, "level1.0.dat", std::string(2 * kBlock, 'y'));
  int verifies = 0;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  MappedBlockSource source(
      kBlock, /*blocks_per_file=*/4,
      [&verifies](std::uint64_t, std::span<const std::byte>) { ++verifies; },
      &stats);
  source.attach(0, MappedFile::map_readonly(path));
  EXPECT_EQ(source.files_mapped(), 1u);
  EXPECT_EQ(source.mapped_bytes(), 2 * kBlock);

  ASSERT_EQ(source.block(0).size(), kBlock);
  ASSERT_EQ(source.block(0).size(), kBlock);
  ASSERT_EQ(source.block(1).size(), kBlock);
  EXPECT_EQ(verifies, 2);  // once per distinct block, not per read
  EXPECT_EQ(stats.mmap_lazy_verifies, 2u);

  // Sparse tail of the file (block allocated on disk only up to 2 of 4)
  // and unmapped files both yield empty spans — callers fall back.
  EXPECT_TRUE(source.block(2).empty());
  EXPECT_TRUE(source.block(7).empty());
}

TEST(MappedBlockSource, FailingVerifierStaysFailing) {
  TempDir dir;
  constexpr std::size_t kBlock = 32;
  const auto path = write_file(dir, "level0.0.dat", std::string(kBlock, 'z'));
  int attempts = 0;
  MappedBlockSource source(
      kBlock, /*blocks_per_file=*/1,
      [&attempts](std::uint64_t block, std::span<const std::byte>) {
        ++attempts;
        throw StorageError("block " + std::to_string(block) +
                           " failed sidecar checksum");
      });
  source.attach(0, MappedFile::map_readonly(path));
  EXPECT_THROW(source.block(0), StorageError);
  EXPECT_THROW(source.block(0), StorageError);
  // The verified bit latches only on success: corrupt blocks are
  // re-checked (and re-rejected) on every read, never waved through.
  EXPECT_EQ(attempts, 2);
}

// ---- Differential equivalence ----------------------------------------------

/// Everything but the trailing wall-clock seconds entry.
std::vector<double> drop_seconds(std::vector<double> v) {
  if (!v.empty()) v.pop_back();
  return v;
}

TEST(MmapEquivalence, AnalysesMatchAcrossNodeCounts) {
  const ChungLuConfig gen{.vertices = 400, .edges = 1800, .seed = 77};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);
  const auto pairs = sample_random_pairs(reference, 6, 991);

  for (const int nodes : {1, 2, 4}) {
    ClusterConfig base;
    base.backend = Backend::kGrDB;
    base.backend_nodes = nodes;
    // Small cache: on the off-cluster the scans genuinely churn it.
    base.db.cache_bytes = 64 << 10;
    base.db.max_vertices = gen.vertices;

    ClusterConfig off = base;
    off.db.mmap_sealed = false;
    ClusterConfig on = base;
    on.db.mmap_sealed = true;

    MssgCluster cluster_off(off);
    MssgCluster cluster_on(on);
    cluster_off.ingest(edges);
    cluster_on.ingest(edges);

    for (const auto& [name, params] :
         std::vector<std::pair<std::string, std::vector<std::uint64_t>>>{
             {"pagerank", {5}}, {"lp-cc", {}}, {"kcore", {3}}}) {
      const auto a = drop_seconds(cluster_off.run_analysis(name, params));
      const auto b = drop_seconds(cluster_on.run_analysis(name, params));
      EXPECT_EQ(a, b) << name << " diverged at " << nodes << " nodes";
    }
    for (const auto& pair : pairs) {
      EXPECT_EQ(cluster_off.bfs(pair.src, pair.dst).distance,
                cluster_on.bfs(pair.src, pair.dst).distance)
          << pair.src << "->" << pair.dst << " at " << nodes << " nodes";
    }
    // The comparison is only meaningful if the mapped path actually
    // served the on-cluster's scans.
    EXPECT_GT(cluster_on.metrics_snapshot().counter("mmap.zero_copy_reads"), 0u)
        << "mapped path never engaged at " << nodes << " nodes";
    EXPECT_EQ(cluster_off.metrics_snapshot().counter("mmap.zero_copy_reads"),
              0u);
  }
}

// ---- Bit-rot classification ------------------------------------------------

GrDBOptions tiny_geometry() {
  GrDBOptions options;
  options.geometry.levels = {grdb::LevelSpec{2, 64}, grdb::LevelSpec{4, 64},
                             grdb::LevelSpec{8, 64}};
  options.geometry.max_file_bytes = 1024;
  return options;
}

/// Seals a tiny store, flips one byte of level0.0.dat behind grDB's
/// back, reopens, and asserts the first sealed scan reports the damage
/// as a sidecar-checksum StorageError counted in checksum_failures —
/// identically on the cache and mapped read paths.
void bitrot_roundtrip(bool mmap_sealed) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  config.mmap_sealed = mmap_sealed;
  std::filesystem::create_directories(config.dir);
  {
    GrDB db(config, tiny_geometry());
    db.store_edges(std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {0, 4}});
    db.flush();
  }
  {
    std::fstream f(dir.path() / "level0.0.dat",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(8);
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x40;  // single-bit rot inside vertex 0's sub-block
    f.seekp(8);
    f.write(&byte, 1);
  }
  GrDB db(config, tiny_geometry());
  try {
    db.for_each_vertex([](VertexId) { return true; });
    FAIL() << "bit-rot not detected (mmap_sealed=" << mmap_sealed << ")";
  } catch (const StorageError& e) {
    EXPECT_NE(std::string(e.what()).find("sidecar checksum"),
              std::string::npos)
        << e.what();
  }
  EXPECT_GE(db.metrics().counter("storage.checksum_failures"), 1u);
  if (mmap_sealed) {
    EXPECT_GT(db.metrics().counter("mmap.maps"), 0u)
        << "damage was found by the cache path, not the mapping";
  } else {
    EXPECT_EQ(db.metrics().counter("mmap.maps"), 0u);
  }
}

TEST(MmapChecksum, BitRotClassifiedViaCachePath) {
  bitrot_roundtrip(/*mmap_sealed=*/false);
}

TEST(MmapChecksum, BitRotClassifiedViaMappedPath) {
  bitrot_roundtrip(/*mmap_sealed=*/true);
}

// ---- Fallback rules --------------------------------------------------------

std::vector<Edge> fan(VertexId src, VertexId first, int n) {
  std::vector<Edge> edges;
  for (int i = 0; i < n; ++i) edges.push_back({src, first + i});
  return edges;
}

std::uint64_t scan_count(GrDB& db) {
  std::uint64_t visited = 0;
  db.for_each_vertex([&visited](VertexId) {
    ++visited;
    return true;
  });
  return visited;
}

TEST(MmapFallback, MutationUnmapsAndFlushRearms) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  config.mmap_sealed = true;
  std::filesystem::create_directories(config.dir);
  GrDB db(config, tiny_geometry());
  db.store_edges(fan(0, 10, 6));
  db.flush();

  // Point reads never map: no scan scope, no mapping.
  std::vector<VertexId> adjacency;
  db.get_adjacency(0, adjacency);
  EXPECT_EQ(adjacency.size(), 6u);
  EXPECT_EQ(db.metrics().counter("mmap.maps"), 0u);

  // First sealed scan maps and reads zero-copy.
  EXPECT_GT(scan_count(db), 0u);
  const MetricsSnapshot sealed = db.metrics().snapshot();
  EXPECT_GT(sealed.counter("mmap.maps"), 0u);
  EXPECT_GT(sealed.counter("mmap.mapped_bytes"), 0u);
  EXPECT_GT(sealed.counter("mmap.zero_copy_reads"), 0u);

  // A mutation unmaps (counted as a fallback); scans read through the
  // cache until the epoch reseals.
  db.store_edges(fan(1, 30, 6));
  const MetricsSnapshot dirty = db.metrics().snapshot();
  EXPECT_GE(dirty.counter("mmap.fallbacks"), 1u);
  EXPECT_GT(scan_count(db), 0u);
  EXPECT_EQ(db.metrics().counter("mmap.maps"),
            dirty.counter("mmap.maps"));  // no remap while dirty

  // flush() commits the epoch and re-arms: the next scan remaps.
  db.flush();
  EXPECT_GT(scan_count(db), 0u);
  EXPECT_GT(db.metrics().counter("mmap.maps"),
            dirty.counter("mmap.maps"));

  // The remapped view serves current data.
  adjacency.clear();
  db.get_adjacency(1, adjacency);
  EXPECT_EQ(adjacency.size(), 6u);
}

TEST(MmapFallback, ArmedFaultInjectorForcesPreadPath) {
  FaultInjector::instance().clear();
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  config.mmap_sealed = true;
  std::filesystem::create_directories(config.dir);
  GrDB db(config, tiny_geometry());
  db.store_edges(fan(0, 10, 6));
  db.flush();

  // Arm a rule that can never fire: enabled() flips, I/O is untouched.
  FaultInjector::Rule rule;
  rule.path_substring = "no-such-path-ever";
  rule.op = FaultInjector::Op::kRead;
  rule.nth = 1u << 30;
  FaultInjector::instance().add_rule(rule);
  ASSERT_TRUE(FaultInjector::instance().enabled());

  EXPECT_GT(scan_count(db), 0u);
  EXPECT_EQ(db.metrics().counter("mmap.maps"), 0u)
      << "mapped under an armed fault injector — torn/short-read "
         "injection cannot reach mapped reads";

  // Disarming restores the mapped path on the next scan.
  FaultInjector::instance().clear();
  EXPECT_GT(scan_count(db), 0u);
  EXPECT_GT(db.metrics().counter("mmap.maps"), 0u);
}

}  // namespace
}  // namespace mssg
