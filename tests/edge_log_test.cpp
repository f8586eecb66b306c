// The edge log and grDB's commit/checkpoint split: the log's own format
// rules (EdgeLog), what a log commit and a checkpoint cost and keep
// (GrdbEdgeLog), journal records recovery must refuse (GrdbCorruptJournal),
// and a seeded, structure-aware mutation suite over the log's bytes
// (EdgeLogFuzz, the `fuzz` ctest label).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "common/error.hpp"
#include "common/temp_dir.hpp"
#include "graphdb/grdb/format.hpp"
#include "graphdb/grdb/grdb.hpp"
#include "storage/edge_log.hpp"
#include "storage/fault_injector.hpp"
#include "storage/journal.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

using testing::read_file;
using testing::sorted;
using testing::write_file;

struct InjectorGuard {
  InjectorGuard() { FaultInjector::instance().clear(); }
  ~InjectorGuard() { FaultInjector::instance().clear(); }
};

// Arms a sticky kill on every write and sync under `dir`, from its nth.
void arm_kill(const std::filesystem::path& dir, std::uint64_t nth = 0) {
  FaultInjector::Rule rule;
  rule.path_substring = dir.string();
  rule.op = FaultInjector::Op::kMutate;
  rule.kind = FaultInjector::Kind::kFail;
  rule.nth = nth;
  rule.kill = true;
  FaultInjector::instance().add_rule(rule);
}

// Batch i: a triangle on 100 + 10i .. 100 + 10i + 2, both orientations,
// vertex-disjoint from every other batch and from tiny_graph_directed().
VertexId batch_base(int i) { return 100 + 10 * static_cast<VertexId>(i); }

std::vector<Edge> batch(int i) {
  const VertexId b = batch_base(i);
  std::vector<Edge> edges;
  for (const Edge e : std::initializer_list<Edge>{{b, b + 1}, {b + 1, b + 2},
                                                  {b, b + 2}}) {
    edges.push_back(e);
    edges.push_back(Edge{e.dst, e.src});
  }
  return edges;
}

bool contains_all(const std::vector<VertexId>& list,
                  std::initializer_list<VertexId> want) {
  for (const VertexId v : want) {
    if (std::find(list.begin(), list.end(), v) == list.end()) return false;
  }
  return true;
}

// Whether batch i is present exactly as stored.
bool batch_present(GraphDB& db, int i) {
  const VertexId b = batch_base(i);
  std::vector<VertexId> out;
  db.get_adjacency(b, out);
  if (out.empty()) return false;
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{b + 1, b + 2})) << "batch " << i;
  out.clear();
  db.get_adjacency(b + 2, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{b, b + 1})) << "batch " << i;
  return true;
}

// How many leading batches of `total` are present; fails the test when a
// later batch is present after a missing one.
int present_prefix(GraphDB& db, int total) {
  int prefix = 0;
  bool gap = false;
  for (int i = 0; i < total; ++i) {
    if (batch_present(db, i)) {
      EXPECT_FALSE(gap) << "batch " << i << " present after a missing one";
      if (!gap) ++prefix;
    } else {
      gap = true;
    }
  }
  return prefix;
}

GraphDBConfig log_config(const TempDir& dir) {
  GraphDBConfig config;
  config.dir = dir.path();
  config.async_io = false;  // exact I/O counts
  config.cache_bytes = 4u << 20;
  return config;
}

std::uint64_t metric(const GraphDB& db, std::string_view name) {
  MetricsSnapshot snap;
  db.publish_metrics(snap);
  return snap.counter(name);
}

// ---- EdgeLog ----------------------------------------------------------------

std::vector<std::vector<Edge>> replay_all(EdgeLog& log,
                                          std::uint64_t generation) {
  std::vector<std::vector<Edge>> records;
  log.replay(generation, [&](std::span<const Edge> edges) {
    records.emplace_back(edges.begin(), edges.end());
  });
  return records;
}

TEST(EdgeLog, ReplaysAppendedRecordsInOrder) {
  TempDir dir;
  const auto path = dir.path() / "log";
  {
    EdgeLog log(path, nullptr);
    EXPECT_TRUE(replay_all(log, 5).empty());
    EXPECT_TRUE(log.empty());
    EXPECT_FALSE(log.ready(5));  // no header yet
    log.reset(5);
    EXPECT_TRUE(log.ready(5));
    EXPECT_FALSE(log.ready(4));
    log.append(batch(0));
    log.append(std::vector<Edge>{});
    log.append(batch(1));
    log.sync();
    EXPECT_FALSE(log.empty());
    EXPECT_EQ(log.bytes(), EdgeLog::kHeaderBytes + 2 * EdgeLog::record_bytes(6) +
                               EdgeLog::record_bytes(0));
  }
  EdgeLog log(path, nullptr);
  EXPECT_EQ(replay_all(log, 5),
            (std::vector<std::vector<Edge>>{batch(0), {}, batch(1)}));
  EXPECT_TRUE(log.ready(5));  // exactly header + whole records
  // Another generation's records are stale: nothing visited, and the log
  // must be reset before it takes an append.
  EXPECT_TRUE(replay_all(log, 6).empty());
  EXPECT_FALSE(log.ready(6));
  EXPECT_FALSE(log.ready(5));
  EXPECT_FALSE(log.empty());
}

TEST(EdgeLog, TornTailStopsReplayAndNeedsReset) {
  TempDir dir;
  const auto path = dir.path() / "log";
  {
    EdgeLog log(path, nullptr);
    log.reset(1);
    log.append(batch(0));
    log.append(batch(1));
  }
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
  EdgeLog log(path, nullptr);
  EXPECT_EQ(replay_all(log, 1), (std::vector<std::vector<Edge>>{batch(0)}));
  EXPECT_FALSE(log.ready(1));  // a torn tail only a reset clears
  log.reset(2);
  EXPECT_TRUE(log.ready(2));
  EXPECT_EQ(std::filesystem::file_size(path), EdgeLog::kHeaderBytes);
}

TEST(EdgeLog, ShortHeaderReadsAsEmptyAndBadHeaderThrows) {
  TempDir dir;
  const auto path = dir.path() / "log";
  {
    EdgeLog log(path, nullptr);
    log.reset(1);
    log.append(batch(0));
  }
  const auto bytes = read_file(path);
  // A reset torn by a crash: shorter than a header.
  write_file(path, std::span(bytes).first(EdgeLog::kHeaderBytes - 1));
  {
    EdgeLog log(path, nullptr);
    EXPECT_TRUE(replay_all(log, 1).empty());
    EXPECT_FALSE(log.empty());  // not known to be clean
  }
  // A full header with a flipped generation bit fails its CRC.
  auto flipped = bytes;
  flipped[8] ^= std::byte{1};
  write_file(path, flipped);
  {
    EdgeLog log(path, nullptr);
    EXPECT_THROW(replay_all(log, 1), StorageError);
    EXPECT_THROW(replay_all(log, 0), StorageError);
  }
}

TEST(EdgeLog, ResetTruncatesBeforeWritingTheHeader) {
  InjectorGuard guard;
  TempDir dir;
  const auto path = dir.path() / "log";
  EdgeLog log(path, nullptr);
  log.reset(1);
  log.append(batch(0));
  log.sync();
  // Die at the header write: the truncate has landed, so the old record
  // can never pair with the new generation.
  FaultInjector::instance().parse_spec("path=" + path.string() +
                                       ",op=write,kind=fail,nth=1,kill");
  EXPECT_THROW(log.reset(2), StorageError);
  FaultInjector::instance().clear();
  EXPECT_EQ(std::filesystem::file_size(path), 0u);
  EXPECT_FALSE(log.ready(2));
  EdgeLog reopened(path, nullptr);
  EXPECT_TRUE(replay_all(reopened, 2).empty());
  EXPECT_TRUE(reopened.empty());
}

// ---- GrdbEdgeLog ---------------------------------------------------------

// Between checkpoints a store_edges + flush costs exactly one write (the
// record) and one fdatasync (the log), and no journal record.
TEST(GrdbEdgeLog, LogCommitIsOneWriteAndOneSync) {
  TempDir dir;
  GrDB db(log_config(dir));
  db.store_edges(testing::tiny_graph_directed());
  db.flush();  // a fresh log has no header yet: this one checkpoints
  EXPECT_EQ(metric(db, "storage.checkpoints"), 1u);
  const std::uint64_t journal_records = metric(db, "storage.journal_records");
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t syncs = metric(db, "io.syncs");
    const std::uint64_t writes = metric(db, "io.writes");
    db.store_edges(batch(i));
    db.flush();
    EXPECT_EQ(metric(db, "io.syncs") - syncs, 1u) << "batch " << i;
    EXPECT_EQ(metric(db, "io.writes") - writes, 1u) << "batch " << i;
  }
  EXPECT_EQ(metric(db, "storage.journal_records"), journal_records);
  EXPECT_EQ(metric(db, "storage.edge_log_records"), 3u);
  EXPECT_EQ(metric(db, "storage.checkpoints"), 1u);
  EXPECT_EQ(metric(db, "storage.edge_log_bytes"),
            EdgeLog::kHeaderBytes + 3 * EdgeLog::record_bytes(6));
  // A flush with nothing new stored folds the log in.
  db.flush();
  EXPECT_EQ(metric(db, "storage.checkpoints"), 2u);
  EXPECT_EQ(metric(db, "storage.edge_log_bytes"), EdgeLog::kHeaderBytes);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(batch_present(db, i));
}

// The exact fsyncs of a checkpoint that dirtied one level-0 block with no
// eviction: only files that were written are synced.
TEST(GrdbEdgeLog, CheckpointSyncsOnlyWrittenFiles) {
  TempDir dir;
  GrDB db(log_config(dir));
  db.store_edges(batch(0));
  db.flush();  // checkpoint; the log gets its header
  db.store_edges(std::vector<Edge>{{5, 6}});  // level-0 block 0, again
  db.flush();  // log commit
  const std::uint64_t syncs = metric(db, "io.syncs");
  db.flush();  // checkpoint
  EXPECT_EQ(metric(db, "storage.checkpoints"), 2u);
  // Redo records and commit record (2), grdb.meta (1), the level-0 file
  // after its in-place write (1), the redo trim (1) and the log reset (1).
  // The undo log holds only its header and the other level files saw no
  // write.
  EXPECT_EQ(metric(db, "io.syncs") - syncs, 6u);
}

// Storing past the bound checkpoints; the log never exceeds it.
TEST(GrdbEdgeLog, StoringPastTheBoundCheckpoints) {
  TempDir dir;
  GrDB db(log_config(dir));
  db.store_edges(batch(0));
  db.flush();
  std::vector<Edge> edges;
  VertexId next = 1000;
  for (int b = 0; b < 100; ++b) {
    edges.clear();
    for (int e = 0; e < 1000; ++e) edges.push_back({next++ % 50000, 7});
    db.store_edges(edges);
    db.flush();
    ASSERT_LE(metric(db, "storage.edge_log_bytes"), kEdgeLogBoundBytes);
  }
  // 100 records of 16 KB cannot fit in 1 MiB.
  EXPECT_GE(metric(db, "storage.checkpoints"), 2u);
  EXPECT_LT(metric(db, "storage.edge_log_records"), 100u);
  // One batch larger than the bound is never a record.
  const std::uint64_t records = metric(db, "storage.edge_log_records");
  const std::uint64_t checkpoints = metric(db, "storage.checkpoints");
  edges.assign(kEdgeLogBoundBytes / sizeof(Edge), Edge{3, 4});
  db.store_edges(edges);
  db.flush();
  EXPECT_EQ(metric(db, "storage.edge_log_records"), records);
  EXPECT_EQ(metric(db, "storage.checkpoints"), checkpoints + 1);
  EXPECT_LE(metric(db, "storage.edge_log_bytes"), kEdgeLogBoundBytes);
}

// A store whose close died with batches still in the log reads exactly
// what one that checkpointed them reads.
TEST(GrdbEdgeLog, ReplayedStoreMatchesCheckpointedStore) {
  InjectorGuard guard;
  TempDir checkpointed;
  TempDir crashed;
  for (const TempDir* dir : {&checkpointed, &crashed}) {
    GrDB db(log_config(*dir));
    db.store_edges(testing::tiny_graph_directed());
    db.flush();
    for (int i = 0; i < 5; ++i) {
      db.store_edges(batch(i));
      db.flush();
    }
    // Some edges onto vertices the checkpoint already holds.
    db.store_edges(std::vector<Edge>{{0, 9}, {1, 9}});
    db.flush();
    if (dir == &crashed) arm_kill(dir->path());  // the close never lands
  }
  FaultInjector::instance().clear();
  GrDB a(log_config(checkpointed));
  GrDB b(log_config(crashed));
  EXPECT_EQ(metric(b, "storage.checkpoints"), 1u);  // the replay's
  EXPECT_EQ(metric(b, "storage.edge_log_bytes"), EdgeLog::kHeaderBytes);
  for (VertexId v = 0; v < 160; ++v) {
    std::vector<VertexId> x, y;
    a.get_adjacency(v, x);
    b.get_adjacency(v, y);
    EXPECT_EQ(x, y) << "vertex " << v;
  }
  EXPECT_TRUE(b.verify().ok());
}

// A checkpoint fails in its in-place phase, after its redo commit; more
// batches commit on the same open store; the store then dies.  Every
// acknowledged batch must be there on reopen.
TEST(GrdbEdgeLog, FailedCheckpointThenMoreBatchesKeepsEveryBatch) {
  InjectorGuard guard;
  TempDir dir;
  {
    GrDB db(log_config(dir));
    db.store_edges(testing::tiny_graph_directed());
    db.flush();
    db.store_edges(batch(0));
    db.flush();  // log commit
    // The in-place phase's first meta write fails (not sticky).
    FaultInjector::instance().parse_spec(
        "path=" + (dir.path() / "grdb.meta").string() +
        ",op=write,kind=fail,nth=0");
    EXPECT_THROW(db.flush(), StorageError);
    FaultInjector::instance().clear();
    db.store_edges(batch(1));
    db.flush();  // must checkpoint: the last one never completed
    db.store_edges(batch(2));
    db.flush();  // log commit under the new generation
    EXPECT_EQ(metric(db, "storage.edge_log_records"), 2u);
    arm_kill(dir.path());
  }
  FaultInjector::instance().clear();
  GrDB db(log_config(dir));
  EXPECT_EQ(present_prefix(db, 3), 3);
  std::vector<VertexId> out;
  db.get_adjacency(0, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{1, 3}));
  EXPECT_TRUE(db.verify().ok());
}

// ---- GrdbCorruptJournal ----------------------------------------------------

// Leaves a committed, untrimmed redo log on disk: a checkpoint dies right
// after its commit, at its first write to grdb.meta.
void crash_after_redo_commit(const TempDir& dir) {
  InjectorGuard guard;
  GrDB db(log_config(dir));
  db.store_edges(testing::tiny_graph_directed());
  db.flush();
  db.store_edges(batch(0));
  db.flush();  // log commit
  FaultInjector::instance().parse_spec(
      "path=" + (dir.path() / "grdb.meta").string() +
      ",op=write,kind=fail,nth=0,kill");
  EXPECT_THROW(db.flush(), StorageError);
}

// Rewrites the committed redo log through the journal's own framing, so
// every mutated record carries a valid CRC and the commit its count.
void rewrite_redo(const TempDir& dir,
                  const std::function<void(std::vector<WriteJournal::Record>&)>&
                      mutate) {
  std::vector<WriteJournal::Record> records;
  {
    WriteJournal journal(dir.path() / "grdb", nullptr);
    auto rec = journal.plan_recovery();
    ASSERT_EQ(rec.action, WriteJournal::Action::kRollForward);
    records = std::move(rec.records);
  }
  ASSERT_GE(records.size(), 2u);  // a block and the meta
  mutate(records);
  std::filesystem::remove(dir.path() / "grdb.redo");
  WriteJournal journal(dir.path() / "grdb", nullptr);
  journal.redo_begin();
  for (const auto& r : records) journal.redo_record(r.tag, r.payload);
  journal.redo_commit();
}

std::size_t level_files(const TempDir& dir) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    if (entry.path().filename().string().starts_with("level")) ++n;
  }
  return n;
}

constexpr std::uint64_t kMetaTag = ~std::uint64_t{0};

WriteJournal::Record& first_block(std::vector<WriteJournal::Record>& records) {
  for (auto& r : records) {
    if (r.tag != kMetaTag) return r;
  }
  throw std::logic_error("no block record");
}

TEST(GrdbCorruptJournal, UnmutatedRedoRollsForward) {
  TempDir dir;
  crash_after_redo_commit(dir);
  rewrite_redo(dir, [](std::vector<WriteJournal::Record>&) {});
  GrDB db(log_config(dir));
  EXPECT_TRUE(batch_present(db, 0));
}

TEST(GrdbCorruptJournal, LevelBeyondGeometryRejected) {
  TempDir dir;
  crash_after_redo_commit(dir);
  rewrite_redo(dir, [](std::vector<WriteJournal::Record>& records) {
    first_block(records).tag = (std::uint64_t{7} << 48) | 1;
  });
  EXPECT_THROW(GrDB{log_config(dir)}, StorageError);
}

TEST(GrdbCorruptJournal, PayloadNotTheBlockSizeRejected) {
  TempDir dir;
  crash_after_redo_commit(dir);
  rewrite_redo(dir, [](std::vector<WriteJournal::Record>& records) {
    first_block(records).payload.resize(100);
  });
  EXPECT_THROW(GrDB{log_config(dir)}, StorageError);
}

// A block index past the restored meta's extent is refused before any
// file is created for it (a level-0 index near 2^32 would otherwise size
// the level's file vector).
TEST(GrdbCorruptJournal, BlockPastTheMetaExtentRejectedBeforeAnyFile) {
  TempDir dir;
  crash_after_redo_commit(dir);
  rewrite_redo(dir, [](std::vector<WriteJournal::Record>& records) {
    auto& r = first_block(records);
    r.tag = (r.tag & ~((std::uint64_t{1} << 48) - 1)) |
            ((std::uint64_t{1} << 40) + 3);
  });
  const std::size_t files = level_files(dir);
  EXPECT_THROW(GrDB{log_config(dir)}, StorageError);
  EXPECT_EQ(level_files(dir), files);
}

// A roll-back's pre-images must lie inside the on-disk meta's extent.
TEST(GrdbCorruptJournal, UndoRecordPastTheMetaExtentRejected) {
  TempDir dir;
  {
    GrDB db(log_config(dir));
    db.store_edges(testing::tiny_graph_directed());
    db.flush();
  }
  const auto block_bytes = grdb::Geometry::standard().levels[0].block_bytes;
  {
    WriteJournal journal(dir.path() / "grdb", nullptr);
    journal.undo_record(std::uint64_t{1} << 30,
                        std::vector<std::byte>(block_bytes));
    journal.undo_barrier();
  }
  const std::size_t files = level_files(dir);
  EXPECT_THROW(GrDB{log_config(dir)}, StorageError);
  EXPECT_EQ(level_files(dir), files);
  // And one whose level is beyond the geometry.
  std::filesystem::remove(dir.path() / "grdb.undo");
  {
    WriteJournal journal(dir.path() / "grdb", nullptr);
    journal.undo_record(std::uint64_t{9} << 48,
                        std::vector<std::byte>(block_bytes));
    journal.undo_barrier();
  }
  EXPECT_THROW(GrDB{log_config(dir)}, StorageError);
}

// ---- EdgeLogFuzz ----------------------------------------------------------
//
// A store whose close died with three committed batches in its edge log
// (and none checkpointed) is copied, its log mutated, and reopened.  A
// mutated log must reopen to a prefix of the committed batches or throw
// StorageError — never UB, an abort, a hang or an allocation sized from
// a record's count.  Where a mutation recomputes a record's CRC the
// record is a forgery the log cannot tell from a real one: the batches
// before it must still be there whole.  MSSG_FUZZ_SEED picks the seed.

constexpr int kFuzzBatches = 3;

std::uint64_t fuzz_seed() {
  if (const char* env = std::getenv("MSSG_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20261018;
}

class EdgeLogFuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = std::make_unique<TempDir>();
    InjectorGuard guard;
    {
      GrDB db(log_config(*base_));
      db.store_edges(testing::tiny_graph_directed());
      db.flush();
      for (int i = 0; i < kFuzzBatches; ++i) {
        db.store_edges(batch(i));
        db.flush();
      }
      arm_kill(base_->path());
    }
    log_ = read_file(base_->path() / "grdb.edges");
    record_offsets_.clear();
    std::uint64_t pos = EdgeLog::kHeaderBytes;
    while (pos < log_.size()) {
      record_offsets_.push_back(pos);
      std::uint64_t count = 0;
      std::memcpy(&count, log_.data() + pos, 8);
      pos += EdgeLog::record_bytes(count);
    }
  }
  static void TearDownTestSuite() { base_.reset(); }

  void SetUp() override {
    ASSERT_EQ(record_offsets_.size(), static_cast<std::size_t>(kFuzzBatches));
  }

  // Whole records that end at or before `size` bytes.
  static int records_within(std::uint64_t size) {
    int n = 0;
    for (std::size_t r = 0; r < record_offsets_.size(); ++r) {
      const std::uint64_t end = r + 1 < record_offsets_.size()
                                    ? record_offsets_[r + 1]
                                    : log_.size();
      if (end <= size) n = static_cast<int>(r) + 1;
    }
    return n;
  }

  // The record holding byte `pos` (pos past the header).
  static int record_of(std::uint64_t pos) {
    int r = 0;
    while (r + 1 < static_cast<int>(record_offsets_.size()) &&
           record_offsets_[r + 1] <= pos) {
      ++r;
    }
    return r;
  }

  static void reseal_record(std::vector<std::byte>& log, int r) {
    const std::uint64_t pos = record_offsets_[r];
    std::uint64_t count = 0;
    std::memcpy(&count, log.data() + pos, 8);
    const std::size_t body = 8 + count * sizeof(Edge);
    const std::uint32_t crc =
        crc32c(std::span<const std::byte>(log.data() + pos, body));
    std::memcpy(log.data() + pos + body, &crc, 4);
  }

  static void reseal_header(std::vector<std::byte>& log) {
    const std::uint32_t crc =
        crc32c(std::span<const std::byte>(log.data(), 16));
    std::memcpy(log.data() + 16, &crc, 4);
  }

  // Reopens a copy of the base store carrying `log`.  Returns the number
  // of leading batches present, or -1 when the open threw StorageError.
  // With `forged` >= 0, record `forged` may hold anything: only the
  // batches before it are checked (present whole, as a superset).
  static int reopen(const std::vector<std::byte>& log, int forged = -1) {
    TempDir work;
    testing::copy_store(base_->path(), work.path());
    write_file(work.path() / "grdb.edges", log);
    try {
      GrDB db(log_config(work));
      std::vector<VertexId> out;
      db.get_adjacency(0, out);
      EXPECT_TRUE(contains_all(out, {1, 3}));
      EXPECT_TRUE(db.verify().ok());
      if (forged < 0) return present_prefix(db, kFuzzBatches);
      for (int i = 0; i < forged; ++i) {
        const VertexId b = batch_base(i);
        out.clear();
        db.get_adjacency(b, out);
        EXPECT_TRUE(contains_all(out, {b + 1, b + 2})) << "batch " << i;
      }
      return forged;
    } catch (const StorageError&) {
      return -1;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "reopen threw a non-StorageError: " << e.what();
      return -2;
    }
  }

  static inline std::unique_ptr<TempDir> base_;
  static inline std::vector<std::byte> log_;
  static inline std::vector<std::uint64_t> record_offsets_;
};

TEST_F(EdgeLogFuzz, UnmutatedLogReplaysEveryBatch) {
  EXPECT_EQ(reopen(log_), kFuzzBatches);
}

TEST_F(EdgeLogFuzz, TruncationAtEveryByteKeepsTheWholeRecords) {
  for (std::uint64_t size = 0; size <= log_.size(); ++size) {
    const std::vector<std::byte> cut(log_.begin(),
                                     log_.begin() + static_cast<long>(size));
    EXPECT_EQ(reopen(cut), records_within(size)) << "truncated at " << size;
  }
}

TEST_F(EdgeLogFuzz, FlippedBitsWithoutResealStopAtTheirRecord) {
  const std::uint64_t seed = fuzz_seed();
  SCOPED_TRACE("MSSG_FUZZ_SEED=" + std::to_string(seed));
  std::mt19937_64 rng(seed);
  // Every header bit: a bad magic or CRC throws.
  for (std::uint64_t bit = 0; bit < 8 * EdgeLog::kHeaderBytes; bit += 7) {
    auto log = log_;
    log[bit / 8] ^= std::byte(1u << (bit % 8));
    EXPECT_EQ(reopen(log), -1) << "header bit " << bit;
  }
  // Random record bits: the damaged record and everything after it go.
  const std::uint64_t body = log_.size() - EdgeLog::kHeaderBytes;
  for (int trial = 0; trial < 150; ++trial) {
    const std::uint64_t pos = EdgeLog::kHeaderBytes + rng() % body;
    const unsigned bit = static_cast<unsigned>(rng() % 8);
    auto log = log_;
    log[pos] ^= std::byte(1u << bit);
    EXPECT_EQ(reopen(log), record_of(pos))
        << "byte " << pos << " bit " << bit;
  }
}

TEST_F(EdgeLogFuzz, HugeAndShrunkCountsNeverSizeAnAllocation) {
  for (int r = 0; r < kFuzzBatches; ++r) {
    for (const std::uint64_t count :
         {std::uint64_t{1} << 60, ~std::uint64_t{0}, std::uint64_t{1} << 32,
          std::uint64_t{7}, std::uint64_t{1000}}) {
      auto log = log_;
      std::memcpy(log.data() + record_offsets_[r], &count, 8);
      EXPECT_EQ(reopen(log), r) << "record " << r << " count " << count;
    }
    // A zero count resealed: a valid empty record followed by garbage.
    auto log = log_;
    const std::uint64_t zero = 0;
    std::memcpy(log.data() + record_offsets_[r], &zero, 8);
    reseal_record(log, r);
    EXPECT_EQ(reopen(log), r) << "record " << r << " count 0";
  }
}

TEST_F(EdgeLogFuzz, ResealedPayloadFlipsKeepTheEarlierBatches) {
  const std::uint64_t seed = fuzz_seed();
  SCOPED_TRACE("MSSG_FUZZ_SEED=" + std::to_string(seed));
  std::mt19937_64 rng(seed ^ 0x5eed);
  for (int trial = 0; trial < 120; ++trial) {
    const int r = static_cast<int>(rng() % kFuzzBatches);
    const std::uint64_t edge = rng() % batch(r).size();
    const bool src = (rng() & 1) != 0;
    // Source bits 12-55 would move the edge to a far, still addressable
    // vertex, whose level-0 extent (not the log) sizes grDB's bitmaps;
    // flip low bits, or bits that make the id one no store accepts.
    unsigned bit = static_cast<unsigned>(rng() % 64);
    if (src && bit >= 12 && bit < 56) bit %= 12;
    auto log = log_;
    const std::uint64_t at = record_offsets_[r] + 8 + edge * sizeof(Edge) +
                             (src ? 0 : sizeof(VertexId));
    VertexId id = 0;
    std::memcpy(&id, log.data() + at, 8);
    id ^= VertexId{1} << bit;
    std::memcpy(log.data() + at, &id, 8);
    reseal_record(log, r);
    const bool rejected = id > kMaxVertexId || (src && bit >= 56);
    const int got = reopen(log, r);
    EXPECT_EQ(got, rejected ? -1 : r)
        << "record " << r << " edge " << edge << (src ? " src" : " dst")
        << " bit " << bit;
  }
}

TEST_F(EdgeLogFuzz, GenerationAndMagicChecks) {
  for (const std::int64_t delta : {-1, 1, 1000}) {
    auto log = log_;
    std::uint64_t generation = 0;
    std::memcpy(&generation, log.data() + 8, 8);
    generation += static_cast<std::uint64_t>(delta);
    std::memcpy(log.data() + 8, &generation, 8);
    reseal_header(log);
    EXPECT_EQ(reopen(log), 0) << "generation off by " << delta;
  }
  auto log = log_;
  log[0] ^= std::byte{0x40};
  reseal_header(log);
  EXPECT_EQ(reopen(log), -1);
}

TEST_F(EdgeLogFuzz, RecordsNoStoreAcceptsThrow) {
  for (int r = 0; r < kFuzzBatches; ++r) {
    for (const Edge bad : {Edge{VertexId{1} << 56, 1}, Edge{1, VertexId{1} << 62},
                           Edge{kMaxVertexId + 1, 1}}) {
      auto log = log_;
      std::memcpy(log.data() + record_offsets_[r] + 8, &bad, sizeof(Edge));
      reseal_record(log, r);
      EXPECT_EQ(reopen(log), -1) << "record " << r << " edge " << bad;
    }
  }
}

}  // namespace
}  // namespace mssg
