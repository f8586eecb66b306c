// Crash-recovery kill-point sweep (the heart of the durability PR).
//
// For each persistent backend the sweep commits a baseline graph, then
// replays the same "second epoch" (open, ingest a second batch, flush)
// over and over, killing the process-equivalent at every successive
// durable-mutation index: a sticky FaultInjector rule fails the k-th
// write-or-sync under the storage directory and every one after it, so
// the on-disk state is exactly what a kill -9 at that moment leaves.
// After each kill the backend must reopen WITHOUT error and read back
// one of the two committed states — the baseline alone, or baseline
// plus the second batch — never a torn hybrid and never garbage.
//
// The sweep ends naturally at the first k no operation reaches.
// MSSG_CRASH_SWEEP_STRIDE=<n> coarsens the sweep for sanitizer CI.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/temp_dir.hpp"
#include "graphdb/grdb/grdb.hpp"
#include "storage/fault_injector.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

using testing::make_db;
using testing::sorted;
using testing::tiny_graph_directed;

// Second-epoch batch, vertex-disjoint from tiny_graph_directed() so a
// half-applied epoch would be visible as inconsistent adjacency.
std::vector<Edge> second_batch() {
  std::vector<Edge> edges;
  for (const Edge e :
       std::initializer_list<Edge>{{10, 11}, {11, 12}, {10, 12}}) {
    edges.push_back(e);
    edges.push_back(Edge{e.dst, e.src});
  }
  return edges;
}

std::uint64_t sweep_stride() {
  if (const char* env = std::getenv("MSSG_CRASH_SWEEP_STRIDE")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 1;
}

// Reopens after the kill and checks the state is one of the two
// committed snapshots.  Returns true when the second batch survived.
bool check_recovered(Backend backend, const TempDir& dir,
                     const GraphDBConfig& config, std::uint64_t k) {
  auto db = make_db(backend, dir, config);  // must not throw
  std::vector<VertexId> out;

  // The baseline epoch was committed before any fault was armed; it must
  // be there verbatim after every kill point.
  db->get_adjacency(0, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{1, 3})) << "kill point " << k;
  out.clear();
  db->get_adjacency(4, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{1, 3})) << "kill point " << k;

  // The second epoch is all-or-nothing: vertex 10 and vertex 11 agree.
  out.clear();
  db->get_adjacency(10, out);
  const bool has_second = !out.empty();
  if (has_second) {
    EXPECT_EQ(sorted(out), (std::vector<VertexId>{11, 12}))
        << "kill point " << k;
    out.clear();
    db->get_adjacency(11, out);
    EXPECT_EQ(sorted(out), (std::vector<VertexId>{10, 12}))
        << "kill point " << k;
  } else {
    out.clear();
    db->get_adjacency(11, out);
    EXPECT_TRUE(out.empty()) << "kill point " << k
                             << ": half-applied second epoch";
  }

  if (auto* grdb = dynamic_cast<GrDB*>(db.get())) {
    const auto report = grdb->verify();
    EXPECT_TRUE(report.ok()) << "kill point " << k << ": "
                             << (report.errors.empty() ? ""
                                                       : report.errors[0]);
  }
  return has_second;
}

void run_sweep(Backend backend, GraphDBConfig config) {
  auto& injector = FaultInjector::instance();
  injector.clear();

  const std::uint64_t stride = sweep_stride();
  bool reached_end = false;
  bool second_survived_once = false;
  std::uint64_t kill_points = 0;
  // Far above any real operation count — a runaway guard, not a bound.
  constexpr std::uint64_t kMaxK = 5000;
  for (std::uint64_t k = 0; k < kMaxK; k += stride) {
    // Fresh store per kill point: a k past the commit leaves the second
    // epoch durable, and re-ingesting it into the same dir would
    // double-count edges.
    TempDir dir;
    {
      auto db = make_db(backend, dir, config);
      db->store_edges(tiny_graph_directed());
      db->flush();
    }

    injector.clear();
    FaultInjector::Rule rule;
    rule.path_substring = dir.path().string();
    rule.op = FaultInjector::Op::kMutate;  // writes AND syncs, one index
    rule.kind = FaultInjector::Kind::kFail;
    rule.nth = k;
    rule.kill = true;
    injector.add_rule(rule);

    try {
      auto db = make_db(backend, dir, config);
      db->store_edges(second_batch());
      db->flush();
    } catch (const StorageError&) {
      // Expected for most kill points; destructors swallow the rest.
    }

    const bool fired = injector.triggered() > 0;
    injector.clear();

    second_survived_once |= check_recovered(backend, dir, config, k);
    if (!fired) {
      reached_end = true;  // k is past the last durable mutation
      break;
    }
    ++kill_points;
  }
  EXPECT_TRUE(reached_end) << "sweep never ran fault-free (kMaxK too low?)";
  EXPECT_GT(kill_points, 0u) << "sweep armed no kill point at all";
  // The final, unkilled iteration commits the second epoch.
  EXPECT_TRUE(second_survived_once);
  injector.clear();
}

class CrashRecovery : public ::testing::TestWithParam<Backend> {};

TEST_P(CrashRecovery, KillPointSweepRecoversCommittedState) {
  GraphDBConfig config;
  config.cache_bytes = 64u << 10;  // small cache: evictions mid-epoch
  config.async_io = false;         // deterministic operation indices
  run_sweep(GetParam(), config);
}

INSTANTIATE_TEST_SUITE_P(PersistentBackends, CrashRecovery,
                         ::testing::Values(Backend::kGrDB, Backend::kKVStore,
                                           Backend::kStream),
                         [](const ::testing::TestParamInfo<Backend>& p) {
                           auto name = to_string(p.param);
                           return name.substr(0, name.find('('));
                         });

// ---- Group commit (journal_sync_interval > 1) ------------------------------
//
// With group commit only every n-th flush() fsyncs; the flushes in
// between batch their redo records into the group.  A crash anywhere
// inside the window must roll the WHOLE group back to the last boundary
// — never expose a deferred flush on its own.  The sweep ingests four
// vertex-disjoint slices, flushing after each, under sync_interval=2:
// the only legal recovered states are 0, 2, or 4 slices (the boundary
// prefixes), each slice all-or-nothing.

std::vector<Edge> group_slice(int i) {
  const VertexId base = 100 + 10 * static_cast<VertexId>(i);
  std::vector<Edge> edges;
  for (const Edge e :
       std::initializer_list<Edge>{{base, base + 1}, {base + 1, base + 2}}) {
    edges.push_back(e);
    edges.push_back(Edge{e.dst, e.src});
  }
  return edges;
}

// Returns how many slices survived; fails the test if the recovered
// state is not an atomic group boundary.
int check_group_recovered(Backend backend, const TempDir& dir,
                          const GraphDBConfig& config, std::uint64_t k) {
  auto db = make_db(backend, dir, config);  // must not throw
  std::vector<VertexId> out;

  // The baseline epoch committed at a boundary before any fault.
  db->get_adjacency(0, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{1, 3})) << "kill point " << k;

  int slices = 0;
  bool gap = false;
  for (int i = 0; i < 4; ++i) {
    const VertexId base = 100 + 10 * static_cast<VertexId>(i);
    out.clear();
    db->get_adjacency(base, out);
    if (out.empty()) {
      gap = true;
      continue;
    }
    // A later slice present after a missing earlier one would mean the
    // group was torn out of order.
    EXPECT_FALSE(gap) << "kill point " << k << ": slice " << i
                      << " survived but an earlier slice did not";
    // Each surviving slice must be complete, not half-applied.
    EXPECT_EQ(sorted(out), (std::vector<VertexId>{base + 1}))
        << "kill point " << k;
    out.clear();
    db->get_adjacency(base + 1, out);
    EXPECT_EQ(sorted(out), (std::vector<VertexId>{base, base + 2}))
        << "kill point " << k;
    ++slices;
  }
  // Only group boundaries are committed states: with sync_interval=2 a
  // lone odd slice means a deferred (uncommitted) flush leaked out.
  EXPECT_TRUE(slices == 0 || slices == 2 || slices == 4)
      << "kill point " << k << ": recovered " << slices
      << " slices — not a group-commit boundary";

  if (auto* grdb = dynamic_cast<GrDB*>(db.get())) {
    const auto report = grdb->verify();
    EXPECT_TRUE(report.ok()) << "kill point " << k << ": "
                             << (report.errors.empty() ? ""
                                                       : report.errors[0]);
  }
  return slices;
}

void run_group_commit_sweep(Backend backend, GraphDBConfig config) {
  config.journal_sync_interval = 2;
  auto& injector = FaultInjector::instance();
  injector.clear();

  const std::uint64_t stride = sweep_stride();
  bool reached_end = false;
  bool saw_mid_boundary = false;
  bool saw_full_group = false;
  constexpr std::uint64_t kMaxK = 5000;
  for (std::uint64_t k = 0; k < kMaxK; k += stride) {
    TempDir dir;
    {
      // Baseline: the destructor forces the group boundary, so this is
      // durable before any fault arms.
      auto db = make_db(backend, dir, config);
      db->store_edges(tiny_graph_directed());
      db->flush();
    }

    injector.clear();
    FaultInjector::Rule rule;
    rule.path_substring = dir.path().string();
    rule.op = FaultInjector::Op::kMutate;
    rule.kind = FaultInjector::Kind::kFail;
    rule.nth = k;
    rule.kill = true;
    injector.add_rule(rule);

    try {
      auto db = make_db(backend, dir, config);
      for (int i = 0; i < 4; ++i) {
        db->store_edges(group_slice(i));
        db->flush();  // flushes 2 and 4 are boundaries; 1 and 3 defer
      }
    } catch (const StorageError&) {
      // Expected for most kill points; destructors swallow the rest.
    }

    const bool fired = injector.triggered() > 0;
    injector.clear();

    const int slices = check_group_recovered(backend, dir, config, k);
    saw_mid_boundary |= slices == 2;
    saw_full_group |= slices == 4;
    if (!fired) {
      reached_end = true;
      break;
    }
  }
  EXPECT_TRUE(reached_end) << "sweep never ran fault-free (kMaxK too low?)";
  // The final, unkilled iteration commits both groups.
  EXPECT_TRUE(saw_full_group);
  // A fine-grained sweep crosses the second group's window, where a
  // crash rolls back to the slice-2 boundary (not all the way to the
  // baseline).  Coarser sanitizer strides may step over it.
  if (stride == 1) EXPECT_TRUE(saw_mid_boundary);
  injector.clear();
}

TEST(CrashRecovery, GrdbGroupCommitKillsRecoverToBoundary) {
  GraphDBConfig config;
  config.cache_bytes = 64u << 10;
  config.async_io = false;  // deterministic operation indices
  run_group_commit_sweep(Backend::kGrDB, config);
}

TEST(CrashRecovery, KvstoreGroupCommitKillsRecoverToBoundary) {
  GraphDBConfig config;
  config.cache_bytes = 64u << 10;
  config.async_io = false;
  run_group_commit_sweep(Backend::kKVStore, config);
}

// ---- Edge-log commits (grDB) -----------------------------------------------
//
// With journal_sync_interval 1 a grDB flush between checkpoints is one
// edge-log record and one fdatasync, and the store's close checkpoints
// the logged batches.  Killing at every write and sync of three such
// commits and the close must reopen to the baseline plus a prefix of the
// slices, each whole; and killing inside the replay of a log that holds
// all three must lose none of them.

// Slices of `total` present in order; fails on a torn or out-of-order one.
int present_slices(GraphDB& db, int total, std::uint64_t k) {
  std::vector<VertexId> out;
  db.get_adjacency(0, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{1, 3})) << "kill point " << k;
  int slices = 0;
  bool gap = false;
  for (int i = 0; i < total; ++i) {
    const VertexId base = 100 + 10 * static_cast<VertexId>(i);
    out.clear();
    db.get_adjacency(base, out);
    if (out.empty()) {
      gap = true;
      continue;
    }
    EXPECT_FALSE(gap) << "kill point " << k << ": slice " << i
                      << " survived but an earlier slice did not";
    EXPECT_EQ(sorted(out), (std::vector<VertexId>{base + 1}))
        << "kill point " << k;
    out.clear();
    db.get_adjacency(base + 1, out);
    EXPECT_EQ(sorted(out), (std::vector<VertexId>{base, base + 2}))
        << "kill point " << k;
    ++slices;
  }
  if (auto* grdb = dynamic_cast<GrDB*>(&db)) {
    const auto report = grdb->verify();
    EXPECT_TRUE(report.ok()) << "kill point " << k << ": "
                             << (report.errors.empty() ? ""
                                                       : report.errors[0]);
  }
  return slices;
}

void arm_kill_at(const TempDir& dir, std::uint64_t k) {
  FaultInjector::Rule rule;
  rule.path_substring = dir.path().string();
  rule.op = FaultInjector::Op::kMutate;
  rule.kind = FaultInjector::Kind::kFail;
  rule.nth = k;
  rule.kill = true;
  FaultInjector::instance().add_rule(rule);
}

GraphDBConfig log_sweep_config() {
  GraphDBConfig config;
  config.cache_bytes = 64u << 10;  // small cache: evictions mid-interval
  config.async_io = false;         // deterministic operation indices
  return config;
}

TEST(CrashRecovery, GrdbLogCommitsThenCloseSweep) {
  const GraphDBConfig config = log_sweep_config();
  auto& injector = FaultInjector::instance();
  injector.clear();
  const std::uint64_t stride = sweep_stride();
  bool reached_end = false;
  std::vector<bool> seen(4, false);
  constexpr std::uint64_t kMaxK = 5000;
  for (std::uint64_t k = 0; k < kMaxK; k += stride) {
    TempDir dir;
    {
      auto db = make_db(Backend::kGrDB, dir, config);
      db->store_edges(tiny_graph_directed());
      db->flush();
    }
    injector.clear();
    arm_kill_at(dir, k);
    try {
      auto db = make_db(Backend::kGrDB, dir, config);
      for (int i = 0; i < 3; ++i) {
        db->store_edges(group_slice(i));
        db->flush();
      }
    } catch (const StorageError&) {
      // Expected for most kill points; the destructor swallows the rest.
    }
    const bool fired = injector.triggered() > 0;
    injector.clear();
    auto db = make_db(Backend::kGrDB, dir, config);  // must not throw
    const int slices = present_slices(*db, 3, k);
    seen[static_cast<std::size_t>(slices)] = true;
    if (!fired) {
      EXPECT_EQ(slices, 3) << "the unkilled run lost a batch";
      reached_end = true;
      break;
    }
  }
  EXPECT_TRUE(reached_end) << "sweep never ran fault-free (kMaxK too low?)";
  // A fine sweep kills before, between and after the three commits.
  if (stride == 1) {
    EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
  }
  injector.clear();
}

TEST(CrashRecovery, GrdbReplayKillsKeepEveryLoggedBatch) {
  const GraphDBConfig config = log_sweep_config();
  auto& injector = FaultInjector::instance();
  injector.clear();
  const std::uint64_t stride = sweep_stride();
  bool reached_end = false;
  constexpr std::uint64_t kMaxK = 5000;
  for (std::uint64_t k = 0; k < kMaxK; k += stride) {
    TempDir dir;
    {
      auto db = make_db(Backend::kGrDB, dir, config);
      db->store_edges(tiny_graph_directed());
      db->flush();
      for (int i = 0; i < 3; ++i) {
        db->store_edges(group_slice(i));
        db->flush();  // acknowledged: a log record
      }
      arm_kill_at(dir, 0);  // the close's checkpoint never lands
    }
    injector.clear();
    arm_kill_at(dir, k);
    try {
      // Replays the three records, checkpoints them, resets the log.
      auto db = make_db(Backend::kGrDB, dir, config);
    } catch (const StorageError&) {
    }
    const bool fired = injector.triggered() > 0;
    injector.clear();
    auto db = make_db(Backend::kGrDB, dir, config);
    EXPECT_EQ(present_slices(*db, 3, k), 3) << "kill point " << k;
    if (!fired) {
      reached_end = true;
      break;
    }
  }
  EXPECT_TRUE(reached_end) << "sweep never ran fault-free (kMaxK too low?)";
  injector.clear();
}

// ---- Snapshot-mode sweep (epoch boundaries) --------------------------------
//
// The same kill-point discipline with snapshot isolation ON and readers
// pinned throughout the doomed epoch, so the sweep's faults land at
// every phase of the epoch machinery: mid-COW (store_edges shelving
// pre-images), mid-retirement (a pin released while the epoch is still
// open), and mid-advance (the flush that would commit).  Epochs and the
// version shelf are in-memory state — a kill anywhere must reopen to
// the last COMMITTED epoch with an empty shelf: no orphaned versions,
// and a snapshot of the recovered (quiescent) store must agree with its
// live state exactly.

void check_snapshot_recovered(Backend backend, const TempDir& dir,
                              const GraphDBConfig& config, std::uint64_t k) {
  auto db = make_db(backend, dir, config);  // must not throw
  // Reopen starts a fresh epoch history: nothing pinned, nothing shelved.
  const auto state = db->txn_state();
  EXPECT_EQ(state.live_snapshots, 0u) << "kill point " << k;
  EXPECT_EQ(state.versions, 0u)
      << "kill point " << k << ": orphaned versions after recovery";

  // A snapshot of the quiescent recovered store is indistinguishable
  // from its live state.
  SnapshotRef pin = db->begin_snapshot();
  ASSERT_NE(pin, nullptr);
  for (const VertexId v : {VertexId{0}, VertexId{4}, VertexId{10}}) {
    std::vector<VertexId> live;
    db->get_adjacency(v, live);
    std::vector<VertexId> pinned;
    {
      SnapshotScope scope(pin);
      db->get_adjacency(v, pinned);
    }
    EXPECT_EQ(sorted(pinned), sorted(live))
        << "kill point " << k << ": snapshot of recovered store diverges "
        << "from live state at vertex " << v;
  }
  pin.reset();
  EXPECT_EQ(db->txn_state().versions, 0u) << "kill point " << k;

  if (auto* grdb = dynamic_cast<GrDB*>(db.get())) {
    // The fsck path must still work post-recovery in snapshot mode:
    // poke_entry is exclusive maintenance (it quiesces readers), and
    // verify() must catch the dangling pointer it plants.
    grdb->poke_entry(0, 0, 1, grdb::make_pointer_entry(1, 9999));
    const auto report = grdb->verify();
    EXPECT_FALSE(report.ok())
        << "kill point " << k
        << ": fsck missed a planted dangling pointer after recovery";
  }
}

void run_snapshot_sweep(Backend backend, GraphDBConfig config) {
  config.snapshots = true;
  auto& injector = FaultInjector::instance();
  injector.clear();

  const std::uint64_t stride = sweep_stride();
  bool reached_end = false;
  std::uint64_t kill_points = 0;
  constexpr std::uint64_t kMaxK = 5000;
  for (std::uint64_t k = 0; k < kMaxK; k += stride) {
    TempDir dir;
    {
      auto db = make_db(backend, dir, config);
      db->store_edges(tiny_graph_directed());
      db->flush();
    }

    injector.clear();
    FaultInjector::Rule rule;
    rule.path_substring = dir.path().string();
    rule.op = FaultInjector::Op::kMutate;
    rule.kind = FaultInjector::Kind::kFail;
    rule.nth = k;
    rule.kill = true;
    injector.add_rule(rule);

    try {
      auto db = make_db(backend, dir, config);
      SnapshotRef early = db->begin_snapshot();  // pins the baseline epoch
      db->store_edges(second_batch());  // COW captures race the kill
      SnapshotRef mid = db->begin_snapshot();  // same epoch, pinned
                                               // mid-mutation
      {
        // Reads against the doomed epoch: the second batch must be
        // invisible to both pins right up to the commit that never comes.
        SnapshotScope scope(mid);
        std::vector<VertexId> out;
        db->get_adjacency(10, out);
        EXPECT_TRUE(out.empty()) << "kill point " << k;
        out.clear();
        db->get_adjacency(0, out);
        EXPECT_EQ(sorted(out), (std::vector<VertexId>{1, 3}))
            << "kill point " << k;
      }
      early.reset();  // retirement with the epoch still open
      db->flush();    // the advance the kill may interrupt
      mid.reset();    // retirement after the boundary
    } catch (const StorageError&) {
      // Expected for most kill points; destructors swallow the rest.
    }

    const bool fired = injector.triggered() > 0;
    injector.clear();

    // The committed-state checks are unchanged by snapshots: baseline
    // verbatim, second epoch all-or-nothing, structure fsck-clean.
    check_recovered(backend, dir, config, k);
    check_snapshot_recovered(backend, dir, config, k);
    if (!fired) {
      reached_end = true;
      break;
    }
    ++kill_points;
  }
  EXPECT_TRUE(reached_end) << "sweep never ran fault-free (kMaxK too low?)";
  EXPECT_GT(kill_points, 0u) << "sweep armed no kill point at all";
  injector.clear();
}

TEST_P(CrashRecovery, SnapshotModeSweepRecoversCommittedEpoch) {
  GraphDBConfig config;
  config.cache_bytes = 64u << 10;
  config.async_io = false;  // deterministic operation indices
  run_snapshot_sweep(GetParam(), config);
}

}  // namespace
}  // namespace mssg
