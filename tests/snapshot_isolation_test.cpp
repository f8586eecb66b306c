// Snapshot isolation test suite (`txn` label; DESIGN.md "Snapshot
// isolation").  Three layers:
//
//   EpochMechanics   the primitives alone — EpochManager pin / advance /
//                    retire accounting and the VersionStore serving and
//                    purge rules.
//   SnapshotCow      COW through a real backend: pinned readers keep the
//                    pre-image while live state moves on, pages are
//                    captured once per epoch and shared by identity, and
//                    versions drain when the last reader releases.
//   SnapshotStress   8 reader threads racing 1 ingest thread on every
//                    backend, with a closed-form expected state — the
//                    suite ci_sanitize.sh runs under tsan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "storage/snapshot.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

using testing::batch_lists;
using testing::make_db;
using testing::sorted;

// ---- EpochMechanics --------------------------------------------------------

TEST(EpochMechanics, PinAdvanceRetireAccounting) {
  EpochManager epochs;
  EXPECT_EQ(epochs.current(), 0u);
  EXPECT_EQ(epochs.open(), 1u);
  EXPECT_EQ(epochs.min_live(), 0u);
  EXPECT_EQ(epochs.live_count(), 0u);

  // Two handles on epoch 0 count as ONE live epoch.
  SnapshotRef a = epochs.pin(&epochs, 0, false);
  SnapshotRef b = epochs.pin(&epochs, 0, false);
  EXPECT_EQ(a->epoch(), 0u);
  EXPECT_EQ(epochs.live_count(), 1u);

  EXPECT_EQ(epochs.advance(), 1u);
  EXPECT_EQ(epochs.current(), 1u);
  EXPECT_EQ(epochs.open(), 2u);
  // The old pin holds min_live back.
  EXPECT_EQ(epochs.min_live(), 0u);

  SnapshotRef c = epochs.pin(&epochs, 0, false);
  EXPECT_EQ(c->epoch(), 1u);
  EXPECT_EQ(epochs.live_count(), 2u);

  // Releasing one epoch-0 handle retires nothing; the second does.
  a.reset();
  EXPECT_EQ(epochs.min_live(), 0u);
  b.reset();
  EXPECT_EQ(epochs.min_live(), 1u);
  EXPECT_EQ(epochs.live_count(), 1u);
  c.reset();
  EXPECT_EQ(epochs.live_count(), 0u);
  EXPECT_EQ(epochs.min_live(), 1u);  // back to current()
}

TEST(EpochMechanics, RetireHookFiresWithNewMinLive) {
  EpochManager epochs;
  std::vector<Epoch> fired;
  epochs.set_retire_hook([&](Epoch min_live) { fired.push_back(min_live); });

  SnapshotRef e0 = epochs.pin(&epochs, 0, false);
  epochs.advance();
  SnapshotRef e1 = epochs.pin(&epochs, 0, false);
  epochs.advance();

  e0.reset();  // retires epoch 0; epoch 1 still pinned
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1u);
  e1.reset();  // retires epoch 1; nothing pinned -> min_live = current = 2
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1], 2u);
}

TEST(EpochMechanics, VersionStoreServesSmallestNewerCapture) {
  VersionStore<std::vector<VertexId>> versions;
  // Epoch history for key 7:  commit 0 state {1}; epoch-1 mutations
  // capture {1}; commit 1 state {1,2}; epoch-3 mutations capture {1,2}
  // (epoch 2 never touched the key).
  EXPECT_TRUE(versions.capture(7, 1, [] {
    return std::vector<VertexId>{1};
  }));
  // Second mutation in the same epoch: already covered.
  EXPECT_FALSE(versions.capture(7, 1, [] {
    return std::vector<VertexId>{99};
  }));
  EXPECT_TRUE(versions.capture(7, 3, [] {
    return std::vector<VertexId>{1, 2};
  }));
  EXPECT_EQ(versions.versions(), 2u);

  // Snapshot at 0 -> the epoch-1 capture; snapshots at 1 and 2 -> the
  // epoch-3 capture; snapshot at 3 -> live (nullptr).
  ASSERT_NE(versions.lookup(7, 0), nullptr);
  EXPECT_EQ(*versions.lookup(7, 0), (std::vector<VertexId>{1}));
  ASSERT_NE(versions.lookup(7, 1), nullptr);
  EXPECT_EQ(*versions.lookup(7, 1), (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(*versions.lookup(7, 2), (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(versions.lookup(7, 3), nullptr);
  EXPECT_EQ(versions.lookup(8, 0), nullptr);  // untouched key reads live

  // Identity: the same shelved payload is shared, not copied per read.
  EXPECT_EQ(versions.lookup(7, 0).get(), versions.lookup(7, 0).get());

  // pin() hands out the serving version unlatched, and otherwise a
  // shared latch under which the caller reads the live payload in place.
  {
    const auto served = versions.pin(7, 0);
    ASSERT_NE(served.version, nullptr);
    EXPECT_EQ(*served.version, (std::vector<VertexId>{1}));
    EXPECT_FALSE(served.latch.owns_lock());
  }
  {
    const auto live = versions.pin(7, 3);
    EXPECT_EQ(live.version, nullptr);
    EXPECT_TRUE(live.latch.owns_lock());
  }

  // Purge: min_live 1 drops only the epoch-1 capture (it serves pins
  // < 1); the epoch-3 capture still serves pins at 1 and 2.
  versions.purge(1);
  EXPECT_EQ(versions.versions(), 1u);
  // A pin at 0 would now (wrongly) fall through to the epoch-3 capture —
  // purge(1) is only legal because no such pin exists anymore.
  ASSERT_NE(versions.lookup(7, 2), nullptr);
  versions.purge(3);
  EXPECT_EQ(versions.versions(), 0u);
}

TEST(EpochMechanics, CaptureWaitsForLiveReadLatch) {
  // A reader reading key 7 live holds its latch; the writer's first
  // capture of the next epoch must not be shelved (and so the live bytes
  // must not change) until the reader lets go.
  VersionStore<std::vector<VertexId>> versions;
  auto live = versions.pin(7, 0);
  ASSERT_EQ(live.version, nullptr);
  std::atomic<bool> shelved{false};
  std::thread writer([&] {
    versions.capture(7, 1, [] { return std::vector<VertexId>{1}; });
    shelved.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(shelved.load()) << "capture shelved under a live-read latch";
  live.latch.unlock();
  writer.join();
  EXPECT_TRUE(shelved.load());
  ASSERT_NE(versions.lookup(7, 0), nullptr);
  EXPECT_EQ(*versions.lookup(7, 0), (std::vector<VertexId>{1}));
}

TEST(EpochMechanics, VertexSnapshotsRetireOnLastRelease) {
  VertexSnapshots txn;
  SnapshotRef pin = txn.epochs.pin(&txn, 0, false);
  txn.versions.capture(1, txn.epochs.open(), [] {
    return std::vector<VertexId>{};
  });
  txn.advance_and_purge();
  // The pin at epoch 0 keeps the epoch-1 capture alive across commits.
  EXPECT_EQ(txn.versions.versions(), 1u);
  txn.advance_and_purge();
  EXPECT_EQ(txn.versions.versions(), 1u);
  // Releasing the last reader purges promptly via the retire hook.
  pin.reset();
  EXPECT_EQ(txn.versions.versions(), 0u);
}

// ---- SnapshotCow -----------------------------------------------------------

class SnapshotCow : public ::testing::TestWithParam<Backend> {};

TEST_P(SnapshotCow, PinnedReadersKeepThePreImage) {
  TempDir dir;
  GraphDBConfig config;
  config.snapshots = true;
  auto db = make_db(GetParam(), dir, config);

  db->store_edges(std::vector<Edge>{{1, 10}, {2, 20}});
  db->flush();  // commit epoch 1
  SnapshotRef pin = db->begin_snapshot();
  ASSERT_NE(pin, nullptr);

  db->store_edges(std::vector<Edge>{{1, 11}, {3, 30}});
  db->flush();  // commit epoch 2: live state moves on

  {
    SnapshotScope scope(pin);
    std::vector<VertexId> adj;
    db->get_adjacency(1, adj);
    EXPECT_EQ(sorted(adj), (std::vector<VertexId>{10}));
    adj.clear();
    db->get_adjacency(3, adj);  // stored after the pin: invisible
    EXPECT_TRUE(adj.empty());
  }
  // The same thread outside the scope reads live.
  std::vector<VertexId> live;
  db->get_adjacency(1, live);
  EXPECT_EQ(sorted(live), (std::vector<VertexId>{10, 11}));
  live.clear();
  db->get_adjacency(3, live);
  EXPECT_EQ(live, (std::vector<VertexId>{30}));

  const auto pinned_state = db->txn_state();
  EXPECT_EQ(pinned_state.live_snapshots, 1u);
  // Releasing the last reader retires the epoch and drains its versions
  // (StreamDB shelves none: its versions are log prefixes).
  pin.reset();
  const auto drained = db->txn_state();
  EXPECT_EQ(drained.live_snapshots, 0u);
  EXPECT_EQ(drained.versions, 0u);
}

TEST_P(SnapshotCow, SnapshotPinnedMidEpochSeesLastCommitOnly) {
  TempDir dir;
  GraphDBConfig config;
  config.snapshots = true;
  auto db = make_db(GetParam(), dir, config);

  db->store_edges(std::vector<Edge>{{1, 10}});
  db->flush();
  // Mutations of the OPEN epoch land before the pin...
  db->store_edges(std::vector<Edge>{{1, 11}, {2, 20}});
  SnapshotRef pin = db->begin_snapshot();
  // ...and more after it; neither may leak into the snapshot.
  db->store_edges(std::vector<Edge>{{1, 12}});
  db->flush();

  SnapshotScope scope(pin);
  std::vector<VertexId> adj;
  db->get_adjacency(1, adj);
  EXPECT_EQ(sorted(adj), (std::vector<VertexId>{10}));
  adj.clear();
  db->get_adjacency(2, adj);
  EXPECT_TRUE(adj.empty());
}

TEST(SnapshotCowGrdb, CapturesCountedOncePerBlockPerEpoch) {
  TempDir dir;
  GraphDBConfig config;
  config.snapshots = true;
  auto db = make_db(Backend::kGrDB, dir, config);

  // Build a chain with slack: after 100 neighbors the tail subblock has
  // spare capacity, so the single-edge appends below mutate existing
  // blocks without allocating new ones.
  std::vector<Edge> bulk;
  for (VertexId i = 0; i < 100; ++i) bulk.push_back(Edge{1, 1000 + i});
  db->store_edges(bulk);
  db->flush();
  // Fresh blocks capture their empty pre-image.
  EXPECT_GT(db->metrics().counter("txn.cow_pages"), 0u);

  // First mutation of the new epoch captures the touched blocks...
  db->store_edges(std::vector<Edge>{{1, 2000}});
  const std::uint64_t mid = db->metrics().counter("txn.cow_pages");
  // ...and a second mutation of the SAME blocks in the SAME open epoch
  // must not grow the shelf.
  db->store_edges(std::vector<Edge>{{1, 2001}});
  EXPECT_EQ(db->metrics().counter("txn.cow_pages"), mid);

  // Snapshot reads are counted when they are served off the shelf.
  SnapshotRef pin = db->begin_snapshot();
  db->flush();
  {
    SnapshotScope scope(pin);
    std::vector<VertexId> adj;
    db->get_adjacency(1, adj);
    // The pin predates the flush, so it sees the first commit only.
    EXPECT_EQ(adj.size(), 100u);
  }
  EXPECT_GT(db->metrics().counter("txn.snapshot_reads"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SnapshotCow,
    ::testing::Values(Backend::kArray, Backend::kHashMap, Backend::kRelational,
                      Backend::kKVStore, Backend::kStream, Backend::kGrDB),
    [](const ::testing::TestParamInfo<Backend>& param_info) {
      switch (param_info.param) {
        case Backend::kArray: return std::string("Array");
        case Backend::kHashMap: return std::string("HashMap");
        case Backend::kRelational: return std::string("Relational");
        case Backend::kKVStore: return std::string("KVStore");
        case Backend::kStream: return std::string("StreamDB");
        case Backend::kGrDB: return std::string("GrDB");
      }
      return std::string("unknown");
    });

// ---- SnapshotStress --------------------------------------------------------

// The tsan workhorse: 8 snapshot readers racing 1 ingest thread on every
// backend.  Expected state is closed-form — after k committed batches
// every vertex's adjacency is exactly {kV+0 .. kV+k-1} — so each reader
// verifies full prefix consistency without a lock-protected oracle.
class SnapshotStress : public ::testing::TestWithParam<Backend> {};

void eight_readers_one_ingest(Backend backend, VertexId kV) {
  constexpr std::uint64_t kBatches = 20;

  TempDir dir;
  GraphDBConfig config;
  config.snapshots = true;
  auto db = make_db(backend, dir, config);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> lo{0}, hi{0};
  std::mutex fail_mu;
  std::vector<std::string> failures;
  auto fail = [&](const std::string& msg) {
    std::lock_guard<std::mutex> lock(fail_mu);
    failures.push_back(msg);
  };

  std::vector<VertexId> all(kV);
  std::iota(all.begin(), all.end(), VertexId{0});

  std::vector<std::thread> readers;
  for (int r = 0; r < 8; ++r) {
    readers.emplace_back([&, r] {
      for (std::uint64_t round = 0;
           !done.load(std::memory_order_acquire) && failures.empty();
           ++round) {
        const std::uint64_t floor = lo.load(std::memory_order_acquire);
        SnapshotScope scope(db->begin_snapshot());
        std::optional<std::size_t> k;
        // Half the readers sweep adjacency — every other round through
        // one batched read — and half enumerate vertices: every path
        // must serve the pinned epoch.
        if (r % 2 == 0) {
          std::vector<std::vector<VertexId>> batch;
          if (round % 2 == 1) {
            batch = batch_lists(*db, all);
            if (batch.size() != kV) {
              fail("batch visited " + std::to_string(batch.size()) +
                   " of " + std::to_string(kV) + " requests");
              return;
            }
          }
          for (VertexId v = 0; v < kV; ++v) {
            std::vector<VertexId> adj;
            if (round % 2 == 1) {
              adj = std::move(batch[v]);
            } else {
              db->get_adjacency(v, adj);
            }
            std::sort(adj.begin(), adj.end());
            for (std::size_t i = 0; i < adj.size(); ++i) {
              if (adj[i] != kV + i) {
                fail("torn adjacency at vertex " + std::to_string(v));
                return;
              }
            }
            if (!k) {
              k = adj.size();
            } else if (adj.size() != *k) {
              fail("epochs mixed across vertices");
              return;
            }
          }
          const std::uint64_t ceil = hi.load(std::memory_order_acquire);
          if (*k < floor || *k > ceil) {
            fail("snapshot outside committed bounds");
            return;
          }
        } else {
          std::uint64_t count = 0;
          db->for_each_vertex([&](VertexId) {
            ++count;
            return true;
          });
          // Before the first commit the sweep is empty; after it, every
          // vertex is stored.  Nothing in between may be visible.
          if (count != 0 && count != kV) {
            fail("partial vertex set: " + std::to_string(count));
            return;
          }
          if (floor >= 1 && count == 0) {
            fail("sweep missed a committed epoch");
            return;
          }
        }
      }
    });
  }

  for (std::uint64_t b = 0; b < kBatches; ++b) {
    hi.store(b + 1, std::memory_order_release);
    std::vector<Edge> batch;
    for (VertexId v = 0; v < kV; ++v) batch.push_back(Edge{v, kV + b});
    db->store_edges(batch);
    db->flush();
    lo.store(b + 1, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  for (const auto& msg : failures) ADD_FAILURE() << msg;

  // Quiescent: everything committed, nothing pinned, versions drained.
  const auto state = db->txn_state();
  EXPECT_EQ(state.live_snapshots, 0u);
  EXPECT_EQ(state.versions, 0u);
  std::vector<VertexId> adj;
  db->get_adjacency(0, adj);
  EXPECT_EQ(sorted(adj).size(), kBatches);
}

TEST_P(SnapshotStress, EightReadersOneIngest) {
  // Six vertices share one level-0 block; 800 span four (256 level-0
  // sub-blocks per grDB block), so readers cross block boundaries while
  // the writer's first captures of each epoch land.
  for (const VertexId vertices : {VertexId{6}, VertexId{800}}) {
    SCOPED_TRACE(::testing::Message() << "vertices=" << vertices);
    eight_readers_one_ingest(GetParam(), vertices);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SnapshotStress,
    ::testing::Values(Backend::kArray, Backend::kHashMap, Backend::kRelational,
                      Backend::kKVStore, Backend::kStream, Backend::kGrDB),
    [](const ::testing::TestParamInfo<Backend>& param_info) {
      switch (param_info.param) {
        case Backend::kArray: return std::string("Array");
        case Backend::kHashMap: return std::string("HashMap");
        case Backend::kRelational: return std::string("Relational");
        case Backend::kKVStore: return std::string("KVStore");
        case Backend::kStream: return std::string("StreamDB");
        case Backend::kGrDB: return std::string("GrDB");
      }
      return std::string("unknown");
    });

}  // namespace
}  // namespace mssg
