// Concurrency stress for the query engine — the suite ci_sanitize.sh
// runs under ThreadSanitizer.  Three layers:
//
//   1. the shared BlockCache hammered by raw threads (pin / re-reference
//      / evict / attribution) with content verification,
//   2. QueryScheduler admission control (max_inflight, exclusive
//      isolation, anti-starvation) probed with instrumented jobs,
//   3. eight real point-to-point searches racing over one MssgCluster's
//      shared 2Q caches, results checked against the serial engine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "mssg/mssg.hpp"
#include "storage/block_cache.hpp"

namespace mssg {
namespace {

constexpr std::size_t kBlockBytes = 512;

std::byte pattern_of(std::uint64_t block, std::size_t i) {
  return static_cast<std::byte>((block * 131 + i) & 0xff);
}

TEST(ConcurrencyStress, BlockCacheSharedByEightReaderThreads) {
  // Working set ~4x capacity, so the threads continuously evict each
  // other's probation blocks while re-referenced ones stay protected.
  constexpr std::uint64_t kBlocks = 64;
  BlockCache cache(16 * kBlockBytes);
  const std::uint16_t store = cache.register_store(
      kBlockBytes,
      [](std::uint64_t block, std::span<std::byte> out) {
        for (std::size_t i = 0; i < out.size(); ++i) {
          out[i] = pattern_of(block, i);
        }
      },
      [](std::uint64_t, std::span<const std::byte>) {});

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<CacheAttribution> attribution(kThreads);
  std::atomic<std::uint64_t> corrupt{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      CacheAttributionScope scope(&attribution[t]);
      // Per-thread deterministic op stream; a skewed pick keeps a hot
      // set re-referenced (protected) while the tail churns probation.
      std::uint64_t rng = 0x9e3779b97f4a7c15ull * (t + 1);
      for (int op = 0; op < kOpsPerThread; ++op) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const std::uint64_t block =
            (rng % 4 != 0) ? rng % 8 : rng % kBlocks;  // 3/4 hot picks
        const BlockHandle handle = cache.get(store, block);
        const auto data = handle.data();
        for (const std::size_t i : {std::size_t{0}, data.size() / 2}) {
          if (data[i] != pattern_of(block, i)) corrupt.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(corrupt.load(), 0u) << "a cached block served wrong bytes";
  // Attribution is exact: every get() was a hit or a miss for its thread.
  std::uint64_t attributed = 0;
  for (const auto& a : attribution) {
    attributed += a.hits.load() + a.misses.load();
  }
  EXPECT_EQ(attributed,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  // Unpinned residency respects capacity after the dust settles.
  EXPECT_LE(cache.resident_bytes(), cache.capacity_bytes());
}

TEST(ConcurrencyStress, SchedulerNeverExceedsMaxInflight) {
  MetricsRegistry traffic;
  CommWorld world(2, traffic);
  QuerySchedulerConfig config;
  config.max_inflight = 3;
  QueryScheduler scheduler(world, config);

  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::vector<QueryScheduler::Ticket> tickets;
  for (int q = 0; q < 10; ++q) {
    tickets.push_back(scheduler.submit(
        [&](Communicator& comm, QueryContext&) {
          if (comm.rank() == 0) {
            const int now = running.fetch_add(1) + 1;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            running.fetch_sub(1);
          }
          comm.barrier();
          return std::vector<double>{1.0};
        }));
  }
  for (const auto& ticket : tickets) {
    const QueryOutcome out = scheduler.await(ticket);
    ASSERT_TRUE(out.ok()) << out.error;
    EXPECT_EQ(out.result.at(0), 1.0);
  }
  EXPECT_LE(peak.load(), config.max_inflight);
  EXPECT_GE(peak.load(), 2) << "admission never overlapped two queries";

  const auto snap = scheduler.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("sched.queries"), 10u);
}

TEST(ConcurrencyStress, ExclusiveQueriesRunAloneAndDoNotStarve) {
  MetricsRegistry traffic;
  CommWorld world(2, traffic);
  QuerySchedulerConfig config;
  config.max_inflight = 4;
  QueryScheduler scheduler(world, config);

  std::atomic<int> shared_active{0};
  std::atomic<int> overlap_violations{0};
  const auto shared_job = [&](Communicator& comm, QueryContext&) {
    if (comm.rank() == 0) {
      shared_active.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      shared_active.fetch_sub(1);
    }
    comm.barrier();
    return std::vector<double>{};
  };
  const auto exclusive_job = [&](Communicator& comm, QueryContext&) {
    if (comm.rank() == 0 && shared_active.load() != 0) {
      overlap_violations.fetch_add(1);
    }
    comm.barrier();
    return std::vector<double>{};
  };

  // A stream of shared work before AND after the exclusive submission:
  // the pending exclusive must gate the later shared admissions (no
  // starvation) yet observe zero shared queries while it runs.
  std::vector<QueryScheduler::Ticket> tickets;
  for (int q = 0; q < 4; ++q) tickets.push_back(scheduler.submit(shared_job));
  tickets.push_back(scheduler.submit(exclusive_job, /*exclusive=*/true));
  for (int q = 0; q < 4; ++q) tickets.push_back(scheduler.submit(shared_job));
  for (const auto& ticket : tickets) {
    const QueryOutcome out = scheduler.await(ticket);
    ASSERT_TRUE(out.ok()) << out.error;
  }
  EXPECT_EQ(overlap_violations.load(), 0);
}

TEST(ConcurrencyStress, JobExceptionSurfacesAsOutcomeError) {
  MetricsRegistry traffic;
  CommWorld world(2, traffic);
  QueryScheduler scheduler(world);
  const QueryOutcome out =
      scheduler.run([](Communicator& comm, QueryContext&) -> std::vector<double> {
        comm.barrier();
        throw UsageError("boom");
      });
  EXPECT_FALSE(out.ok());
  EXPECT_NE(out.error.find("boom"), std::string::npos);
  const auto snap = scheduler.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("sched.failed"), 1u);
}

/// The tsan headline: eight real searches over one cluster's shared 2Q
/// caches, with per-query metrics and attribution racing the analyses.
TEST(ConcurrencyStress, EightSearchesShareOneClusterCache) {
  ChungLuConfig gen{.vertices = 400, .edges = 1800, .seed = 71};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);
  const auto pairs = sample_random_pairs(reference, 8, 13);
  ASSERT_EQ(pairs.size(), 8u);

  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 2;
  config.db.cache_bytes = 64 << 10;  // small: forces shared evictions
  config.db.max_vertices = gen.vertices;
  config.scheduler.max_inflight = 8;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  std::vector<QueryScheduler::Ticket> tickets;
  for (const auto& pair : pairs) {
    tickets.push_back(cluster.submit_analysis("cbfs", {pair.src, pair.dst}));
  }
  std::uint64_t attributed = 0;
  for (std::size_t q = 0; q < tickets.size(); ++q) {
    const QueryOutcome out = cluster.await_query(tickets[q]);
    ASSERT_TRUE(out.ok()) << out.error;
    ASSERT_GE(out.result.size(), 1u);
    EXPECT_EQ(static_cast<Metadata>(out.result.at(0)), pairs[q].distance)
        << "concurrent search diverged from the reference distance";
    attributed += out.cache_hits + out.cache_misses;
  }
  EXPECT_GT(attributed, 0u) << "no cache traffic attributed to queries";

  // The scheduler aggregate carries the per-query attribution rows and
  // the shared cache reports its 2Q split.
  const auto snap = cluster.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("sched.queries"), 8u);
  EXPECT_GT(snap.counter("cache.qprobation_hits") +
                snap.counter("cache.qprotected_hits"),
            0u);
}

TEST(ConcurrencyStress, SchedulerBudgetTruncatesConcurrentQuery) {
  ChungLuConfig gen{.vertices = 300, .edges = 1400, .seed = 77};
  const auto edges = generate_chung_lu(gen);
  const MemoryGraph reference(gen.vertices, edges);
  const auto pairs = sample_random_pairs(reference, 2, 19);
  ASSERT_FALSE(pairs.empty());

  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 2;
  config.scheduler.token_budget = 20;  // a handful of adjacency entries
  MssgCluster cluster(config);
  cluster.ingest(edges);

  // A destination outside the graph is never found, so the search keeps
  // expanding with a non-empty frontier until the tokens run out: this
  // run MUST truncate.
  const VertexId unreachable = static_cast<VertexId>(gen.vertices) + 1000;
  const QueryOutcome out = cluster.await_query(
      cluster.submit_analysis("cbfs", {pairs.front().src, unreachable}));
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_TRUE(out.truncated);

  const auto snap = cluster.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("sched.truncated"), 1u);

  // The flip side of the fix: a query that COMPLETES is never reported
  // truncated, even when its level-granular charging overran the budget
  // before the level-end check could fire.  (The old exhausted()-based
  // report flagged this complete, correct result as cut short.)
  const auto far = pairs.front();
  const QueryOutcome done =
      cluster.await_query(cluster.submit_analysis("cbfs", {far.src, far.dst}));
  ASSERT_TRUE(done.ok()) << done.error;
  ASSERT_GE(done.result.size(), 1u);
  EXPECT_EQ(static_cast<Metadata>(done.result.at(0)), far.distance);
  EXPECT_FALSE(done.truncated)
      << "completed search misreported as truncated";
  const auto snap2 = cluster.metrics_snapshot();
  EXPECT_EQ(snap2.counters.at("sched.truncated"), 1u);
}

}  // namespace
}  // namespace mssg
