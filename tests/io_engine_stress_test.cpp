// IoEngine stress — the tsan drill for the read-ahead engine's handoffs.
// Several submitter threads, a dedicated poller, waiters, and a registry
// reader hammer one engine (one worker) across several files at once;
// the invariants checked (no request lost, no request failed, every
// buffer holding the bytes of the block it named, accounting totals
// reconcile) must hold under every interleaving.  Runs under both
// sanitizers via the `io` ctest label (tools/ci_sanitize.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "common/temp_dir.hpp"
#include "storage/file.hpp"
#include "storage/io_engine.hpp"

namespace mssg {
namespace {

constexpr std::size_t kBlock = 256;

std::vector<std::byte> pattern_block(std::uint64_t idx) {
  return std::vector<std::byte>(kBlock,
                                std::byte{static_cast<std::uint8_t>(idx)});
}

TEST(IoEngineStress, ConcurrentSubmitPollDrainAcrossWorkers) {
  constexpr std::size_t kFiles = 4;
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kBatches = 48;     // per submitter
  constexpr std::size_t kPerBatch = 8;     // requests per batch
  constexpr std::size_t kTotal = kSubmitters * kBatches * kPerBatch;

  TempDir dir;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  std::vector<std::unique_ptr<File>> files;
  for (std::size_t f = 0; f < kFiles; ++f) {
    files.push_back(std::make_unique<File>(
        File::open(dir.path() / ("data" + std::to_string(f)), &stats)));
  }

  // Every request gets a globally unique index; file and offset derive
  // from it, and the block there holds the index's pattern.
  auto file_of = [&](std::uint64_t idx) { return files[idx % kFiles].get(); };
  auto offset_of = [&](std::uint64_t idx) { return (idx / kFiles) * kBlock; };
  for (std::uint64_t idx = 0; idx < kTotal; ++idx) {
    file_of(idx)->write_at(offset_of(idx), pattern_block(idx));
  }
  const std::uint64_t reads_before = stats.reads;

  IoEngine engine({.stats = &stats});

  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (std::size_t b = 0; b < kBatches; ++b) {
        std::vector<IoRequest> batch;
        for (std::size_t r = 0; r < kPerBatch; ++r) {
          const std::uint64_t idx = (s * kBatches + b) * kPerBatch + r;
          IoRequest req;
          req.file = file_of(idx);
          req.offset = offset_of(idx);
          req.buffer.resize(kBlock);
          req.key = idx;
          batch.push_back(std::move(req));
        }
        engine.submit(std::move(batch));
        if (b % 8 == 0) engine.wait_for_completion();
      }
    });
  }

  // Concurrent poller: steals completions while submitters and the
  // worker are both live.  Every completion must carry an empty error, a
  // key it was submitted with and the bytes of the block that key names.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> polled{0};
  const auto check = [&](const IoRequest& req) {
    EXPECT_TRUE(req.error.empty()) << req.error;
    ASSERT_LT(req.key, kTotal);
    EXPECT_EQ(req.buffer, pattern_block(req.key)) << "request " << req.key;
    polled.fetch_add(1, std::memory_order_relaxed);
  };
  std::thread poller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const IoRequest& req : engine.poll_completions()) check(req);
      std::this_thread::yield();
    }
  });

  for (auto& t : submitters) t.join();
  engine.drain();
  stop.store(true, std::memory_order_release);
  poller.join();
  // Whatever the poller's last pass missed is still queued as completed.
  for (const IoRequest& req : engine.poll_completions()) check(req);

  // Nothing lost, everything accounted (as it ran, on the worker): one
  // read syscall per request or per merged run.
  EXPECT_EQ(polled.load(), kTotal);
  EXPECT_EQ(stats.reads - reads_before + stats.vectored_merges, kTotal);
  EXPECT_EQ(stats.engine_dropped_errors, 0u);
}

// The lost-wakeup regression: null-file-only batches complete almost
// instantly, and an aggressive concurrent poller used to steal the
// completion between the worker's notify and the waiter's wake-up —
// leaving wait_for_completion() blocked on "completed_ non-empty"
// forever.  The sequence-number predicate must return regardless.
TEST(IoEngineStress, WaitForCompletionSurvivesConcurrentPoller) {
  IoEngine engine;

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)engine.poll_completions();
    }
  });

  for (std::uint64_t i = 0; i < 200; ++i) {
    std::vector<IoRequest> batch;
    IoRequest req;
    req.file = nullptr;  // resolved without disk I/O
    req.key = i;
    batch.push_back(std::move(req));
    engine.submit(std::move(batch));
    engine.wait_for_completion();  // must not hang
  }

  engine.drain();
  stop.store(true, std::memory_order_release);
  poller.join();
}

// The engine's registry is read live, with no quiescing, while a
// submitter keeps the worker busy: totals can only grow between
// snapshots, tsan must see no unsynchronized access, and once drained
// the counts reconcile with what was submitted.
TEST(IoEngineStress, MetricsSnapshotRacesSubmitters) {
  TempDir dir;
  MetricsRegistry metrics;
  IoStats stats(metrics);
  File file = File::open(dir.path() / "data", &stats);
  for (std::uint64_t slot = 0; slot < 64; ++slot) {
    file.write_at(slot * kBlock, pattern_block(slot));
  }
  const std::uint64_t reads_before = stats.reads;
  IoEngine engine({.stats = &stats});

  std::atomic<bool> stop{false};
  std::uint64_t n = 0;  // batches submitted (one read each)
  std::thread submitter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<IoRequest> batch;
      IoRequest req;
      req.file = &file;
      req.offset = (n++ % 64) * kBlock;
      req.buffer.resize(kBlock);
      batch.push_back(std::move(req));
      engine.submit(std::move(batch));
    }
  });

  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = metrics.snapshot();
    const std::uint64_t batches = snap.counter("span.io.engine.batch");
    EXPECT_GE(batches, last);
    last = batches;
  }
  stop.store(true, std::memory_order_release);
  submitter.join();
  engine.drain();
  (void)engine.poll_completions();
  const MetricsSnapshot final_counts = metrics.snapshot();
  EXPECT_EQ(final_counts.counter("span.io.engine.batch"), n);
  EXPECT_EQ(final_counts.counter("io.reads") - reads_before, n);
}

}  // namespace
}  // namespace mssg
