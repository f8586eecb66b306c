// Background read-ahead engine — the asynchronous disk path of one
// simulated cluster node.  FlashGraph-style: the block cache batches the
// next fringe's block reads, the engine sorts each batch by (file,
// offset) so the disk sees ascending offsets ("sorting the pre-fetch
// disk accesses by file offsets to reduce the seek overhead", §4.2), and
// one worker thread issues them while the owning thread keeps computing;
// the cache adopts the filled buffers later (completion handoff).
// Batches execute one at a time in submission order.  Within a batch,
// adjacent requests (same file, touching byte ranges) are fused into a
// single vectored preadv ("merging I/O requests into larger ones"),
// counted in IoStats::vectored_merges.
//
// The engine only reads: dirty blocks are written back synchronously by
// the block cache on the thread that evicts or flushes them.
//
// Threading contract: the worker touches ONLY the File objects named in
// requests (positional reads on a shared fd are thread-safe).  All store
// metadata — cache maps, grDB level bitmaps, file-handle tables — is
// resolved by the owning thread at submit time, and completions flow
// back to it through poll_completions(); the queue mutex orders the
// handoff.  Accounting does not wait for the poll: the worker's I/O is
// counted when it runs, in the IoStats bound to each File, and the
// engine records its own counters and histograms (below) into the
// registry of `IoEngineOptions::stats` — all relaxed atomics, readable
// at any moment.
//
// The worker neither allocates nor frees on the success path: the queue
// and the completion list are sized by the submitting and polling
// threads, a batch's vector travels back whole, and a vectored run's
// spans live in engine-owned scratch.  glibc gives every thread that
// calls malloc or free its own arena, whose freed pages stay resident
// (DESIGN.md, "The worker does not touch the heap").
//
// drain() (and the destructor) block until every submitted request has
// executed.  Errors still unpolled at destruction are NOT lost silently:
// each is logged and counted in IoStats::engine_dropped_errors (and
// debug builds assert — destroying an engine without polling a failed
// request is a caller bug).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "storage/file.hpp"
#include "storage/io_stats.hpp"

namespace mssg {

/// One block-sized read.  `key` is an opaque caller tag (the block cache
/// stores its map key there) returned untouched with the completion.
/// The File must outlive the request; drain before closing or destroying
/// the target file.
struct IoRequest {
  const File* file = nullptr;
  std::uint64_t offset = 0;
  std::vector<std::byte> buffer;  ///< destination
  std::uint64_t key = 0;
  std::string error;  ///< non-empty if the worker's I/O threw; the
                      ///< completion then carries the failure back to
                      ///< the owning thread instead of killing the worker
};

struct IoEngineOptions {
  /// Max requests fused into one vectored preadv; 1 disables merging.
  /// Kept well under IOV_MAX.
  std::size_t max_merge = 16;
  /// Where the engine counts: vectored_merges and engine_dropped_errors,
  /// plus, in the same registry, one "span.io.engine.batch" (+ ".us"
  /// duration histogram) per executed batch, and the
  /// "io.engine.queue_depth" / "io.engine.batch_requests" histograms.
  /// May be null (nothing is counted).  Must outlive the engine.
  IoStats* stats = nullptr;
};

class IoEngine {
 public:
  /// Starts the worker thread.
  explicit IoEngine(IoEngineOptions options = {});

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  /// Lets the worker finish the queue, then joins it.  Unpolled
  /// completions are discarded — except their errors, which are logged
  /// and counted in `options.stats`; debug builds assert that no
  /// *failed* request is dropped this way.
  ~IoEngine();

  /// Queues a batch, sorted by (file, offset) on the calling thread.
  /// One TraceSpan is recorded per executed batch.
  void submit(std::vector<IoRequest> batch);

  /// True when poll_completions() would return something (lock-free).
  [[nodiscard]] bool has_completions() const {
    return completions_ready_.load(std::memory_order_acquire) != 0;
  }

  /// Takes every finished request, in execution order.  Owning thread
  /// only.
  std::vector<IoRequest> poll_completions();

  /// Blocks until the engine is idle, or at least one batch completes
  /// after the call began (whichever first).  The progress condition is
  /// a completion *sequence number*, not "completed_ non-empty": if a
  /// concurrent poller takes the completion between the worker's notify
  /// and this thread's wake-up, the call still returns instead of
  /// waiting on unrelated future work.
  void wait_for_completion();

  /// Blocks until every submitted request has executed.  Completions
  /// still need polling afterwards.  Logically const: observes the queue
  /// without altering any request.
  void drain() const;

  /// Batches not yet picked up by the worker (approximate; for tests).
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  void worker_loop();
  /// Executes one batch (sorted by file/offset), fusing adjacent
  /// same-file runs into vectored reads.  Runs without the lock.
  void execute_batch(std::vector<IoRequest>& batch);
  [[nodiscard]] std::size_t queued() const { return queue_.size() - head_; }

  IoEngineOptions options_;
  // Handles into options_.stats->registry, resolved once (null when
  // options_.stats is).
  Counter* batches_ = nullptr;
  Histogram* batch_micros_ = nullptr;
  Histogram* queue_depth_ = nullptr;
  Histogram* batch_requests_ = nullptr;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  // mutable like the mutex: drain() is logically const but waits here.
  mutable std::condition_variable done_cv_;  ///< completion / idleness
  /// FIFO of batches: [head_, size) are pending.  The worker moves one
  /// out and advances head_; submit() clears or compacts the consumed
  /// prefix, so the worker never frees a queue slot.
  std::vector<std::vector<IoRequest>> queue_;
  std::size_t head_ = 0;
  /// Span scratch for one vectored run (worker only), reserved to
  /// max_merge.
  std::vector<std::span<std::byte>> spans_;
  /// Executed batches, in completion order.  Its capacity always covers
  /// every queued and running batch (submit() and poll_completions()
  /// reserve it), so the worker's push never allocates.
  std::vector<std::vector<IoRequest>> completed_;
  bool busy_ = false;                 ///< the worker is running a batch
  std::uint64_t completion_seq_ = 0;  ///< bumped per executed batch
  bool stop_ = false;
  std::atomic<std::uint64_t> completions_ready_{0};
  std::thread worker_;  // last: starts once every member above exists
};

}  // namespace mssg
