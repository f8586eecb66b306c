// Background I/O engine — the asynchronous disk path of one simulated
// cluster node.  FlashGraph-style: callers batch block requests, the
// engine sorts each batch by (file, offset) so the disk sees ascending
// offsets ("sorting the pre-fetch disk accesses by file offsets to
// reduce the seek overhead", §4.2), and N worker threads issue them
// while the owning thread keeps computing.  Two request kinds:
//
//  - read-ahead: the block cache submits the next fringe's blocks and
//    adopts the filled buffers later (completion handoff);
//  - write-behind: the block cache hands over evicted-dirty payloads so
//    eviction never blocks the caller's critical path.
//
// Parallelism model: each worker owns one *lane* (a FIFO of sub-batches)
// and submit() routes every request by hash(file) → lane.  All requests
// against one file therefore execute on one worker in submission order —
// two writes to the same offset still land in the order they were
// submitted — while requests against different files proceed in
// parallel.  Within a sub-batch, adjacent requests (same file, same
// kind, touching byte ranges) are fused into a single vectored
// preadv/pwritev ("merging I/O requests into larger ones"), counted in
// IoStats::vectored_merges.
//
// Threading contract: workers touch ONLY the File objects named in
// requests (positional I/O on a shared fd is thread-safe).  All store
// metadata — cache maps, grDB level bitmaps, file-handle tables — is
// resolved by the owning thread at submit time, and completions flow
// back to it through poll_completions(); the queue mutex orders the
// handoff.  Accounting does not wait for the poll: a worker's I/O is
// counted when it runs, in the IoStats bound to each File, and the
// engine records its own counters and histograms (below) into the
// registry of `IoEngineOptions::stats` — all relaxed atomics, readable
// at any moment.
//
// Workers neither allocate nor free on the success path: lane FIFOs and
// the completion list are sized by the submitting and polling threads,
// a sub-batch's vector travels back whole, and a vectored run's spans
// live in lane-owned scratch.  glibc gives every thread that calls
// malloc or free its own arena, whose freed pages stay resident: an
// arena per busy worker raised perfbench search_ooc's peak RSS by about
// a fifth (DESIGN.md, "Workers do not touch the heap").
//
// drain() (and the destructor) block until every submitted request has
// executed, so flush-time durability is preserved: nothing the engine
// accepted is lost.  Errors still unpolled at destruction are NOT lost
// silently: each is logged and counted in IoStats::engine_dropped_errors
// (and debug builds assert — destroying an engine without polling a
// failed write is a caller bug).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "storage/file.hpp"
#include "storage/io_stats.hpp"

namespace mssg {

/// One block-sized request.  `key` is an opaque caller tag (the block
/// cache stores its map key there) returned untouched with the
/// completion.  The File must outlive the request; drain before closing
/// or destroying the target file.
struct IoRequest {
  enum class Kind : std::uint8_t { kRead, kWrite };

  Kind kind = Kind::kRead;
  const File* file = nullptr;
  std::uint64_t offset = 0;
  std::vector<std::byte> buffer;  ///< read: destination; write: payload
  std::uint64_t key = 0;
  std::string error;  ///< non-empty if the worker's I/O threw; the
                      ///< completion then carries the failure back to
                      ///< the owning thread instead of killing the worker
};

struct IoEngineOptions {
  /// Worker threads (= lanes).  1 reproduces the original single-worker
  /// engine exactly (one lane, one FIFO).
  std::size_t workers = 1;
  /// Max requests fused into one vectored preadv/pwritev; 1 disables
  /// merging.  Kept well under IOV_MAX.
  std::size_t max_merge = 16;
  /// Where the engine counts: vectored_merges and engine_dropped_errors,
  /// plus, in the same registry, "io.engine.lanes", one
  /// "span.io.engine.batch" (+ ".us" duration histogram) per executed
  /// sub-batch, and the "io.engine.queue_depth" /
  /// "io.engine.batch_requests" histograms.  May be null (nothing is
  /// counted).  Must outlive the engine.
  IoStats* stats = nullptr;
};

class IoEngine {
 public:
  /// Starts the worker threads.
  explicit IoEngine(IoEngineOptions options = {});

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  /// Drains all queued requests (write-behind durability), then joins
  /// the workers.  Unpolled completions are discarded — except their
  /// errors, which are logged and counted in `options.stats`; debug
  /// builds assert that no *failed* request is dropped this way.
  ~IoEngine();

  /// Queues a batch.  The batch is stably sorted by (file, offset),
  /// then split into per-lane sub-batches by hash(file) — so requests
  /// against one file keep submission order (same-offset writes
  /// included) while different files fan out across workers.  One
  /// TraceSpan is recorded per executed sub-batch.
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
  /// waiting on unrelated future work (the lost-wakeup window the
  /// multi-worker engine would otherwise widen).
  void wait_for_completion();

  /// Blocks until every submitted request has executed.  Completions
  /// still need polling afterwards.  Logically const: observes the queue
  /// without altering any request.
  void drain() const;

  /// Sub-batches not yet picked up by a worker, across all lanes
  /// (approximate; for tests).
  [[nodiscard]] std::size_t queue_depth() const;

  [[nodiscard]] std::size_t workers() const { return lanes_.size(); }

 private:
  // Each worker owns one lane: a FIFO of sub-batches plus its wake-up
  // signal.  The queues themselves are guarded by the engine-wide
  // mutex_ (disk time dominates, so one mutex sees no contention in
  // practice, and it keeps the quiescence predicates trivially correct).
  struct Lane {
    /// FIFO of sub-batches: [head, size) are pending.  The worker moves
    /// one out and advances head; submit() clears or compacts the
    /// consumed prefix, so the worker never frees a queue slot.
    std::vector<std::vector<IoRequest>> queue;
    std::size_t head = 0;
    /// Span scratch for one vectored run, reserved to max_merge.
    std::vector<std::span<std::byte>> read_spans;
    std::vector<std::span<const std::byte>> write_spans;
    std::condition_variable work_cv;
    std::thread worker;
  };

  void worker_loop(Lane& lane);
  /// Executes one sub-batch (sorted by file/offset), fusing adjacent
  /// same-file same-kind runs into vectored ops.  Runs without the lock.
  void execute_batch(Lane& lane, std::vector<IoRequest>& batch) const;

  IoEngineOptions options_;
  // Handles into options_.stats->registry, resolved once (null when
  // options_.stats is).
  Counter* batches_ = nullptr;
  Histogram* batch_micros_ = nullptr;
  Histogram* queue_depth_ = nullptr;
  Histogram* batch_requests_ = nullptr;
  mutable std::mutex mutex_;
  // mutable like the mutex: drain() is logically const but waits here.
  mutable std::condition_variable done_cv_;  ///< completion / idleness
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// Executed sub-batches, in completion order.  Its capacity always
  /// covers every queued and running sub-batch (submit() and
  /// poll_completions() reserve it), so a worker's push never allocates.
  std::vector<std::vector<IoRequest>> completed_;
  std::size_t queued_batches_ = 0;  ///< sub-batches across all lanes
  std::size_t busy_workers_ = 0;
  std::uint64_t completion_seq_ = 0;  ///< bumped per executed sub-batch
  bool stop_ = false;
  std::atomic<std::uint64_t> completions_ready_{0};
};

}  // namespace mssg
