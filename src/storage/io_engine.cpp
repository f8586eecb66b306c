#include "storage/io_engine.hpp"

#include <algorithm>
#include <cassert>
#include <exception>
#include <iterator>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/timer.hpp"
#include "storage/fault_injector.hpp"

namespace mssg {

namespace {
// File → lane.  All requests against one file share a lane (and thus a
// worker's FIFO), which is what preserves per-file submission order.
// Null-file requests (resolved without disk I/O) ride lane 0.  The
// address is mixed before the modulo: heap Files are 16-byte aligned, so
// the address itself mod 2 or 4 (std::hash of a pointer) is always 0.
// The alignment bits are dropped, a multiply by an odd constant spreads
// the rest into the high half, and the high half picks the lane.
std::size_t lane_of(const File* file, std::size_t lanes) {
  if (file == nullptr || lanes == 1) return 0;
  const std::uint64_t mixed =
      (reinterpret_cast<std::uintptr_t>(file) >> 4) * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(mixed >> 32) % lanes;
}
}  // namespace

IoEngine::IoEngine(IoEngineOptions options) : options_(options) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.max_merge == 0) options_.max_merge = 1;
  if (options_.stats != nullptr) {
    MetricsRegistry& reg = options_.stats->registry;
    reg.counter("io.engine.lanes") += options_.workers;
    batches_ = &reg.counter("span.io.engine.batch");
    batch_micros_ = &reg.histogram("span.io.engine.batch.us");
    queue_depth_ = &reg.histogram("io.engine.queue_depth");
    batch_requests_ = &reg.histogram("io.engine.batch_requests");
  }
  lanes_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    auto lane = std::make_unique<Lane>();
    lane->read_spans.reserve(options_.max_merge);
    lane->write_spans.reserve(options_.max_merge);
    lanes_.push_back(std::move(lane));
  }
  // Start threads only after the lane vector is final (a worker must
  // never observe lanes_ resizing).
  for (auto& lane : lanes_) {
    lane->worker = std::thread([this, &lane = *lane] { worker_loop(lane); });
  }
}

IoEngine::~IoEngine() {
  {
    std::unique_lock lock(mutex_);
    // stop_ lets each worker exit only once its lane is empty, so every
    // accepted write-behind request still reaches disk.
    stop_ = true;
  }
  for (auto& lane : lanes_) lane->work_cv.notify_all();
  for (auto& lane : lanes_) lane->worker.join();
  // Workers are gone; completed_ is plain data now.  A failed final
  // write's error sitting here unpolled must not vanish silently (the
  // old engine's bug): log each and count them.
  std::uint64_t dropped = 0;
  for (const std::vector<IoRequest>& batch : completed_) {
    for (const IoRequest& req : batch) {
      if (req.error.empty()) continue;
      ++dropped;
      MSSG_LOG(kWarn) << "IoEngine destroyed with unpolled I/O error (key "
                      << req.key << "): " << req.error;
    }
  }
  if (options_.stats != nullptr) {
    options_.stats->engine_dropped_errors += dropped;
  }
  // Destroying an engine without polling a failed request is a caller
  // bug — the error had nowhere to surface.  (MSSG_CHECK throws, which a
  // destructor cannot; assert matches the BlockCache leak check.)
  assert(dropped == 0 && "IoEngine destroyed with unpolled I/O errors");
}

void IoEngine::submit(std::vector<IoRequest> batch) {
  if (batch.empty()) return;
  // Sort on the submitting thread: each worker then issues its share in
  // ascending file-offset order.  Stable, so two writes to the same
  // offset land in submission order.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const IoRequest& a, const IoRequest& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.offset < b.offset;
                   });
  // Split into per-lane sub-batches.  The batch is sorted by file, so
  // each lane's slice stays (file, offset)-sorted — the order the merge
  // pass in execute_batch relies on.
  std::vector<std::vector<IoRequest>> per_lane(lanes_.size());
  for (IoRequest& req : batch) {
    per_lane[lane_of(req.file, lanes_.size())].push_back(std::move(req));
  }
  bool notify[64] = {};  // lanes_ is small; see MSSG_CHECK below
  MSSG_CHECK(lanes_.size() <= 64);
  {
    std::unique_lock lock(mutex_);
    for (std::size_t i = 0; i < per_lane.size(); ++i) {
      if (per_lane[i].empty()) continue;
      Lane& lane = *lanes_[i];
      // Drop the consumed prefix here, not on the worker.
      if (lane.head == lane.queue.size()) {
        lane.queue.clear();
        lane.head = 0;
      } else if (2 * lane.head > lane.queue.size()) {
        lane.queue.erase(lane.queue.begin(),
                         lane.queue.begin() + static_cast<std::ptrdiff_t>(
                                                  lane.head));
        lane.head = 0;
      }
      lane.queue.push_back(std::move(per_lane[i]));
      ++queued_batches_;
      notify[i] = true;
    }
    completed_.reserve(completed_.size() + queued_batches_ + busy_workers_);
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (notify[i]) lanes_[i]->work_cv.notify_one();
  }
}

std::vector<IoRequest> IoEngine::poll_completions() {
  std::vector<std::vector<IoRequest>> batches;
  {
    std::unique_lock lock(mutex_);
    batches.swap(completed_);
    completed_.reserve(queued_batches_ + busy_workers_);
    completions_ready_.store(0, std::memory_order_release);
  }
  if (batches.size() == 1) return std::move(batches.front());
  std::size_t total = 0;
  for (const std::vector<IoRequest>& batch : batches) total += batch.size();
  std::vector<IoRequest> done;
  done.reserve(total);
  for (std::vector<IoRequest>& batch : batches) {
    std::move(batch.begin(), batch.end(), std::back_inserter(done));
  }
  return done;
}

void IoEngine::wait_for_completion() {
  std::unique_lock lock(mutex_);
  // Progress is the sequence number, not completed_: a batch that
  // completes and is immediately polled by another thread still counts
  // as "something happened since I started waiting".
  const std::uint64_t start = completion_seq_;
  done_cv_.wait(lock, [this, start] {
    return completion_seq_ != start || !completed_.empty() ||
           (queued_batches_ == 0 && busy_workers_ == 0);
  });
}

void IoEngine::drain() const {
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock,
                [this] { return queued_batches_ == 0 && busy_workers_ == 0; });
}

std::size_t IoEngine::queue_depth() const {
  std::unique_lock lock(mutex_);
  return queued_batches_;
}

void IoEngine::execute_batch(Lane& lane,
                             std::vector<IoRequest>& batch) const {
  // Fuse runs of adjacent requests (same file, same kind, byte ranges
  // touching) into one vectored op.  The batch is (file, offset)-sorted,
  // so runs are maximal by construction; same-offset duplicates are
  // never contiguous (next.offset != prev.offset + prev.size) and thus
  // execute as separate ops in submission order.  With the FaultInjector
  // armed, merging is disabled so fault indices stay per-request.
  const bool merging =
      options_.max_merge > 1 && !FaultInjector::instance().enabled();
  std::size_t i = 0;
  while (i < batch.size()) {
    IoRequest& head = batch[i];
    if (head.file == nullptr) {  // resolved without disk I/O
      ++i;
      continue;
    }
    std::size_t run = 1;
    if (merging) {
      std::uint64_t end = head.offset + head.buffer.size();
      while (i + run < batch.size() && run < options_.max_merge) {
        const IoRequest& next = batch[i + run];
        if (next.file != head.file || next.kind != head.kind ||
            next.offset != end || next.buffer.empty()) {
          break;
        }
        end += next.buffer.size();
        ++run;
      }
    }
    // An exception must not escape the worker thread (std::terminate)
    // nor be swallowed: record it on every request of the run so
    // poll_completions() hands the failure back to the owning thread.
    try {
      if (run == 1) {
        if (head.kind == IoRequest::Kind::kRead) {
          head.file->read_at(head.offset, head.buffer);
        } else {
          head.file->write_at(head.offset, head.buffer);
        }
      } else if (head.kind == IoRequest::Kind::kRead) {
        lane.read_spans.clear();
        for (std::size_t j = 0; j < run; ++j) {
          lane.read_spans.emplace_back(batch[i + j].buffer);
        }
        head.file->read_vectored(head.offset, lane.read_spans);
      } else {
        lane.write_spans.clear();
        for (std::size_t j = 0; j < run; ++j) {
          lane.write_spans.emplace_back(batch[i + j].buffer);
        }
        head.file->write_vectored(head.offset, lane.write_spans);
      }
      if (run > 1 && options_.stats != nullptr) {
        options_.stats->vectored_merges += run - 1;
      }
    } catch (const std::exception& e) {
      for (std::size_t j = 0; j < run; ++j) {
        batch[i + j].error = e.what();
        if (batch[i + j].error.empty()) batch[i + j].error = "async I/O failed";
      }
    }
    i += run;
  }
}

void IoEngine::worker_loop(Lane& lane) {
  for (;;) {
    std::vector<IoRequest> batch;
    {
      std::unique_lock lock(mutex_);
      const auto pending = [&] { return lane.head < lane.queue.size(); };
      lane.work_cv.wait(lock, [&] { return pending() || stop_; });
      if (!pending()) {
        if (stop_) return;
        continue;
      }
      if (queue_depth_ != nullptr) queue_depth_->record(queued_batches_);
      batch = std::move(lane.queue[lane.head++]);
      --queued_batches_;
      // Dequeue and busy-increment in ONE critical section: there is no
      // instant where the queue looks empty while the work is not yet
      // accounted busy (the drain()-returns-early window).
      ++busy_workers_;
    }

    Timer timer;
    execute_batch(lane, batch);
    // Counted before the handoff below, so a drain() that returns has
    // seen this batch's accounting.
    if (batches_ != nullptr) {
      ++*batches_;
      batch_micros_->record(timer.nanos() / 1000);
      batch_requests_->record(batch.size());
    }

    {
      std::unique_lock lock(mutex_);
      // The whole vector moves (no element copy, no free here), into
      // capacity that submit() reserved.
      completed_.push_back(std::move(batch));
      --busy_workers_;
      ++completion_seq_;
      completions_ready_.store(completed_.size(), std::memory_order_release);
    }
    done_cv_.notify_all();
  }
}

}  // namespace mssg
