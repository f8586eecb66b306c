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

IoEngine::IoEngine(IoEngineOptions options) : options_(options) {
  if (options_.max_merge == 0) options_.max_merge = 1;
  if (options_.stats != nullptr) {
    MetricsRegistry& reg = options_.stats->registry;
    batches_ = &reg.counter("span.io.engine.batch");
    batch_micros_ = &reg.histogram("span.io.engine.batch.us");
    queue_depth_ = &reg.histogram("io.engine.queue_depth");
    batch_requests_ = &reg.histogram("io.engine.batch_requests");
  }
  spans_.reserve(options_.max_merge);
  worker_ = std::thread([this] { worker_loop(); });
}

IoEngine::~IoEngine() {
  {
    std::unique_lock lock(mutex_);
    // stop_ lets the worker exit only once the queue is empty.
    stop_ = true;
  }
  work_cv_.notify_all();
  worker_.join();
  // The worker is gone; completed_ is plain data now.  A failed read's
  // error sitting here unpolled must not vanish silently: log each and
  // count them.
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
  // Sort on the submitting thread: the worker then issues the batch in
  // ascending file-offset order, the order the merge pass relies on.
  std::sort(batch.begin(), batch.end(),
            [](const IoRequest& a, const IoRequest& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.offset < b.offset;
            });
  {
    std::unique_lock lock(mutex_);
    // Drop the consumed prefix here, not on the worker.
    if (head_ == queue_.size()) {
      queue_.clear();
      head_ = 0;
    } else if (2 * head_ > queue_.size()) {
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    queue_.push_back(std::move(batch));
    completed_.reserve(completed_.size() + queued() + (busy_ ? 1 : 0));
  }
  work_cv_.notify_one();
}

std::vector<IoRequest> IoEngine::poll_completions() {
  std::vector<std::vector<IoRequest>> batches;
  {
    std::unique_lock lock(mutex_);
    batches.swap(completed_);
    completed_.reserve(queued() + (busy_ ? 1 : 0));
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
           (queued() == 0 && !busy_);
  });
}

void IoEngine::drain() const {
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [this] { return queued() == 0 && !busy_; });
}

std::size_t IoEngine::queue_depth() const {
  std::unique_lock lock(mutex_);
  return queued();
}

void IoEngine::execute_batch(std::vector<IoRequest>& batch) {
  // Fuse runs of adjacent requests (same file, byte ranges touching)
  // into one vectored read.  The batch is (file, offset)-sorted, so runs
  // are maximal by construction.  With the FaultInjector armed, merging
  // is disabled so fault indices stay per-request.
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
        if (next.file != head.file || next.offset != end ||
            next.buffer.empty()) {
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
        head.file->read_at(head.offset, head.buffer);
      } else {
        spans_.clear();
        for (std::size_t j = 0; j < run; ++j) {
          spans_.emplace_back(batch[i + j].buffer);
        }
        head.file->read_vectored(head.offset, spans_);
        if (options_.stats != nullptr) {
          options_.stats->vectored_merges += run - 1;
        }
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

void IoEngine::worker_loop() {
  for (;;) {
    std::vector<IoRequest> batch;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [this] { return queued() != 0 || stop_; });
      if (queued() == 0) return;  // stop_ with an empty queue
      if (queue_depth_ != nullptr) queue_depth_->record(queued());
      batch = std::move(queue_[head_++]);
      // Dequeue and mark busy in ONE critical section: there is no
      // instant where the queue looks empty while the work is not yet
      // accounted busy (the drain()-returns-early window).
      busy_ = true;
    }

    Timer timer;
    execute_batch(batch);
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
      busy_ = false;
      ++completion_seq_;
      completions_ready_.store(completed_.size(), std::memory_order_release);
    }
    done_cv_.notify_all();
  }
}

}  // namespace mssg
