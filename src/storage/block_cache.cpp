#include "storage/block_cache.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <exception>
#include <iterator>
#include <thread>
#include <utility>

#include "common/logging.hpp"

namespace mssg {

namespace {
// The attribution sink for cache accesses made by this thread.  Set by
// CacheAttributionScope (the query scheduler installs one per query rank
// thread); read on every get().
thread_local CacheAttribution* tls_attribution = nullptr;

void attribute(bool hit) {
  if (CacheAttribution* attr = tls_attribution; attr != nullptr) {
    (hit ? attr->hits : attr->misses).fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

CacheAttributionScope::CacheAttributionScope(CacheAttribution* attribution)
    : prev_(tls_attribution) {
  tls_attribution = attribution;
}

CacheAttributionScope::~CacheAttributionScope() { tls_attribution = prev_; }

CacheAttribution* BlockCache::current_attribution() { return tls_attribution; }

BlockHandle::BlockHandle(BlockHandle&& other) noexcept
    : cache_(std::exchange(other.cache_, nullptr)),
      entry_(std::exchange(other.entry_, nullptr)) {}

BlockHandle& BlockHandle::operator=(BlockHandle&& other) noexcept {
  if (this != &other) {
    release();
    cache_ = std::exchange(other.cache_, nullptr);
    entry_ = std::exchange(other.entry_, nullptr);
  }
  return *this;
}

BlockHandle::~BlockHandle() { release(); }

void BlockHandle::release() {
  if (entry_ != nullptr) {
    if (entry_->orphaned) {
      delete entry_;  // the cache is gone; the handle inherited ownership
    } else {
      cache_->unpin(entry_);
    }
    entry_ = nullptr;
    cache_ = nullptr;
  }
}

BlockCache::~BlockCache() {
  // Callers should flush() explicitly; this is a last-resort write-back so
  // data is never silently lost.  Reads in flight must finish before the
  // files can be closed, and unadopted prefetches are folded in so their
  // accounting isn't dropped.
  std::lock_guard<std::mutex> lock(mu_);
  drain_async();
  // Entries still pinned here are leaked BlockHandles: persist them, then
  // detach them so the straggling handle can release safely — but never
  // silently.
  std::uint64_t leaked = 0;
  for (auto& [key, entry] : map_) {
    // A destructor cannot throw; a store that fails here (dying disk,
    // fault-injected kill) loses this block's last version, exactly as a
    // crashed process would have.  Callers wanting the error must
    // flush() explicitly.
    try {
      write_back(*entry);
    } catch (...) {
    }
    if (entry->pins != 0) {
      ++leaked;
      MSSG_LOG(kWarn) << "BlockCache destroyed with block " << entry->key
                      << " still pinned " << entry->pins
                      << "x — leaked BlockHandle";
      entry->orphaned = true;
      entry.release();  // intentionally dropped; freed by the leaked handle
    }
  }
  if (leaked != 0) {
    if (stats_ != nullptr) stats_->cache_pin_leaks += leaked;
    assert(false && "BlockHandle leaked past BlockCache destruction");
  }
}

std::uint16_t BlockCache::register_store(std::size_t block_size, Reader reader,
                                         Writer writer, Locator locator) {
  MSSG_CHECK(block_size > 0);
  std::lock_guard<std::mutex> lock(mu_);
  MSSG_CHECK(stores_.size() < (1u << 15));
  stores_.push_back(Store{block_size, std::move(reader), std::move(writer),
                          std::move(locator), StoreHooks{}});
  return static_cast<std::uint16_t>(stores_.size() - 1);
}

void BlockCache::set_store_hooks(std::uint16_t store, StoreHooks hooks) {
  std::lock_guard<std::mutex> lock(mu_);
  MSSG_CHECK(store < stores_.size());
  MSSG_CHECK(hooks.usable_bytes <= stores_[store].block_size);
  stores_[store].hooks = std::move(hooks);
}

void BlockCache::enable_async_io() {
  std::lock_guard<std::mutex> lock(mu_);
  if (engine_ != nullptr || capacity_bytes_ == 0) return;
  // The engine counts its merges, batches and dropped errors next to
  // the cache's own counters.
  engine_ = std::make_unique<IoEngine>(IoEngineOptions{.stats = stats_});
}

std::size_t BlockCache::prefetch_async(std::uint16_t store,
                                       std::span<const std::uint64_t> blocks) {
  std::lock_guard<std::mutex> lock(mu_);
  MSSG_CHECK(store < stores_.size());
  MSSG_CHECK(engine_ != nullptr);
  const Store& s = stores_[store];
  MSSG_CHECK(s.locator != nullptr);

  poll_async_locked();
  std::vector<IoRequest> batch;
  for (const std::uint64_t block : blocks) {
    MSSG_CHECK(block < (std::uint64_t{1} << kStoreShift));
    const std::uint64_t key =
        (static_cast<std::uint64_t>(store) << kStoreShift) | block;
    // Skip anything already cached or in flight.
    if (map_.contains(key) || pending_reads_.contains(key)) continue;
    const std::optional<AsyncTarget> target = s.locator(block);
    if (!target.has_value()) continue;  // sync reader resolves without disk

    IoRequest req;
    req.file = target->file;
    req.offset = target->offset;
    req.buffer = take_frame(s.block_size);
    req.key = key;
    batch.push_back(std::move(req));
    pending_reads_.insert(key);
    // The miss happens here, at issue time, exactly as the synchronous
    // prefetch loop would have counted it — get() later sees a hit.
    if (stats_ != nullptr) {
      ++stats_->prefetch_issued;
      ++stats_->cache_misses;
    }
  }
  const std::size_t issued = batch.size();
  if (issued != 0) engine_->submit(std::move(batch));
  return issued;
}

void BlockCache::poll_async() {
  std::lock_guard<std::mutex> lock(mu_);
  poll_async_locked();
}

void BlockCache::poll_async_locked() {
  if (engine_ == nullptr || !engine_->has_completions()) return;
  std::vector<IoRequest> done = engine_->poll_completions();
  bool adopted = false;
  for (IoRequest& req : done) {
    MSSG_CHECK(pending_reads_.erase(req.key) == 1);
    // A failed or checksum-bad prefetch is simply dropped: a real get()
    // of the block falls back to the synchronous reader and surfaces the
    // error on the owning thread, where it can actually be handled.
    if (!req.error.empty()) continue;
    const auto store = static_cast<std::uint16_t>(req.key >> kStoreShift);
    if (stores_[store].hooks.verify != nullptr) {
      try {
        stores_[store].hooks.verify(
            req.key & ((std::uint64_t{1} << kStoreShift) - 1), req.buffer);
      } catch (...) {
        continue;
      }
    }
    // Adopt a finished read as a clean, unpinned resident entry.
    MSSG_CHECK(!map_.contains(req.key));
    auto entry = std::make_unique<detail::CacheEntry>();
    entry->key = req.key;
    entry->data = std::move(req.buffer);
    entry->usable = usable_of(store);
    entry->prefetched = true;
    make_resident(*entry);
    map_.emplace(req.key, std::move(entry));
    adopted = true;
  }
  if (adopted) evict_to_capacity();
}

BlockHandle BlockCache::get(std::uint16_t store, std::uint64_t block) {
  std::unique_lock<std::mutex> lock(mu_);
  MSSG_CHECK(store < stores_.size());
  MSSG_CHECK(block < (std::uint64_t{1} << kStoreShift));
  const std::uint64_t key =
      (static_cast<std::uint64_t>(store) << kStoreShift) | block;

  poll_async_locked();
  maybe_rethrow();
  auto it = map_.find(key);
  if (it == map_.end() && pending_reads_.contains(key)) {
    // The prefetch covering this block is still in flight: wait for it
    // and adopt, so the block is read from disk exactly once.
    do {
      engine_->wait_for_completion();
      poll_async_locked();
    } while (pending_reads_.contains(key));
    it = map_.find(key);  // rarely absent: adopted then instantly evicted
  }

  if (it != map_.end()) {
    detail::CacheEntry& entry = *it->second;
    // With caching disabled (capacity 0) the map can only hold blocks
    // that are currently pinned; sharing such a block is not a cache hit
    // (nothing is ever retained between unpins), and counting it as one
    // would pollute the Fig 5.2 cache-off series.
    const bool counts_as_hit = capacity_bytes_ != 0;
    if (stats_ != nullptr) {
      if (!counts_as_hit) {
        ++stats_->cache_misses;
      } else {
        ++stats_->cache_hits;
        // 2Q attribution: a hit on a block seen exactly once before is a
        // probation hit; a hit on an already re-referenced block lands in
        // the protected working set.
        if (entry.hot) {
          ++stats_->cache_protected_hits;
        } else {
          ++stats_->cache_probation_hits;
        }
        if (entry.prefetched) ++stats_->prefetch_hits;
      }
    }
    attribute(counts_as_hit);
    entry.prefetched = false;
    if (entry.resident && entry.pins == 0) {
      // Remove from its 2Q list while pinned.
      unlink(entry);
    }
    entry.hot = true;  // re-referenced: protected on next unpin
    ++entry.pins;
    return BlockHandle(this, &entry);
  }

  // Synchronous miss: the caller stalls on the store's reader.
  if (stats_ != nullptr) {
    ++stats_->cache_misses;
    ++stats_->read_stalls;
  }
  attribute(false);
  auto entry = std::make_unique<detail::CacheEntry>();
  entry->key = key;
  entry->data = take_frame(stores_[store].block_size);
  stores_[store].reader(block, entry->data);
  if (stores_[store].hooks.verify != nullptr) {
    stores_[store].hooks.verify(block, entry->data);
  }
  entry->usable = usable_of(store);
  entry->pins = 1;
  detail::CacheEntry* raw = entry.get();
  map_.emplace(key, std::move(entry));
  if (miss_penalty_us_ != 0) {
    // Simulated seek: the pin above keeps the entry safe, so the stall
    // is served with the lock released and concurrent queries overlap
    // their misses instead of queueing behind this one.
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::microseconds(miss_penalty_us_));
  }
  return BlockHandle(this, raw);
}

BlockHandle BlockCache::create(std::uint16_t store, std::uint64_t block) {
  std::lock_guard<std::mutex> lock(mu_);
  MSSG_CHECK(store < stores_.size());
  MSSG_CHECK(block < (std::uint64_t{1} << kStoreShift));
  const std::uint64_t key =
      (static_cast<std::uint64_t>(store) << kStoreShift) | block;

  poll_async_locked();
  maybe_rethrow();
  // A read in flight is adopted first: adoption expects an unmapped key.
  if (pending_reads_.contains(key)) drain_async();

  detail::CacheEntry* raw = nullptr;
  auto it = map_.find(key);
  if (it != map_.end()) {
    detail::CacheEntry& entry = *it->second;
    MSSG_CHECK(entry.pins == 0);  // zeroing under a live handle is misuse
    if (entry.resident) unlink(entry);
    entry.pins = 1;
    raw = &entry;
  } else {
    if (stats_ != nullptr) ++stats_->cache_misses;  // an access, no disk read
    attribute(false);
    auto entry = std::make_unique<detail::CacheEntry>();
    entry->key = key;
    entry->data = take_frame(stores_[store].block_size);
    entry->pins = 1;
    raw = entry.get();
    map_.emplace(key, std::move(entry));
  }
  std::fill(raw->data.begin(), raw->data.end(), std::byte{0});
  raw->usable = usable_of(store);
  raw->dirty = true;
  raw->prefetched = false;
  return BlockHandle(this, raw);
}

void BlockCache::unpin(detail::CacheEntry* entry) {
  std::lock_guard<std::mutex> lock(mu_);
  MSSG_CHECK(entry->pins > 0);
  if (--entry->pins > 0) return;

  if (capacity_bytes_ == 0) {
    // Cache disabled: write through and drop immediately.  unpin runs
    // inside BlockHandle's destructor, so a write failure cannot
    // propagate here — it is parked and rethrown by the next
    // get()/flush()/drain_pending().
    try {
      write_back(*entry);
    } catch (const std::exception& e) {
      if (deferred_error_.empty()) deferred_error_ = e.what();
    }
    stash_frame(std::move(entry->data));
    map_.erase(entry->key);
    return;
  }

  make_resident(*entry);
  try {
    evict_to_capacity();
  } catch (const std::exception& e) {
    if (deferred_error_.empty()) deferred_error_ = e.what();
  }
}

void BlockCache::make_resident(detail::CacheEntry& entry) {
  auto& list = entry.hot ? protected_ : probation_;
  if (entry.parked) {
    list.splice(list.begin(), parked_, entry.lru_pos);
    entry.parked = false;
  } else {
    list.push_front(entry.key);
    entry.lru_pos = list.begin();
  }
  entry.in_protected = entry.hot;
  entry.resident = true;
  const std::size_t size = entry.data.size();
  resident_bytes_ += size;
  (entry.in_protected ? protected_bytes_ : probation_bytes_) += size;
  if (entry.in_protected) rebalance_protected();
}

void BlockCache::unlink(detail::CacheEntry& entry) {
  auto& list = entry.in_protected ? protected_ : probation_;
  parked_.splice(parked_.begin(), list, entry.lru_pos);
  entry.parked = true;
  entry.resident = false;
  const std::size_t size = entry.data.size();
  resident_bytes_ -= size;
  (entry.in_protected ? protected_bytes_ : probation_bytes_) -= size;
}

void BlockCache::rebalance_protected() {
  // Keep the protected (re-referenced) working set within its share of
  // capacity; the overflow tail gets one more life in probation.
  while (protected_bytes_ > protected_capacity() && !protected_.empty()) {
    const std::uint64_t key = protected_.back();
    probation_.splice(probation_.begin(), protected_,
                      std::prev(protected_.end()));  // lru_pos follows
    detail::CacheEntry& entry = *map_.at(key);
    const std::size_t size = entry.data.size();
    protected_bytes_ -= size;
    probation_bytes_ += size;
    entry.in_protected = false;
    entry.hot = false;  // must be re-referenced again to re-promote
  }
}

void BlockCache::write_back(detail::CacheEntry& entry) {
  if (!entry.dirty) return;
  const auto store = static_cast<std::uint16_t>(entry.key >> kStoreShift);
  const std::uint64_t block =
      entry.key & ((std::uint64_t{1} << kStoreShift) - 1);
  if (stores_[store].hooks.seal != nullptr) {
    stores_[store].hooks.seal(block, entry.data);
  }
  stores_[store].writer(block, entry.data);
  entry.dirty = false;
}

void BlockCache::evict_to_capacity() {
  while (resident_bytes_ > capacity_bytes_ &&
         (!probation_.empty() || !protected_.empty())) {
    // Scan resistance: first-touch (probation) blocks go first; the
    // protected list only shrinks when probation is empty.
    const bool from_probation = !probation_.empty();
    auto& list = from_probation ? probation_ : protected_;
    const std::uint64_t victim_key = list.back();
    list.pop_back();
    auto it = map_.find(victim_key);
    MSSG_CHECK(it != map_.end());
    detail::CacheEntry& victim = *it->second;
    MSSG_CHECK(victim.pins == 0);

    // Eviction happens on unpin paths (handle destructors included), so
    // a failing store must not unwind out of here: the victim's last
    // version is lost — as on a dying disk — and the error is parked for
    // the next get()/flush()/drain_pending().
    try {
      write_back(victim);
    } catch (const std::exception& e) {
      if (deferred_error_.empty()) deferred_error_ = e.what();
    }
    const std::size_t size = victim.data.size();
    stash_frame(std::move(victim.data));
    resident_bytes_ -= size;
    (from_probation ? probation_bytes_ : protected_bytes_) -= size;
    if (stats_ != nullptr) ++stats_->cache_evictions;
    map_.erase(it);
  }
}

std::vector<std::byte> BlockCache::take_frame(std::size_t size) {
  for (auto& frame : stash_) {
    if (frame.size() != size) continue;
    std::swap(frame, stash_.back());
    std::vector<std::byte> taken = std::move(stash_.back());
    stash_.pop_back();
    return taken;
  }
  return std::vector<std::byte>(size);
}

void BlockCache::stash_frame(std::vector<std::byte> frame) {
  if (frame.empty()) return;
  for (const auto& kept : stash_) {
    if (kept.size() == frame.size()) return;  // one per size: free this one
  }
  stash_.push_back(std::move(frame));
}

std::size_t BlockCache::stashed_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t bytes = 0;
  for (const auto& frame : stash_) bytes += frame.size();
  return bytes;
}

void BlockCache::drain_async() {
  if (engine_ == nullptr) return;
  // Every pending read was submitted under mu_, which the caller holds,
  // so once the engine is idle one poll adopts them all.
  engine_->drain();
  poll_async_locked();
}

void BlockCache::maybe_rethrow() {
  if (deferred_error_.empty()) return;
  const std::string message = std::move(deferred_error_);
  deferred_error_.clear();
  throw StorageError(message);
}

void BlockCache::drain_pending() {
  std::lock_guard<std::mutex> lock(mu_);
  drain_async();
  maybe_rethrow();
}

void BlockCache::for_each_dirty(
    const std::function<void(std::uint16_t, std::uint64_t,
                             std::span<std::byte>)>& fn) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> keys;
  keys.reserve(map_.size());
  for (const auto& [key, entry] : map_) {
    if (entry->dirty) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());  // deterministic journal order
  for (const std::uint64_t key : keys) {
    const auto it = map_.find(key);
    if (it == map_.end() || !it->second->dirty) continue;
    fn(static_cast<std::uint16_t>(key >> kStoreShift),
       key & ((std::uint64_t{1} << kStoreShift) - 1), it->second->data);
  }
}

void BlockCache::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
}

void BlockCache::flush_locked() {
  drain_async();
  maybe_rethrow();
  for (auto& [key, entry] : map_) write_back(*entry);
}

void BlockCache::drop_clean() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
  for (auto* list : {&probation_, &protected_}) {
    for (auto lru_it = list->begin(); lru_it != list->end();) {
      auto map_it = map_.find(*lru_it);
      MSSG_CHECK(map_it != map_.end());
      resident_bytes_ -= map_it->second->data.size();
      map_.erase(map_it);
      lru_it = list->erase(lru_it);
    }
  }
  probation_bytes_ = 0;
  protected_bytes_ = 0;
}

int BlockCache::pin_count(std::uint16_t store, std::uint64_t block) const {
  std::lock_guard<std::mutex> lock(mu_);
  MSSG_CHECK(store < stores_.size());
  const std::uint64_t key =
      (static_cast<std::uint64_t>(store) << kStoreShift) | block;
  const auto it = map_.find(key);
  return it == map_.end() ? 0 : it->second->pins;
}

}  // namespace mssg
