// Scan-resistant block cache — the thesis' "block cache component" of
// grDB, also reused as the page cache of the KVStore (BerkeleyDB
// stand-in).
//
// The cache sits above one or more *stores* (registered read/write
// callbacks with a fixed block size).  Callers pin blocks through
// BlockHandle; pinned blocks are never evicted.  Dirty blocks are
// written back on eviction and on flush().  A capacity of zero gives the
// "cache disabled" configuration of Figure 5.2: every access misses and
// every dirty unpin writes through.
//
// Replacement is 2Q-style (a simplified ARC/SLRU): a block enters the
// *probation* list on first touch and is promoted to the *protected*
// list only when re-referenced.  Eviction drains probation first, so a
// one-pass scan — a full-graph analysis walking every adjacency chunk
// once — churns through probation without displacing another query's
// re-referenced working set.  The protected list is capped at 3/4 of
// capacity; overflow demotes its LRU tail back to probation, where a
// further cold spell evicts it.
//
// Thread-safe: the concurrent query engine runs several read-only
// analyses against one node's cache at a time.  One internal mutex
// serializes every public operation *including the store callbacks*
// (reader/writer/locator/seal/verify), which is what makes the stores'
// internal metadata (grDB level tables, pager free lists) safe under
// concurrent readers without their own locking.  Handles follow the
// usual rule: a pinned block's bytes may be read by the pinning thread
// freely; mutating handles must not be shared across threads.
//
// Per-query attribution: a query thread installs a CacheAttributionScope
// naming its CacheAttribution; every get() on that thread then also
// bumps the query-scoped hit/miss counters, giving the scheduler
// per-query hit ratios over the *shared* cache.
//
// enable_async_io() attaches a background read-ahead IoEngine without
// weakening the locking rule — the owning thread resolves each block to a
// (File*, offset) via the store's Locator at submit time, so the worker
// thread only ever performs positional reads on shared fds.
// prefetch_async() submits a sorted read batch for blocks the caller will
// need soon; get() adopts finished buffers (or waits for the in-flight
// one) instead of re-reading, and never reads a block twice.  Writes
// never go through the engine: a dirty block is written back by the
// thread that evicts or flushes it (write_back), engine or not.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "storage/io_engine.hpp"
#include "storage/io_stats.hpp"

namespace mssg {

class BlockCache;

namespace detail {
struct CacheEntry {
  std::uint64_t key = 0;          // (store << 48) | block
  std::vector<std::byte> data;
  std::size_t usable = 0;  // bytes exposed through handles (0 = all);
                           // the tail holds the store's checksum trailer
  bool dirty = false;
  int pins = 0;
  // The entry's list node: on a 2Q list while resident, parked on the
  // cache's parked list while a once-resident entry is pinned.
  std::list<std::uint64_t>::iterator lru_pos;  // valid iff resident || parked
  bool resident = false;
  bool parked = false;
  bool in_protected = false;  // which 2Q list lru_pos points into
  bool hot = false;   // re-referenced: joins the protected list when it
                      // next becomes resident
  bool orphaned = false;  // cache destroyed while still pinned; the
                          // surviving handle owns (and frees) the entry
  bool prefetched = false;  // loaded by async read-ahead and not yet
                            // claimed by a get() (prefetch-hit marker)

  [[nodiscard]] std::size_t usable_size() const {
    return usable == 0 ? data.size() : usable;
  }
};
}  // namespace detail

/// Pins a cached block for the lifetime of the handle.  Writable access
/// marks the block dirty.
class BlockHandle {
 public:
  BlockHandle() = default;
  BlockHandle(const BlockHandle&) = delete;
  BlockHandle& operator=(const BlockHandle&) = delete;
  BlockHandle(BlockHandle&& other) noexcept;
  BlockHandle& operator=(BlockHandle&& other) noexcept;
  ~BlockHandle();

  [[nodiscard]] bool valid() const { return entry_ != nullptr; }

  /// Read-only view of the block contents (the store's usable prefix —
  /// a checksum trailer, when the store has one, stays hidden).
  [[nodiscard]] std::span<const std::byte> data() const {
    MSSG_CHECK(valid());
    return std::span<const std::byte>(entry_->data).first(entry_->usable_size());
  }

  /// Mutable view; marks the block dirty.  Mutating handles are
  /// single-thread only (concurrent queries are read-only).
  [[nodiscard]] std::span<std::byte> mutable_data() {
    MSSG_CHECK(valid());
    entry_->dirty = true;
    return std::span<std::byte>(entry_->data).first(entry_->usable_size());
  }

 private:
  friend class BlockCache;
  BlockHandle(BlockCache* cache, detail::CacheEntry* entry)
      : cache_(cache), entry_(entry) {}

  void release();

  BlockCache* cache_ = nullptr;
  detail::CacheEntry* entry_ = nullptr;
};

/// Where a block lives on disk, for direct positional I/O by the engine
/// worker.  The File must stay open until the cache is flushed/destroyed.
struct AsyncTarget {
  const File* file = nullptr;
  std::uint64_t offset = 0;
};

/// Per-query cache counters.  One instance is shared by all of a query's
/// rank threads (the counters are atomic), installed per thread with a
/// CacheAttributionScope.
struct CacheAttribution {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};

  [[nodiscard]] double hit_ratio() const {
    const std::uint64_t h = hits.load(std::memory_order_relaxed);
    const std::uint64_t m = misses.load(std::memory_order_relaxed);
    return h + m == 0 ? 0.0 : static_cast<double>(h) / static_cast<double>(h + m);
  }
};

/// RAII: routes this thread's cache hits/misses to `attribution` (may be
/// nullptr to suspend attribution).  Nests; restores the previous scope.
class CacheAttributionScope {
 public:
  explicit CacheAttributionScope(CacheAttribution* attribution);
  CacheAttributionScope(const CacheAttributionScope&) = delete;
  CacheAttributionScope& operator=(const CacheAttributionScope&) = delete;
  ~CacheAttributionScope();

 private:
  CacheAttribution* prev_;
};

class BlockCache {
 public:
  /// Fills `out` with the block's bytes.  It must write every byte of
  /// the span: a miss may hand it a reused frame that still holds
  /// another block's bytes (File::read_at zero-fills past EOF, grDB
  /// fills a never-written block with 0xFF).  An async prefetch reads
  /// into such a frame too, through File::read_at or read_vectored.
  /// The Writer is the one way a block reaches its store: on eviction,
  /// flush and a capacity-0 unpin alike.
  using Reader = std::function<void(std::uint64_t block, std::span<std::byte>)>;
  using Writer =
      std::function<void(std::uint64_t block, std::span<const std::byte>)>;
  /// Resolves a block to its on-disk location for read-ahead — called
  /// on the OWNING thread at submit time, so it may open files.
  /// Returning nullopt means the block is not read ahead (e.g. a grDB
  /// block that was never written reads as 0xFF without touching disk);
  /// such blocks load through the synchronous Reader.
  using Locator =
      std::function<std::optional<AsyncTarget>(std::uint64_t block)>;

  /// `capacity_bytes` bounds the total size of unpinned resident blocks;
  /// zero disables caching (write-through / read-through).
  explicit BlockCache(std::size_t capacity_bytes, IoStats* stats = nullptr)
      : capacity_bytes_(capacity_bytes), stats_(stats) {}

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Writes back all dirty blocks (draining the read-ahead engine first).
  /// Entries still pinned here indicate a leaked BlockHandle: each is
  /// logged, counted in `IoStats::cache_pin_leaks` (debug builds
  /// additionally assert), and handed over to its handle, which frees it
  /// on release — so a leaked handle is detected loudly instead of
  /// silently masked.
  ~BlockCache();

  /// Registers a backing store.  Returns the store id used in get().
  /// `locator` is optional; stores without one are never read ahead.
  std::uint16_t register_store(std::size_t block_size, Reader reader,
                               Writer writer, Locator locator = nullptr);

  /// Simulated device latency per synchronous miss (microseconds,
  /// 0 = off) — see GraphDBConfig::sim_miss_penalty_us.  Slept with the
  /// internal mutex RELEASED, so concurrent queries overlap their
  /// stalls.  Set before concurrent use (not synchronized).
  void set_miss_penalty_us(std::uint32_t us) { miss_penalty_us_ = us; }

  /// Optional per-store integrity hooks.  `seal` runs on the full
  /// physical block right before every disk write; `verify` runs right
  /// after any disk read (synchronous or read-ahead) — it may throw, or
  /// repair the block in place (self-healing stores like the visited
  /// structure reset a corrupt page instead of dying).  `usable_bytes`
  /// (0 = whole block) caps what BlockHandle exposes, so a trailing
  /// checksum region never leaks into store payloads.
  struct StoreHooks {
    std::function<void(std::uint64_t block, std::span<std::byte>)> seal;
    std::function<void(std::uint64_t block, std::span<std::byte>)> verify;
    std::size_t usable_bytes = 0;
  };

  void set_store_hooks(std::uint16_t store, StoreHooks hooks);

  /// Starts the background read-ahead engine (idempotent).  No-op when
  /// the cache is disabled (capacity 0): with nothing retained between
  /// unpins there is nothing to prefetch into.
  void enable_async_io();

  [[nodiscard]] bool async_enabled() const { return engine_ != nullptr; }

  /// Submits one sorted read batch for every listed block not already
  /// cached or in flight.  Returns the number of requests issued.
  /// Requires async I/O enabled and a Locator on the store.
  std::size_t prefetch_async(std::uint16_t store,
                             std::span<const std::uint64_t> blocks);

  /// Adopts finished async requests into the cache (non-blocking).
  /// Called automatically by get()/flush(); exposed for overlap loops
  /// that want to fold in completions while waiting on something else.
  void poll_async();

  /// Fetches a block, loading it from the store on a miss.
  BlockHandle get(std::uint16_t store, std::uint64_t block);

  /// Like get(), but for a block the caller is about to fully
  /// initialize: the entry is zero-filled and marked dirty WITHOUT
  /// consulting the store's reader.  Fresh-extent pages must come
  /// through here — reading them could surface a previous crash's torn
  /// garbage (or trip `verify`) for bytes nobody ever committed.
  BlockHandle create(std::uint16_t store, std::uint64_t block);

  /// Visits every dirty resident block in ascending key order with its
  /// FULL physical span (trailer included) — what a journal records as
  /// redo images.
  void for_each_dirty(
      const std::function<void(std::uint16_t store, std::uint64_t block,
                               std::span<std::byte> data)>& fn);

  /// Drains the read-ahead engine (if any) and rethrows the first
  /// deferred eviction or release write error as StorageError.
  void drain_pending();

  /// Writes back all dirty blocks (keeps them resident).
  void flush();

  /// Writes back and drops every unpinned block.
  void drop_clean();

  /// Current pin count of a block (0 when not cached) — lets stores
  /// refuse operations on in-use blocks (e.g. Pager::free_page).
  [[nodiscard]] int pin_count(std::uint16_t store, std::uint64_t block) const;

  [[nodiscard]] std::size_t resident_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return resident_bytes_;
  }
  [[nodiscard]] std::size_t capacity_bytes() const { return capacity_bytes_; }
  /// Bytes currently on the protected (re-referenced) list.
  [[nodiscard]] std::size_t protected_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return protected_bytes_;
  }

  /// Bytes of evicted frames kept for the next miss: at most one frame
  /// per block size.
  [[nodiscard]] std::size_t stashed_bytes() const;

  /// The attribution sink installed on this thread (nullptr when none).
  [[nodiscard]] static CacheAttribution* current_attribution();

 private:
  friend class BlockHandle;
  friend class CacheAttributionScope;

  struct Store {
    std::size_t block_size = 0;
    Reader reader;
    Writer writer;
    Locator locator;
    StoreHooks hooks;
  };

  static constexpr int kStoreShift = 48;

  void unpin(detail::CacheEntry* entry);
  void write_back(detail::CacheEntry& entry);
  void evict_to_capacity();
  /// Blocks until no async request is queued, running, or unadopted.
  void drain_async();
  void poll_async_locked();
  /// Inserts an adopted/unpinned entry at the front of its 2Q list
  /// (protected when re-referenced, probation otherwise), reusing its
  /// parked list node when it has one.
  void make_resident(detail::CacheEntry& entry);
  /// Removes a resident entry from its 2Q list, parking its list node.
  void unlink(detail::CacheEntry& entry);
  /// Demotes the protected tail to probation until protected fits its
  /// share of capacity.
  void rebalance_protected();
  /// Throws StorageError if a deferred write failed earlier.
  void maybe_rethrow();
  void flush_locked();
  /// A frame of `size` bytes for a miss, a prefetch or create(): the
  /// stashed one of that size, else a new one.  A stashed frame still
  /// holds the bytes of the block it was evicted from; every caller
  /// overwrites its whole span.
  std::vector<std::byte> take_frame(std::size_t size);
  /// Keeps an evicted frame for the next take_frame of its size, unless
  /// one of that size is already kept (then it is freed).
  void stash_frame(std::vector<std::byte> frame);
  [[nodiscard]] std::size_t usable_of(std::uint16_t store) const {
    const Store& s = stores_[store];
    return s.hooks.usable_bytes != 0 ? s.hooks.usable_bytes : s.block_size;
  }
  [[nodiscard]] std::size_t protected_capacity() const {
    return capacity_bytes_ - capacity_bytes_ / 4;  // 3/4 of capacity
  }

  std::size_t capacity_bytes_;
  IoStats* stats_;
  std::uint32_t miss_penalty_us_ = 0;
  mutable std::mutex mu_;
  std::vector<Store> stores_;
  std::unordered_map<std::uint64_t, std::unique_ptr<detail::CacheEntry>> map_;
  // 2Q lists, front = most recently used.  An unpinned resident entry
  // lives on exactly one of them (entry.in_protected says which).
  std::list<std::uint64_t> probation_;
  std::list<std::uint64_t> protected_;
  // The list nodes of pinned entries that were resident before: spliced
  // here on a hit and back on its unpin, so a hit allocates nothing.
  std::list<std::uint64_t> parked_;
  std::size_t resident_bytes_ = 0;
  std::size_t probation_bytes_ = 0;
  std::size_t protected_bytes_ = 0;
  // Evicted frames reused by the next miss, at most one per block size:
  // a miss in a full cache evicts one block, so one frame per size
  // covers the steady state.
  std::vector<std::vector<std::byte>> stash_;
  std::unique_ptr<IoEngine> engine_;
  std::unordered_set<std::uint64_t> pending_reads_;
  // First error from a write-back during eviction or handle release (an
  // unpin runs in a destructor and cannot throw); rethrown by
  // get()/create()/flush()/drain_pending().
  std::string deferred_error_;
};

}  // namespace mssg
