// Fixed-size-page file manager with a free list, backing the B+tree and
// the slotted heap file.  Page 0 is the header (magic, geometry, free
// list head, and a few user metadata slots for e.g. the B+tree root).
//
// Every page carries a CRC32C trailer (storage/checksum.hpp): the cache
// seals pages on write and verifies them on read, so torn writes and bit
// rot surface as StorageError instead of silent misreads.  page_size()
// reports the *usable* bytes (physical page minus trailer) — that is the
// payload geometry the B+tree and heap file lay out against.
//
// With `journal` enabled the pager keeps an undo+redo write-ahead
// journal (storage/journal.hpp) beside the file.  Pre-images are logged
// before any in-place overwrite between flushes (eviction write-backs
// included), and flush() double-writes dirty pages into the redo log
// before updating them in place — so reopening after a crash at ANY
// write/sync always recovers the last flush()-committed state.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "storage/block_cache.hpp"
#include "storage/file.hpp"
#include "storage/journal.hpp"

namespace mssg {

using PageId = std::uint64_t;
inline constexpr PageId kInvalidPage = 0;  // page 0 is the header

class Pager {
 public:
  /// Opens (or creates) a paged file.  `cache_capacity_bytes` sizes the
  /// page cache; zero means write-through (no caching).  `async_io`
  /// attaches the background IoEngine for prefetch() read-ahead.
  /// `journal` arms
  /// crash-safe flushes (see file comment); recovery, if needed, runs
  /// here before the header loads.  `journal_sync_interval` is the
  /// group-commit knob: every n-th flush() commits durably, the ones in
  /// between batch their redo records into the group (1 = every flush
  /// commits, the classic behavior).
  Pager(const std::filesystem::path& path, std::size_t page_size,
        std::size_t cache_capacity_bytes, IoStats* stats = nullptr,
        bool async_io = false, bool journal = false,
        std::uint32_t journal_sync_interval = 1);

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Last-resort flush (callers should flush() explicitly); never throws
  /// — a store failing here loses what a crashed process would have.
  ~Pager();

  /// Usable bytes per page — physical page size minus the checksum
  /// trailer.  This is the size of every pinned span.
  [[nodiscard]] std::size_t page_size() const { return usable_; }
  [[nodiscard]] PageId page_count() const { return page_count_; }

  /// Allocates a page (recycling freed pages first).  Contents are
  /// zeroed.  Throws StorageError if the on-disk free list is corrupt
  /// (a page appearing twice would hand the same page to two owners).
  PageId allocate();

  /// Returns a page to the free list.  Throws StorageError on a double
  /// free or when the page is still pinned — either would corrupt a
  /// live page once the slot is recycled.
  void free_page(PageId page);

  /// Pins a page in the cache.
  BlockHandle pin(PageId page);

  /// Issues sorted async read-ahead for the given pages (no-op without
  /// async I/O).
  void prefetch(std::span<const PageId> pages);

  [[nodiscard]] bool async_enabled() const { return cache_.async_enabled(); }

  /// Forwards BlockCache::set_miss_penalty_us (simulated seek latency).
  void set_miss_penalty_us(std::uint32_t us) {
    cache_.set_miss_penalty_us(us);
  }

  /// Evicts the backing file from the OS page cache (cold benches) —
  /// see File::drop_page_cache.  Best-effort, not counted in IoStats.
  void drop_page_cache() const { file_.drop_page_cache(); }

  /// User metadata slots persisted in the header (8 available).
  static constexpr int kMetaSlots = 8;
  [[nodiscard]] std::uint64_t meta(int slot) const;
  void set_meta(int slot, std::uint64_t value);

  /// Writes back all dirty pages and the header.  With journaling:
  /// redo-log everything, commit, then update in place — the order that
  /// makes the flush atomic under crashes.  With a sync_interval > 1
  /// only every n-th flush commits; the others defer into the group
  /// (durability lands at the next boundary — or at destruction, which
  /// forces one).  `force_commit` closes a pending group immediately.
  void flush(bool force_commit = false);

  [[nodiscard]] IoStats* stats() const { return stats_; }
  [[nodiscard]] bool journaled() const { return journal_ != nullptr; }

  /// True while deferred group-commit flushes await their boundary: the
  /// last flush() was NOT a committed (crash-recoverable) state.  The
  /// snapshot layer checks this so epochs only advance at real commits.
  [[nodiscard]] bool group_pending() const {
    return journal_ != nullptr && journal_->group_pending();
  }

 private:
  struct Header {
    std::uint64_t magic;
    std::uint64_t page_size;
    std::uint64_t page_count;
    std::uint64_t free_head;
    std::uint64_t user[kMetaSlots];
  };
  static constexpr std::uint64_t kMagic = 0x4d53534750414745ull;  // "MSSGPAGE"

  void load_header();
  void store_header();
  [[nodiscard]] std::vector<std::byte> build_header_page() const;
  /// Counts + throws on a checksum-failed page read.
  void verify_page(std::uint64_t block, std::span<const std::byte> page) const;
  /// Captures a pre-image of `block` before its first in-place overwrite
  /// this epoch (no-op outside journal mode or during flush's post-commit
  /// phase).
  void capture_undo(std::uint64_t block);
  /// Replays any pending journal epoch onto the file (ctor: both
  /// directions; flush start: committed roll-forward only).
  void recover(bool allow_rollback);

  std::size_t page_size_;  // physical (on-disk) page size
  std::size_t usable_;     // payload bytes per page (page_size_ - trailer)
  File file_;
  IoStats* stats_;
  // journal_ is declared before cache_ so it outlives it: the cache's
  // destructor writes back dirty pages through the writer callback,
  // which captures undo pre-images into the journal.
  std::unique_ptr<WriteJournal> journal_;
  BlockCache cache_;
  std::uint16_t store_id_;
  PageId page_count_ = 1;  // header occupies page 0
  PageId free_head_ = kInvalidPage;
  std::unordered_set<PageId> free_set_;  // mirror of the free list, for
                                         // double-free / cycle detection
  std::uint64_t user_meta_[kMetaSlots] = {};
  bool header_dirty_ = false;
  bool in_flush_ = false;  // post-commit in-place phase: skip undo capture
};

}  // namespace mssg
