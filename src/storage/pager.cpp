#include "storage/pager.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "storage/checksum.hpp"

namespace mssg {

Pager::Pager(const std::filesystem::path& path, std::size_t page_size,
             std::size_t cache_capacity_bytes, IoStats* stats, bool async_io,
             bool journal, std::uint32_t journal_sync_interval)
    : page_size_(page_size),
      usable_(page_checksum::usable_bytes(page_size)),
      file_(File::open(path, stats)),
      stats_(stats),
      cache_(cache_capacity_bytes, stats) {
  MSSG_CHECK(page_size_ >= 256 && (page_size_ & (page_size_ - 1)) == 0);
  MSSG_CHECK(sizeof(Header) <= usable_);
  store_id_ = cache_.register_store(
      page_size_,
      [this](std::uint64_t block, std::span<std::byte> out) {
        file_.read_at(block * page_size_, out);
      },
      [this](std::uint64_t block, std::span<const std::byte> in) {
        // The pre-image must be durable before the page is overwritten
        // in place.
        capture_undo(block);
        if (journal_ != nullptr) journal_->undo_barrier();
        file_.write_at(block * page_size_, in);
      },
      // Pages map 1:1 to file offsets, so the locator never needs store
      // metadata; past-EOF reads zero-fill exactly like the sync reader.
      [this](std::uint64_t block) -> std::optional<AsyncTarget> {
        return AsyncTarget{&file_, block * page_size_};
      });
  cache_.set_store_hooks(
      store_id_,
      {[](std::uint64_t, std::span<std::byte> page) {
         page_checksum::seal(page);
       },
       [this](std::uint64_t block, std::span<std::byte> page) {
         verify_page(block, page);
       },
       usable_});
  if (async_io) cache_.enable_async_io();

  if (journal) {
    journal_ =
        std::make_unique<WriteJournal>(path, stats, journal_sync_interval);
    recover(/*allow_rollback=*/true);
  }
  // A non-empty file must carry a valid header — even one shorter than
  // our page size (that means it was created with a smaller page size,
  // which load_header rejects explicitly).
  if (file_.size() > 0) {
    load_header();
  } else {
    store_header();
  }
}

Pager::~Pager() {
  // A destructor cannot throw; anything a failing flush would have
  // reported dies with the process, exactly as a crash would.  Force a
  // group-commit boundary: a deferred group must not outlive the pager.
  try {
    flush(/*force_commit=*/true);
  } catch (...) {
  }
}

void Pager::verify_page(std::uint64_t block,
                        std::span<const std::byte> page) const {
  using page_checksum::State;
  const State state = page_checksum::verify(page);
  // kZero is a legal unsealed read: sparse pages past EOF (and pages
  // rolled back to a pre-creation state) read as all zeros.
  if (state == State::kValid || state == State::kZero) return;
  if (stats_ != nullptr) {
    ++stats_->checksum_failures;
    if (state == State::kTorn) ++stats_->checksum_torn;
  }
  throw StorageError("pager: page " + std::to_string(block) +
                     " failed checksum verification (" +
                     (state == State::kTorn ? "torn write" : "bit rot") + ")");
}

void Pager::capture_undo(std::uint64_t block) {
  if (journal_ == nullptr || in_flush_ || journal_->undo_logged(block)) return;
  std::vector<std::byte> old(page_size_);
  file_.read_at(block * page_size_, old);  // past EOF reads as zeros
  journal_->undo_record(block, old);
}

void Pager::recover(bool allow_rollback) {
  WriteJournal::Recovery rec = journal_->plan_recovery();
  if (rec.action == WriteJournal::Action::kNone) return;
  if (rec.action == WriteJournal::Action::kRollBack && !allow_rollback) {
    // Mid-life flush: an uncommitted epoch's pre-images stay armed; the
    // flush about to run supersedes it (and trims on success).
    return;
  }
  for (const WriteJournal::Record& r : rec.records) {
    file_.write_at(r.tag * page_size_, r.payload);
  }
  file_.sync();
  journal_->trim();
}

void Pager::load_header() {
  std::vector<std::byte> buf(page_size_);
  file_.read_at(0, buf);
  using page_checksum::State;
  const State state = page_checksum::verify(buf);
  if (state == State::kZero) {
    // An all-zero header page: the file was created but rolled back
    // before its first committed flush.  Treat it as fresh.
    store_header();
    return;
  }
  if (state != State::kValid) verify_page(0, buf);
  Header h;
  std::memcpy(&h, buf.data(), sizeof(h));
  if (h.magic != kMagic) throw StorageError("pager: bad magic in header page");
  if (h.page_size != page_size_) {
    throw StorageError("pager: file has page size " +
                       std::to_string(h.page_size) + ", expected " +
                       std::to_string(page_size_));
  }
  page_count_ = h.page_count;
  free_head_ = h.free_head;
  std::memcpy(user_meta_, h.user, sizeof(user_meta_));

  // Rebuild the free-list mirror, refusing a corrupt list up front: a
  // page reached twice means a cycle, and recycling it would hand the
  // same page to two owners.  Each hop reads (and verifies) the full
  // page — the free list is the one structure walked outside the cache.
  free_set_.clear();
  PageId p = free_head_;
  std::vector<std::byte> link(page_size_);
  while (p != kInvalidPage) {
    if (p >= page_count_) {
      throw StorageError("pager: free list points past the file (page " +
                         std::to_string(p) + ")");
    }
    if (!free_set_.insert(p).second) {
      throw StorageError("pager: free list cycle at page " +
                         std::to_string(p));
    }
    file_.read_at(p * page_size_, link);
    verify_page(p, link);
    std::memcpy(&p, link.data(), sizeof(p));
  }
}

std::vector<std::byte> Pager::build_header_page() const {
  Header h{};
  h.magic = kMagic;
  h.page_size = page_size_;
  h.page_count = page_count_;
  h.free_head = free_head_;
  std::memcpy(h.user, user_meta_, sizeof(user_meta_));
  std::vector<std::byte> buf(page_size_);
  std::memcpy(buf.data(), &h, sizeof(h));
  page_checksum::seal(buf);
  return buf;
}

void Pager::store_header() {
  capture_undo(0);
  if (journal_ != nullptr) journal_->undo_barrier();
  file_.write_at(0, build_header_page());
  header_dirty_ = false;
}

PageId Pager::allocate() {
  PageId page;
  if (free_head_ != kInvalidPage) {
    page = free_head_;
    // The mirror must agree with the list head; a missing entry means a
    // page is on the list twice (cycle) and this allocate would alias a
    // page already handed out.  Fail loudly instead of corrupting it.
    if (free_set_.erase(page) == 0) {
      throw StorageError("pager: free list corruption — page " +
                         std::to_string(page) +
                         " recycled twice (cyclic free list)");
    }
    {
      auto handle = cache_.get(store_id_, page);
      std::uint64_t next;
      std::memcpy(&next, handle.data().data(), sizeof(next));
      free_head_ = next;
    }
    header_dirty_ = true;
    // Zero the recycled page so callers start from a clean slate.
    auto handle = cache_.get(store_id_, page);
    auto data = handle.mutable_data();
    std::memset(data.data(), 0, data.size());
  } else {
    page = page_count_++;
    header_dirty_ = true;
    // Fresh extent: create() zero-fills WITHOUT reading the file — the
    // bytes there were never committed and may be a previous crash's
    // torn garbage, which the checksum hook would (rightly) reject.
    cache_.create(store_id_, page);
  }
  return page;
}

void Pager::free_page(PageId page) {
  MSSG_CHECK(page != kInvalidPage && page < page_count_);
  if (free_set_.contains(page)) {
    throw StorageError("pager: double free of page " + std::to_string(page));
  }
  if (const int pins = cache_.pin_count(store_id_, page); pins > 0) {
    throw StorageError("pager: freeing page " + std::to_string(page) +
                       " while still pinned " + std::to_string(pins) + "x");
  }
  auto handle = cache_.get(store_id_, page);
  auto data = handle.mutable_data();
  std::memcpy(data.data(), &free_head_, sizeof(free_head_));
  free_head_ = page;
  free_set_.insert(page);
  header_dirty_ = true;
}

BlockHandle Pager::pin(PageId page) {
  MSSG_CHECK(page != kInvalidPage && page < page_count_);
  return cache_.get(store_id_, page);
}

void Pager::prefetch(std::span<const PageId> pages) {
  if (!cache_.async_enabled()) return;
  std::vector<std::uint64_t> blocks;
  blocks.reserve(pages.size());
  for (const PageId page : pages) {
    if (page != kInvalidPage && page < page_count_) blocks.push_back(page);
  }
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  cache_.prefetch_async(store_id_, blocks);
}

std::uint64_t Pager::meta(int slot) const {
  MSSG_CHECK(slot >= 0 && slot < kMetaSlots);
  return user_meta_[slot];
}

void Pager::set_meta(int slot, std::uint64_t value) {
  MSSG_CHECK(slot >= 0 && slot < kMetaSlots);
  user_meta_[slot] = value;
  header_dirty_ = true;
}

void Pager::flush(bool force_commit) {
  if (journal_ == nullptr) {
    cache_.flush();
    if (header_dirty_) store_header();
    return;
  }

  // A write that failed during an eviction surfaces here, before the
  // dirty pages are enumerated.
  cache_.drain_pending();
  // A previous flush may have died between redo-commit and trim; finish
  // its in-place phase first so epochs never interleave.  With a group
  // pending this is impossible by construction (the last boundary
  // trimmed, and deferred flushes never commit), so skip the check —
  // plan_recovery() re-reads the whole journal, which would turn a long
  // deferred window into quadratic parse traffic.
  if (!journal_->group_pending()) recover(/*allow_rollback=*/false);

  std::size_t dirty = 0;
  cache_.for_each_dirty(
      [&dirty](std::uint16_t, std::uint64_t, std::span<std::byte>) {
        ++dirty;
      });
  const bool work = dirty != 0 || header_dirty_ || journal_->dirty_epoch();
  // A pending deferred group still needs its boundary commit even when
  // nothing new is dirty (e.g. the destructor's forced flush).
  if (!work && !journal_->group_pending()) return;

  const std::vector<std::byte> header_page = build_header_page();
  if (work) {
    // 1. Redo-log post-images of everything this flush will write
    // (appending to the open group's records, if any).
    journal_->redo_begin();
    cache_.for_each_dirty(
        [this](std::uint16_t, std::uint64_t block, std::span<std::byte> page) {
          page_checksum::seal(page);  // idempotent — write_back re-seals
          journal_->redo_record(block, page);
        });
    journal_->redo_record(0, header_page);
  }
  if (!force_commit && !journal_->commit_due()) {
    // Group commit: close this flush without any fsync.  Pages stay
    // dirty in the cache and the undo epoch stays armed — a crash now
    // rolls the whole group back to the last boundary atomically; the
    // boundary flush re-records whatever is still dirty and commits
    // everything at once.
    journal_->redo_defer();
    return;
  }
  // 2. Eviction writes from this epoch become durable BEFORE the commit
  // record: a post-commit crash rolls forward only the redo records, so
  // everything else the epoch touched must already be safe.
  file_.sync();
  // 3. Commit.  From here on the whole group is logically done.
  journal_->redo_commit();
  // 4. In-place phase (no undo capture — the redo log covers us now).
  in_flush_ = true;
  try {
    cache_.flush();
    file_.write_at(0, header_page);
    file_.sync();
  } catch (...) {
    in_flush_ = false;
    throw;
  }
  in_flush_ = false;
  header_dirty_ = false;
  // 5. Retire the epoch (undo before redo — see journal.hpp).
  journal_->trim();
}

}  // namespace mssg
