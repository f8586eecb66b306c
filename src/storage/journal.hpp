// Undo+redo write-ahead journal for crash-safe page stores.
//
// A WriteJournal pairs two sidecar files next to a data file:
//
//   <base>.undo  pre-images, captured before the first in-place
//                overwrite of each block in an epoch.  Durability is
//                explicit: undo_barrier() fdatasyncs everything appended
//                so far, and callers place one barrier between capturing
//                pre-images and the overwrites they cover — so a whole
//                eviction batch amortizes one sync instead of paying one
//                per block.  Replayed in reverse the records roll the
//                data file back to the last committed state.
//   <base>.redo  post-images of everything a flush() intends to write,
//                terminated by a commit record.  Once the commit record
//                is durable, the flush is logically done: replaying the
//                redo records forward reproduces it even if the process
//                dies mid-way through the in-place writes.
//
// Group commit (sync_interval > 1): a flush may close with redo_defer()
// instead of redo_commit() — its redo records stay in the log, unsynced
// and uncommitted, and the next flush appends to them (redo_begin() only
// truncates once a commit retired the group).  Every sync_interval-th
// flush (commit_due()), or any forced one, writes ONE commit record
// covering the whole accumulated group, amortizing the two commit fsyncs
// over the group.  Crash inside a group: the commit record is absent, so
// recovery rolls back via undo to the last *boundary* — deferred flushes
// are atomic-all-or-nothing, never partially visible.
//
// Record format (native endianness — journals are node-local scratch,
// never shipped):  [u64 tag][u64 size][payload][u32 crc32c(header+payload)].
// The commit record uses the reserved kCommitTag and carries the count
// of preceding records, so a torn commit can never validate against the
// wrong epoch.  Both files start with an 8-byte magic; a file without it
// parses as empty.
//
// Recovery decision (plan_recovery):
//   redo has a valid commit record  ->  roll FORWARD (redo records)
//   else undo has any valid records ->  roll BACK (returned pre-reversed)
//   else                            ->  nothing to do
// The caller applies the records to the data file, syncs it, then calls
// trim().  trim() clears undo before redo: a crash between the two
// leaves a committed redo behind, and rolling forward an already-applied
// epoch is idempotent — the dangerous order (rollback of a committed
// epoch) can never happen.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <span>
#include <unordered_set>
#include <vector>

#include "storage/file.hpp"

namespace mssg {

class WriteJournal {
 public:
  /// Tag reserved for the redo commit record; data tags must not use it.
  static constexpr std::uint64_t kCommitTag = 0x4A524E4C'434D5431ull;

  struct Record {
    std::uint64_t tag = 0;
    std::vector<std::byte> payload;
  };

  enum class Action : std::uint8_t { kNone, kRollForward, kRollBack };

  struct Recovery {
    Action action = Action::kNone;
    /// In application order: forward order for roll-forward, already
    /// reversed for roll-back.
    std::vector<Record> records;
  };

  /// Opens (creating if absent) `<base>.undo` and `<base>.redo`.
  /// `sync_interval` is the group-commit knob: every n-th flush commits;
  /// the ones in between defer (1 = classic commit-every-flush).
  WriteJournal(const std::filesystem::path& base, IoStats* stats,
               std::uint32_t sync_interval = 1);

  /// True if `tag` already has a pre-image this epoch.
  [[nodiscard]] bool undo_logged(std::uint64_t tag) const {
    std::lock_guard lk(mu_);
    return undo_logged_.contains(tag);
  }

  /// Captures a pre-image for `tag` (no-op if one exists this epoch).
  /// NOT durable by itself: callers overwrite in place only after an
  /// undo_barrier() has covered the record.
  void undo_record(std::uint64_t tag, std::span<const std::byte> payload);

  /// Makes every appended pre-image durable (no-op when none is
  /// pending).  One barrier may cover many undo_record()s.
  void undo_barrier();

  /// True if any pre-image was captured since the last trim(): the data
  /// file may diverge from its committed state, so a flush must run even
  /// if no cache pages are dirty.
  [[nodiscard]] bool dirty_epoch() const {
    std::lock_guard lk(mu_);
    return !undo_logged_.empty();
  }

  /// Starts a redo epoch.  With no group pending it discards any stale
  /// uncommitted redo records; with deferred flushes accumulated it
  /// appends to them instead (a retried failed attempt may leave
  /// superseded records behind — roll-forward order makes the last
  /// version win).
  void redo_begin();

  /// Appends one post-image; not durable until redo_commit().
  void redo_record(std::uint64_t tag, std::span<const std::byte> payload);

  /// True when the flush closing now must commit rather than defer —
  /// i.e. it is the sync_interval-th of its group.
  [[nodiscard]] bool commit_due() const {
    std::lock_guard lk(mu_);
    return deferred_flushes_ + 1 >= sync_interval_;
  }

  /// Group commit: closes the current flush WITHOUT a commit record or
  /// any fsync.  Its records stay pending until a later redo_commit()
  /// retires the whole group (crashing before then rolls the group back
  /// atomically via undo).
  void redo_defer();

  /// True when deferred flushes are awaiting their boundary commit (a
  /// forced flush must run even if nothing new is dirty).
  [[nodiscard]] bool group_pending() const {
    std::lock_guard lk(mu_);
    return deferred_flushes_ != 0;
  }

  /// Makes the group's redo records durable, then appends and syncs the
  /// commit record.  After this returns every flush of the group is
  /// recoverable.
  void redo_commit();

  /// Inspects both files and decides what (if anything) must be replayed
  /// to restore the data file to its last committed state.
  Recovery plan_recovery();

  /// Empties both journals (undo first — see file comment) and resets
  /// the epoch.  Call after the data file's recovered/flushed state has
  /// been synced.
  void trim();

 private:
  struct Parsed {
    std::vector<Record> records;
    bool committed = false;
  };

  static std::uint64_t init_file(File& file);
  void append(File& file, std::uint64_t& bytes, std::uint64_t tag,
              std::span<const std::byte> payload);
  static Parsed parse(const File& file);

  // One leaf mutex over all journal state: with snapshot isolation on,
  // a reader-thread cache miss can evict a dirty block and capture its
  // undo pre-image while the writer thread runs a flush's redo sequence
  // — the two paths append to different files but share the counters
  // and the undo_logged_ set.  Ops under it never call out, so it nests
  // safely inside the BlockCache mutex.
  mutable std::mutex mu_;
  File undo_;
  File redo_;
  std::uint64_t undo_bytes_ = 0;
  std::uint64_t redo_bytes_ = 0;
  std::uint64_t redo_count_ = 0;  ///< records in the current redo epoch
  std::unordered_set<std::uint64_t> undo_logged_;
  IoStats* stats_ = nullptr;
  std::uint32_t sync_interval_ = 1;
  std::uint32_t deferred_flushes_ = 0;  ///< flushes closed with redo_defer()
                                        ///< since the last commit/trim
  bool undo_dirty_ = false;  ///< records appended since the last barrier
};

}  // namespace mssg
