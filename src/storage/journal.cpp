#include "storage/journal.hpp"

#include <algorithm>
#include <cstring>

#include "common/crc32c.hpp"
#include "common/error.hpp"

namespace mssg {

namespace {

constexpr std::uint64_t kMagic = 0x4D5353474A524E4Cull;  // "MSSGJRNL"
constexpr std::uint64_t kHeaderBytes = 8;
constexpr std::uint64_t kRecordOverhead = 8 + 8 + 4;  // tag + size + crc
// Sanity bound on one record's payload when parsing: journals hold dirty
// pages and metadata blobs, never gigabytes.  Anything larger is garbage
// (and would otherwise drive a huge allocation off a corrupt length).
constexpr std::uint64_t kMaxPayload = std::uint64_t{1} << 30;

void put_u64(std::byte* dst, std::uint64_t v) { std::memcpy(dst, &v, 8); }

std::uint64_t get_u64(const std::byte* src) {
  std::uint64_t v = 0;
  std::memcpy(&v, src, 8);
  return v;
}

}  // namespace

WriteJournal::WriteJournal(const std::filesystem::path& base, IoStats* stats,
                           std::uint32_t sync_interval)
    : undo_(File::open(base.string() + ".undo", stats)),
      redo_(File::open(base.string() + ".redo", stats)),
      stats_(stats),
      sync_interval_(sync_interval == 0 ? 1 : sync_interval) {
  undo_bytes_ = init_file(undo_);
  redo_bytes_ = init_file(redo_);
}

std::uint64_t WriteJournal::init_file(File& file) {
  const std::uint64_t size = file.size();
  if (size >= kHeaderBytes) return size;  // may hold records — keep them
  std::byte magic[kHeaderBytes];
  put_u64(magic, kMagic);
  file.write_at(0, magic);
  return kHeaderBytes;
}

void WriteJournal::append(File& file, std::uint64_t& bytes, std::uint64_t tag,
                          std::span<const std::byte> payload) {
  std::vector<std::byte> buf(16 + payload.size() + 4);
  put_u64(buf.data(), tag);
  put_u64(buf.data() + 8, payload.size());
  std::copy(payload.begin(), payload.end(), buf.begin() + 16);
  const std::uint32_t crc =
      crc32c(std::span<const std::byte>(buf.data(), 16 + payload.size()));
  std::memcpy(buf.data() + 16 + payload.size(), &crc, 4);
  file.write_at(bytes, buf);
  bytes += buf.size();
  if (stats_ != nullptr) ++stats_->journal_records;
}

void WriteJournal::undo_record(std::uint64_t tag,
                               std::span<const std::byte> payload) {
  MSSG_CHECK(tag != kCommitTag);
  std::lock_guard lk(mu_);
  if (!undo_logged_.insert(tag).second) return;
  append(undo_, undo_bytes_, tag, payload);
  // Durability is the caller's barrier: a pre-image must be fdatasync'd
  // (undo_barrier) before the overwrite it protects, or a crash could
  // lose both the old and the new version of the block — but batching
  // many records under one barrier is safe and much cheaper.
  undo_dirty_ = true;
}

void WriteJournal::undo_barrier() {
  std::lock_guard lk(mu_);
  if (!undo_dirty_) return;
  undo_.sync();
  undo_dirty_ = false;
}

void WriteJournal::redo_begin() {
  std::lock_guard lk(mu_);
  if (deferred_flushes_ != 0) return;  // group open: append to it
  redo_.truncate(kHeaderBytes);
  redo_bytes_ = kHeaderBytes;
  redo_count_ = 0;
}

void WriteJournal::redo_defer() {
  std::lock_guard lk(mu_);
  ++deferred_flushes_;
  if (stats_ != nullptr) ++stats_->journal_deferred_flushes;
}

void WriteJournal::redo_record(std::uint64_t tag,
                               std::span<const std::byte> payload) {
  MSSG_CHECK(tag != kCommitTag);
  std::lock_guard lk(mu_);
  append(redo_, redo_bytes_, tag, payload);
  ++redo_count_;
}

void WriteJournal::redo_commit() {
  std::lock_guard lk(mu_);
  // First sync: the records themselves — including any deferred
  // flushes' records, synced here for the first time.  Second sync: the
  // commit record, which only means anything once everything before it
  // is durable.  The count covers the WHOLE group, so a torn tail from
  // any deferred flush invalidates the commit.
  redo_.sync();
  std::byte count[8];
  put_u64(count, redo_count_);
  append(redo_, redo_bytes_, kCommitTag, count);
  redo_.sync();
  deferred_flushes_ = 0;
  if (stats_ != nullptr) ++stats_->journal_group_commits;
}

WriteJournal::Parsed WriteJournal::parse(const File& file) {
  Parsed out;
  const std::uint64_t size = file.size();
  if (size < kHeaderBytes) return out;
  std::vector<std::byte> buf(size);
  // Through a second, uncounted handle: recovery bookkeeping stays out
  // of io.reads, which counts data reads.
  File::open_readonly(file.path()).read_at(0, buf);
  if (get_u64(buf.data()) != kMagic) return out;

  std::uint64_t pos = kHeaderBytes;
  while (pos + kRecordOverhead <= size) {
    const std::uint64_t tag = get_u64(buf.data() + pos);
    const std::uint64_t len = get_u64(buf.data() + pos + 8);
    if (len > kMaxPayload || len > size - pos - kRecordOverhead) break;
    std::uint32_t stored = 0;
    std::memcpy(&stored, buf.data() + pos + 16 + len, 4);
    const std::uint32_t actual =
        crc32c(std::span<const std::byte>(buf.data() + pos, 16 + len));
    if (stored != actual) break;  // torn tail — everything before it is good
    if (tag == kCommitTag) {
      out.committed = len == 8 && get_u64(buf.data() + pos + 16) ==
                                      static_cast<std::uint64_t>(
                                          out.records.size());
      break;  // the commit record is terminal by construction
    }
    Record rec;
    rec.tag = tag;
    rec.payload.assign(buf.begin() + static_cast<std::ptrdiff_t>(pos + 16),
                       buf.begin() + static_cast<std::ptrdiff_t>(pos + 16 + len));
    out.records.push_back(std::move(rec));
    pos += kRecordOverhead + len;
  }
  return out;
}

WriteJournal::Recovery WriteJournal::plan_recovery() {
  std::lock_guard lk(mu_);
  Recovery out;
  Parsed redo = parse(redo_);
  if (redo.committed) {
    out.action = Action::kRollForward;
    out.records = std::move(redo.records);
  } else {
    Parsed undo = parse(undo_);
    if (!undo.records.empty()) {
      out.action = Action::kRollBack;
      std::reverse(undo.records.begin(), undo.records.end());
      out.records = std::move(undo.records);
    }
  }
  if (stats_ != nullptr) stats_->journal_replays += out.records.size();
  return out;
}

void WriteJournal::trim() {
  std::lock_guard lk(mu_);
  // Undo first: dying between the two truncates leaves a committed redo,
  // whose roll-forward is idempotent.  The reverse order could leave only
  // the undo log and roll back a committed epoch.  An undo log that holds
  // only its header (no eviction overwrote a committed block) is left
  // alone; its size, not undo_bytes_, decides, so a failed append's bytes
  // past the header are still cut.
  if (undo_.size() != kHeaderBytes) {
    undo_.truncate(kHeaderBytes);
    undo_.sync();
  }
  undo_bytes_ = kHeaderBytes;
  undo_logged_.clear();
  undo_dirty_ = false;
  redo_.truncate(kHeaderBytes);
  redo_.sync();
  redo_bytes_ = kHeaderBytes;
  redo_count_ = 0;
  deferred_flushes_ = 0;
}

}  // namespace mssg
