#include "graphdb/grdb/grdb.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/crc32c.hpp"
#include "common/radix_sort.hpp"
#include "common/serial.hpp"

namespace mssg {

using grdb::EntryKind;

namespace {
// "MSSGgrD2": the meta carries the edge log's generation.
constexpr std::uint64_t kMetaMagic = 0x4d535347'67724432ull;
// Journal tag of the grdb.meta snapshot.  Block tags are the cache keys
// (level << 48 | block); no level reaches 0xFFFF, so this can't collide.
constexpr std::uint64_t kMetaTag = ~std::uint64_t{0};
// Cache keys, version keys and journal tags hold a block index in 48 bits.
constexpr std::uint64_t kBlockLimit = std::uint64_t{1} << 48;

/// One vertex's chain walk from its level-0 root.  Pointer entries come
/// from disk, so each hop is checked before it is taken: a level outside
/// the geometry, a block index past kBlockLimit or a return to an earlier
/// sub-block throws StorageError.  The cycle check is Brent's: remember
/// the position at hops 1, 2, 4, 8, ... and fail when the walk comes back
/// to it.  It needs no bound on chain length, so snapshot readers walking
/// next to the writer read none of its allocation state.
class ChainWalk {
 public:
  ChainWalk(const grdb::Geometry& geometry, VertexId v)
      : geometry_(geometry), vertex_(v), subblock_(v), saved_subblock_(v) {}

  [[nodiscard]] int level() const { return level_; }
  [[nodiscard]] std::uint64_t subblock() const { return subblock_; }

  /// Moves to the target of `pointer`, an EntryKind::kPointer entry.
  void follow(std::uint64_t pointer) {
    const int level = grdb::pointer_level(pointer);
    const std::uint64_t subblock = grdb::pointer_subblock(pointer);
    if (level >= geometry_.level_count()) {
      fail("pointer to level " + std::to_string(level) +
           " beyond the geometry");
    }
    if (subblock / geometry_.levels[level].subblocks_per_block() >=
        kBlockLimit) {
      fail("pointer to level " + std::to_string(level) + " sub-block " +
           std::to_string(subblock) + " past the block index space");
    }
    if (level == saved_level_ && subblock == saved_subblock_) {
      fail("pointer cycle through level " + std::to_string(level) +
           " sub-block " + std::to_string(subblock));
    }
    level_ = level;
    subblock_ = subblock;
    if (++hops_ == power_) {
      saved_level_ = level;
      saved_subblock_ = subblock;
      power_ *= 2;
      hops_ = 0;
    }
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw StorageError("grDB: vertex " + std::to_string(vertex_) +
                       " chain: " + what);
  }

  const grdb::Geometry& geometry_;
  VertexId vertex_;
  int level_ = 0;
  std::uint64_t subblock_;
  int saved_level_ = 0;
  std::uint64_t saved_subblock_;
  std::uint64_t power_ = 1;
  std::uint64_t hops_ = 0;
};

static_assert(sizeof(VertexId) == grdb::kEntryBytes);

/// Appends the vertex entries of the pinned sub-block `ref` to `out`.
/// Returns true when the chain continues: the sub-block ended in a
/// pointer, and `walk` now stands on its target.  Vertex entries (tag 0,
/// the id itself) fill a sub-block from its first slot, so one scan
/// finds their run, one copy appends it, and only the word that ends the
/// run is classified: the empty sentinel ends the chain, a pointer is
/// followed, and any other tag-7 word throws StorageError.
template <typename Ref>
bool decode_subblock(const Ref& ref, ChainWalk& walk,
                     std::vector<VertexId>& out) {
  const std::byte* const bytes = ref.bytes();
  std::uint64_t run = 0;
  std::uint64_t entry = 0;
  for (; run < ref.entries; ++run) {
    std::memcpy(&entry, bytes + run * grdb::kEntryBytes, sizeof(entry));
    if (entry >> grdb::kTagShift != 0) break;
  }
  if (run != 0) {
    const std::size_t at = out.size();
    out.resize(at + run);
    std::memcpy(out.data() + at, bytes, run * grdb::kEntryBytes);
  }
  if (run == ref.entries || grdb::classify(entry) == EntryKind::kEmpty) {
    return false;
  }
  walk.follow(entry);  // classify found a pointer
  return true;
}

// Requests per staged walk in get_adjacency_batch.  A slice's entries are
// held until the slice is visited, so the slice bounds that memory and
// the reads a visitor that stops early leaves unused.
constexpr std::size_t kBatchSlice = 4096;
// Entries per chunk of a batched read's arena: 256 KB, the cache's
// largest frame.  A chunk is filled, never grown, so decoded entries
// never move and no buffer of the walk outgrows a frame: one arena that
// grew by doubling to a slice's megabytes raised glibc's dynamic mmap
// threshold, and with it the freed heap each thread keeps.
constexpr std::size_t kArenaChunk = 32768;
}  // namespace

// ---- SubblockRef -----------------------------------------------------------

const std::byte* GrDB::SubblockRef::bytes() const {
  const std::byte* base = view.empty() ? handle.data().data() : view.data();
  return base + offset;
}

std::uint64_t GrDB::SubblockRef::get(std::uint64_t i) const {
  std::uint64_t value;
  std::memcpy(&value, bytes() + i * grdb::kEntryBytes, sizeof(value));
  return value;
}

void GrDB::SubblockRef::set(std::uint64_t i, std::uint64_t value) {
  // Shelved pre-images are read-only; mutations pin the live frame.
  MSSG_CHECK(view.empty());
  std::memcpy(handle.mutable_data().data() + offset + i * grdb::kEntryBytes,
              &value, sizeof(value));
}

// ---- Construction / persistence -------------------------------------------

GrDB::GrDB(const GraphDBConfig& config, GrDBOptions options)
    : GraphDB(config),
      options_(std::move(options)),
      dir_(config.dir),
      cache_(config.cache_bytes, &stats_) {
  options_.geometry.validate();
  cache_.set_miss_penalty_us(config.sim_miss_penalty_us);
  const int level_count = options_.geometry.level_count();
  levels_.resize(level_count);
  gauges_ = std::vector<LevelGauges>(level_count);
  for (int l = 0; l < level_count; ++l) {
    Level& level = levels_[l];
    level.spec = options_.geometry.levels[l];
    level.store_id = cache_.register_store(
        level.spec.block_bytes,
        [this, l](std::uint64_t block, std::span<std::byte> out) {
          Level& lvl = levels_[l];
          bool present;
          {
            std::lock_guard<std::mutex> mlk(meta_mu_);
            present =
                block < lvl.initialized.size() && lvl.initialized.test(block);
          }
          if (!present) {
            // Block has never been written: every slot reads as empty.
            std::memset(out.data(), 0xFF, out.size());
            return;
          }
          const std::uint64_t n = options_.geometry.blocks_per_file(l);
          ensure_file(l, block / n)
              .read_at(lvl.spec.block_bytes * (block % n), out);
        },
        [this, l](std::uint64_t block, std::span<const std::byte> in) {
          Level& lvl = levels_[l];
          // The pre-image must be durable before the block is
          // overwritten in place.
          maybe_log_undo(l, block);
          if (journal_ != nullptr) journal_->undo_barrier();
          {
            std::lock_guard<std::mutex> mlk(meta_mu_);
            if (block >= lvl.initialized.size()) {
              lvl.initialized.resize(block + 1);
            }
            lvl.initialized.set(block);
          }
          const std::uint64_t n = options_.geometry.blocks_per_file(l);
          ensure_file(l, block / n)
              .write_at(lvl.spec.block_bytes * (block % n), in);
        },
        // Locator for the read-ahead engine — runs on the thread driving
        // the cache (under its mutex), so callbacks exclude each other;
        // the worker only gets a (File*, offset).
        [this, l](std::uint64_t block) -> std::optional<AsyncTarget> {
          Level& lvl = levels_[l];
          {
            std::lock_guard<std::mutex> mlk(meta_mu_);
            if (block >= lvl.initialized.size() ||
                !lvl.initialized.test(block)) {
              // Never written: the sync reader resolves it as all-empty
              // without touching disk, so there is nothing to read ahead.
              return std::nullopt;
            }
          }
          const std::uint64_t n = options_.geometry.blocks_per_file(l);
          return AsyncTarget{&ensure_file(l, block / n),
                             lvl.spec.block_bytes * (block % n)};
        });
    // Integrity hooks: grDB's geometry packs sub-blocks exactly (no
    // in-page trailer slack), so checksums live in a sidecar table that
    // save_meta persists.  Seal records, verify compares.
    cache_.set_store_hooks(
        level.store_id,
        {[this, l](std::uint64_t block, std::span<std::byte> data) {
           Level& lvl = levels_[l];
           const std::uint32_t crc = crc32c(data);
           std::lock_guard<std::mutex> mlk(meta_mu_);
           if (block >= lvl.block_crc.size()) lvl.block_crc.resize(block + 1);
           lvl.block_crc[block] = crc;
         },
         [this, l](std::uint64_t block, std::span<std::byte> data) {
           const Level& lvl = levels_[l];
           const std::uint32_t crc = crc32c(data);
           {
             std::lock_guard<std::mutex> mlk(meta_mu_);
             // Only disk-backed blocks have a recorded CRC; the reader's
             // all-0xFF synthesis for uninitialized blocks never had one.
             // An initialized block always has one: it is recorded no
             // later than the block's bit, and decode_meta rejects a
             // table that does not cover the bitmap.
             if (block >= lvl.initialized.size() ||
                 !lvl.initialized.test(block)) {
               return;
             }
             if (block < lvl.block_crc.size() && crc == lvl.block_crc[block]) {
               return;
             }
           }
           ++stats_.checksum_failures;
           throw StorageError("grDB: level " + std::to_string(l) +
                              " block " + std::to_string(block) +
                              " failed sidecar checksum");
         },
         /*usable_bytes=*/0});
  }
  // Prompt retirement: dropping the last snapshot of an epoch purges
  // the versions it pinned without waiting for the next commit.
  epochs_.set_retire_hook(
      [this](Epoch min_live) { versions_.purge(min_live); });
  if (config.async_io) cache_.enable_async_io();
  if (config.journal) {
    journal_ = std::make_unique<WriteJournal>(dir_ / "grdb", &stats_,
                                              config.journal_sync_interval);
    log_ = std::make_unique<EdgeLog>(dir_ / "grdb.edges", &stats_);
    // A group defers the very fsync a log commit replaces.
    log_commits_ = config.journal_sync_interval <= 1;
    recover(/*allow_rollback=*/true);
  }
  if (std::filesystem::exists(dir_ / "grdb.meta")) load_meta();
  // Replay is recovery, not a new epoch: no reader exists yet, so its
  // mutations shelve no versions.
  if (log_ != nullptr) replay_edge_log();
  snapshots_enabled_ = config.snapshots;
  publish_level_gauges();
}

GrDB::~GrDB() {
  // Flush here (not in ~BlockCache) so write-backs run while the level
  // file handles are still alive.  Checkpoint, so the edge log is folded
  // in and a deferred group does not outlive the store.
  try {
    std::lock_guard<std::mutex> lock(write_mu_);
    flush_impl(/*force_checkpoint=*/true);
  } catch (...) {  // NOLINT(bugprone-empty-catch) — dtor must not throw
  }
}

File& GrDB::ensure_file(int level, std::uint64_t file_index) {
  // files_mu_ orders a reader-thread cache miss creating a file against
  // flush iterating the vector; the File itself is stable once created
  // (unique_ptr moves under resize don't move the File).
  Level& lvl = levels_[level];
  std::lock_guard<std::mutex> lock(files_mu_);
  if (file_index >= lvl.files.size()) lvl.files.resize(file_index + 1);
  if (!lvl.files[file_index]) {
    const auto path = dir_ / ("level" + std::to_string(level) + "." +
                              std::to_string(file_index) + ".dat");
    lvl.files[file_index] =
        std::make_unique<File>(File::open(path, &stats_));
  }
  return *lvl.files[file_index];
}

void GrDB::maybe_log_undo(int level, std::uint64_t block) {
  if (journal_ == nullptr || in_flush_.load(std::memory_order_relaxed)) {
    return;
  }
  Level& lvl = levels_[level];
  {
    std::lock_guard<std::mutex> mlk(meta_mu_);
    const bool was_initialized =
        block < lvl.initialized.size() && lvl.initialized.test(block);
    if (!was_initialized) {
      lvl.fresh.insert(block);
      return;
    }
    if (lvl.fresh.contains(block)) return;
  }
  const std::uint64_t tag =
      (static_cast<std::uint64_t>(level) << 48) | block;
  if (journal_->undo_logged(tag)) return;
  std::vector<std::byte> old(lvl.spec.block_bytes);
  const std::uint64_t n = options_.geometry.blocks_per_file(level);
  ensure_file(level, block / n)
      .read_at(lvl.spec.block_bytes * (block % n), old);
  journal_->undo_record(tag, old);
}

void GrDB::clear_fresh() {
  std::lock_guard<std::mutex> mlk(meta_mu_);
  for (Level& level : levels_) level.fresh.clear();
}

void GrDB::sync_level_files() {
  // Snapshot the handle set under files_mu_, sync outside it: fsync can
  // take milliseconds and must not stall a reader's cache-miss
  // ensure_file for its whole duration.
  std::vector<File*> files;
  {
    std::lock_guard<std::mutex> lock(files_mu_);
    for (Level& level : levels_) {
      for (const auto& file : level.files) {
        if (file != nullptr && file->is_open()) files.push_back(file.get());
      }
    }
  }
  for (File* file : files) file->sync();
}

std::optional<std::uint64_t> GrDB::recover(bool allow_rollback) {
  WriteJournal::Recovery rec = journal_->plan_recovery();
  if (rec.action == WriteJournal::Action::kNone) return std::nullopt;
  if (rec.action == WriteJournal::Action::kRollBack && !allow_rollback) {
    // Mid-life flush: the uncommitted epoch's pre-images stay armed; the
    // flush about to run supersedes it (and trims on success).
    return std::nullopt;
  }
  // The meta this replay leaves on disk: the redo's last meta record for
  // a roll-forward, the on-disk grdb.meta for a roll-back (whose
  // pre-images are of blocks it already held).  Each block record must
  // lie inside that meta's extent, checked for every record before any
  // file is written or created.
  const bool forward = rec.action == WriteJournal::Action::kRollForward;
  MetaImage restored;
  if (forward) {
    for (auto it = rec.records.rbegin(); it != rec.records.rend(); ++it) {
      if (it->tag != kMetaTag) continue;
      try {
        restored = decode_meta(it->payload);
      } catch (const FormatError& e) {
        throw StorageError(std::string("grDB: journal meta record: ") +
                           e.what());
      }
      break;
    }
  } else if (std::filesystem::exists(dir_ / "grdb.meta")) {
    restored = decode_meta(read_meta_file());
  }
  for (const WriteJournal::Record& r : rec.records) {
    if (r.tag == kMetaTag) continue;
    const std::uint64_t level = r.tag >> 48;
    const std::uint64_t block = r.tag & (kBlockLimit - 1);
    const std::string what = "grDB: journal record for level " +
                             std::to_string(level) + " block " +
                             std::to_string(block);
    if (level >= levels_.size()) {
      throw StorageError(what + ": level beyond the geometry");
    }
    if (r.payload.size() != levels_[level].spec.block_bytes) {
      throw StorageError(what + ": payload of " +
                         std::to_string(r.payload.size()) +
                         " bytes is not the level's block size");
    }
    if (restored.levels.empty() ||
        block >= restored.levels[level].initialized.size()) {
      throw StorageError(what + ": past the extent of the meta it restores");
    }
  }
  for (const WriteJournal::Record& r : rec.records) {
    if (r.tag == kMetaTag) {
      write_meta_file(r.payload);
      continue;
    }
    const int level = static_cast<int>(r.tag >> 48);
    const std::uint64_t block = r.tag & (kBlockLimit - 1);
    const std::uint64_t n = options_.geometry.blocks_per_file(level);
    ensure_file(level, block / n)
        .write_at(levels_[level].spec.block_bytes * (block % n), r.payload);
  }
  sync_level_files();
  journal_->trim();
  clear_fresh();
  if (forward && !restored.levels.empty()) return restored.generation;
  return std::nullopt;
}

void GrDB::flush_impl(bool force_checkpoint) {
  if (journal_ == nullptr) {
    const bool had_work = dirty_since_flush_.load(std::memory_order_relaxed);
    cache_.flush();
    if (any_data_.load(std::memory_order_relaxed)) save_meta();
    dirty_since_flush_.store(false, std::memory_order_relaxed);
    if (had_work) commit_epoch();
    return;
  }

  // A write that failed during an eviction surfaces here, before the
  // commit.
  cache_.drain_pending();
  // store_locked keeps a pending record only while a log commit can take
  // it: log commits on, the log ready for the committed generation with
  // room for the record, and no checkpoint due.
  if (!force_checkpoint && !checkpoint_due_ && !pending_.empty()) {
    log_commit();
    return;
  }
  checkpoint(/*force_commit=*/force_checkpoint);
}

void GrDB::log_commit() {
  try {
    log_->append(pending_);
    log_->sync();
  } catch (...) {
    // The record may be torn or not durable: only a checkpoint (whose log
    // reset clears the tail) may commit the blocks it describes.
    checkpoint_due_ = true;
    throw;
  }
  pending_.clear();
  dirty_since_flush_.store(false, std::memory_order_relaxed);
  commit_epoch();
}

void GrDB::checkpoint(bool force_commit) {
  // Cleared only once the log has restarted under the committed
  // generation: until then no commit may be a log record.
  checkpoint_due_ = true;
  // The cache and the level files hold every pending edge.
  pending_.clear();
  // A previous checkpoint may have died between redo-commit and trim;
  // finish its in-place phase first so epochs never interleave, and take
  // up the generation its meta carries.  Impossible while a group is
  // pending (deferred flushes never commit), and plan_recovery() re-reads
  // the whole journal — skipping keeps a long deferred window linear
  // instead of quadratic.
  if (!journal_->group_pending()) {
    if (const auto rolled = recover(/*allow_rollback=*/false)) {
      generation_ = *rolled;
    }
  }

  std::size_t dirty = 0;
  cache_.for_each_dirty(
      [&dirty](std::uint16_t, std::uint64_t, std::span<std::byte>) {
        ++dirty;
      });
  const bool stored = dirty_since_flush_.load(std::memory_order_relaxed);
  const bool work = dirty != 0 || stored || journal_->dirty_epoch() ||
                    !log_->empty();
  // A pending deferred group still needs its boundary commit even when
  // nothing new is dirty (e.g. the destructor's forced flush).
  if (!work && !journal_->group_pending()) {
    checkpoint_due_ = false;
    return;
  }
  // Records this checkpoint covers must never replay over it: a log that
  // may hold any restarts under a new generation, carried by the meta.
  const std::uint64_t next = log_->empty() ? generation_ : generation_ + 1;

  // 1. Redo-log post-images of every dirty block (appending to the open
  // group's records, if any).  Bitmap and sidecar CRC are brought up to
  // date HERE, before the meta snapshot below, so a roll-forward
  // restores blocks and the metadata that makes them reachable as one
  // atomic unit.
  std::vector<std::byte> meta_bytes;
  if (work) {
    journal_->redo_begin();
    cache_.for_each_dirty(
        [this](std::uint16_t store, std::uint64_t block,
               std::span<std::byte> data) {
          Level& lvl = levels_[store];
          {
            std::lock_guard<std::mutex> mlk(meta_mu_);
            if (block >= lvl.initialized.size()) {
              lvl.initialized.resize(block + 1);
            }
            if (!lvl.initialized.test(block)) {
              // Outside the committed meta until the commit below lands;
              // should it fail, an eviction logs no pre-image for it (and
              // a roll-back finds no record past the meta's extent).
              lvl.fresh.insert(block);
              lvl.initialized.set(block);
            }
            if (block >= lvl.block_crc.size()) {
              lvl.block_crc.resize(block + 1);
            }
            lvl.block_crc[block] = crc32c(data);
          }
          journal_->redo_record(
              (static_cast<std::uint64_t>(store) << 48) | block, data);
        });
    meta_bytes = encode_meta(next);
    journal_->redo_record(kMetaTag, meta_bytes);
  } else {
    meta_bytes = encode_meta(next);
  }
  if (!force_commit && !journal_->commit_due()) {
    // Group commit: close this flush without any fsync.  Blocks stay
    // dirty in the cache, the undo epoch and the fresh set stay armed —
    // a crash now rolls the whole group back to the last boundary
    // atomically; the boundary flush re-records whatever is still dirty
    // and commits everything at once.
    journal_->redo_defer();
    return;
  }
  // 2. This epoch's eviction writes become durable BEFORE the commit
  // record — a post-commit crash replays only the redo records.
  sync_level_files();
  // 3. Commit: the whole group is logically done from here on.
  journal_->redo_commit();
  generation_ = next;
  clear_fresh();  // the group's "never committed" blocks just committed
  // 4. In-place phase (no undo capture — the redo log covers us now).
  in_flush_.store(true, std::memory_order_relaxed);
  try {
    cache_.flush();
    write_meta_file(meta_bytes);
    sync_level_files();
  } catch (...) {
    in_flush_.store(false, std::memory_order_relaxed);
    throw;
  }
  in_flush_.store(false, std::memory_order_relaxed);
  // 5. Retire the epoch, then restart the log under the new generation
  // (a crash between the two leaves records whose generation no longer
  // matches the meta's, which replay skips).
  journal_->trim();
  if (!log_->empty() || !log_->ready(generation_)) log_->reset(generation_);
  checkpoint_due_ = false;
  ++stats_.checkpoints;
  dirty_since_flush_.store(false, std::memory_order_relaxed);
  // The committed boundary is the ONLY place the snapshot epoch
  // advances: a deferred (group-commit) flush returned above, so
  // snapshots can never pin a state that a crash would roll back.  A
  // checkpoint that only folds the log in commits nothing new.
  if (stored) commit_epoch();
}

void GrDB::replay_edge_log() {
  std::lock_guard<std::mutex> lock(write_mu_);
  // Replayed edges are not a new record: the checkpoint below holds them.
  checkpoint_due_ = true;
  const std::uint64_t replayed =
      log_->replay(generation_, [this](std::span<const Edge> edges) {
        try {
          store_locked(edges);
        } catch (const UsageError& e) {
          // A CRC-valid record no store would accept was never written by
          // one: the log is corrupt, and skipping it would drop a batch.
          throw StorageError(std::string("grDB: edge log record rejected: ") +
                             e.what());
        }
      });
  if (replayed == 0) {
    checkpoint_due_ = false;
    return;
  }
  checkpoint(/*force_commit=*/true);
}

std::vector<std::byte> GrDB::encode_meta(std::uint64_t generation) const {
  ByteWriter writer;
  writer.put_u64(kMetaMagic);
  writer.put_u64(generation);
  writer.put_u64(options_.geometry.max_file_bytes);
  writer.put_u64(max_vertex_.load(std::memory_order_relaxed));
  writer.put_u32(static_cast<std::uint32_t>(levels_.size()));
  // A reader-thread eviction can grow a bitmap / CRC table mid-encode.
  std::lock_guard<std::mutex> mlk(meta_mu_);
  for (const auto& level : levels_) {
    writer.put_u64(level.spec.entries_per_subblock);
    writer.put_u64(level.spec.block_bytes);
    writer.put_u64(level.alloc);
    writer.put_vector(level.free_list);
    // Initialized-block bitmap, as a varint extent + raw test per block.
    writer.put_varint(level.initialized.size());
    std::vector<std::uint8_t> bits((level.initialized.size() + 7) / 8, 0);
    for (std::size_t b = 0; b < level.initialized.size(); ++b) {
      if (level.initialized.test(b)) bits[b / 8] |= std::uint8_t(1u << (b % 8));
    }
    writer.put_vector(bits);
    writer.put_vector(level.block_crc);
  }
  return writer.take();
}

void GrDB::write_meta_file(std::span<const std::byte> bytes) {
  File meta = File::open(dir_ / "grdb.meta", &stats_);
  meta.truncate(0);
  meta.write_at(0, bytes);
  meta.sync();
}

void GrDB::save_meta() {
  // Non-journaled path: best-effort overwrite (a crash inside this
  // sequence is exactly what journal mode exists to survive).
  write_meta_file(encode_meta(generation_));
}

GrDB::MetaImage GrDB::decode_meta(std::span<const std::byte> bytes) const {
  MetaImage image;
  ByteReader reader(bytes);
  if (reader.get_u64() != kMetaMagic) {
    throw StorageError("grDB: bad meta magic");
  }
  image.generation = reader.get_u64();
  if (reader.get_u64() != options_.geometry.max_file_bytes) {
    throw StorageError("grDB: geometry mismatch (max file size)");
  }
  image.max_vertex = reader.get_u64();
  if (reader.get_u32() != levels_.size()) {
    throw StorageError("grDB: geometry mismatch (level count)");
  }
  image.levels.resize(levels_.size());
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    MetaImage::LevelImage& level = image.levels[l];
    if (reader.get_u64() != levels_[l].spec.entries_per_subblock ||
        reader.get_u64() != levels_[l].spec.block_bytes) {
      throw StorageError("grDB: geometry mismatch (level spec)");
    }
    level.alloc = reader.get_u64();
    level.free_list = reader.get_vector<std::uint64_t>();
    const std::uint64_t extent = reader.get_varint();
    const auto bits = reader.get_vector<std::uint8_t>();
    // The bitmap's bytes bound the extent, so a corrupt extent cannot
    // size the allocation below.
    if (bits.size() != extent / 8 + (extent % 8 != 0 ? 1 : 0)) {
      throw StorageError("grDB: meta bitmap does not match its extent");
    }
    level.initialized.resize(extent);
    for (std::uint64_t b = 0; b < extent; ++b) {
      if ((bits[b / 8] >> (b % 8)) & 1) level.initialized.set(b);
    }
    level.block_crc = reader.get_vector<std::uint32_t>();
    // Every initialized block is checked against its CRC on a read, so
    // the table must cover the bitmap: a block past it would be read
    // unchecked.
    for (std::uint64_t b = level.block_crc.size(); b < extent; ++b) {
      if (level.initialized.test(b)) {
        throw StorageError("grDB: meta level " + std::to_string(l) +
                           " block " + std::to_string(b) +
                           " is initialized but has no CRC");
      }
    }
    // The file has no CRC.  alloc bounds check_allocated and the free
    // list feeds allocate_subblock, so both must lie inside the extent:
    // every sub-block the allocator handed out sits in a written block.
    const std::uint64_t per_block = levels_[l].spec.subblocks_per_block();
    if (level.alloc / per_block + (level.alloc % per_block != 0 ? 1 : 0) >
        extent) {
      throw StorageError("grDB: meta level " + std::to_string(l) +
                         " alloc past its extent");
    }
    for (const std::uint64_t subblock : level.free_list) {
      if (subblock >= level.alloc) {
        throw StorageError("grDB: meta level " + std::to_string(l) +
                           " free entry past its alloc");
      }
    }
  }
  if (!reader.empty()) {
    throw StorageError("grDB: meta has " + std::to_string(reader.remaining()) +
                       " bytes after its last level");
  }
  // max_vertex bounds every level-0 sweep (for_each_vertex, verify,
  // defragment): its block was written, so it lies inside the extent.
  if (image.max_vertex != 0 &&
      image.max_vertex / levels_[0].spec.subblocks_per_block() >=
          image.levels[0].initialized.size()) {
    throw StorageError("grDB: meta max_vertex past the level-0 extent");
  }
  return image;
}

std::vector<std::byte> GrDB::read_meta_file() {
  const File meta = File::open_readonly(dir_ / "grdb.meta", &stats_);
  std::vector<std::byte> bytes(meta.size());
  meta.read_at(0, bytes);
  return bytes;
}

void GrDB::load_meta() {
  MetaImage image = decode_meta(read_meta_file());
  generation_ = image.generation;
  max_vertex_.store(image.max_vertex, std::memory_order_relaxed);
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    Level& level = levels_[l];
    MetaImage::LevelImage& in = image.levels[l];
    level.alloc = in.alloc;
    level.free_list = std::move(in.free_list);
    level.initialized = std::move(in.initialized);
    level.block_crc = std::move(in.block_crc);
  }
  any_data_.store(true, std::memory_order_relaxed);
}

// ---- Sub-block management --------------------------------------------------

GrDB::SubblockRef GrDB::pin_subblock(int level, std::uint64_t subblock,
                                     bool for_write) {
  const auto addr = grdb::locate(options_.geometry, level, subblock);
  SubblockRef ref;
  ref.offset = addr.block_offset;
  ref.entries = levels_[level].spec.entries_per_subblock;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(level) << 48) | addr.block;
  if (for_write) {
    // COW boundary: shelve the pre-image before the caller can mutate.
    capture_version(level, addr.block, key);
    ref.handle = cache_.get(levels_[level].store_id, addr.block);
    return ref;
  }
  const Snapshot* snap =
      snapshots_enabled_ ? SnapshotScope::active_for(this) : nullptr;
  if (snap != nullptr) {
    // Snapshot read.  Versions first: a block mutated after the pin MUST
    // serve its shelved pre-image, whatever the live bytes say.
    ++stats_.txn_snapshot_reads;
    auto pin = versions_.pin(key, snap->epoch());
    if (pin.version != nullptr) {
      ref.view = std::span<const std::byte>(pin.version->data(),
                                            pin.version->size());
      ref.keepalive = std::move(pin.version);
      return ref;
    }
    // Else the live frame, in place: the ref keeps the shelf latched
    // shared until it is released, so a writer's first mutation of this
    // block this epoch (whose capture takes the shelf exclusive) cannot
    // begin while the reader is inside the sub-block.
    ref.latch = std::move(pin.latch);
  }
  ref.handle = cache_.get(levels_[level].store_id, addr.block);
  return ref;
}

void GrDB::capture_version(int level, std::uint64_t block,
                           std::uint64_t key) {
  if (!snapshots_enabled_) return;
  // Unconditional while snapshots are enabled (not just while one is
  // live): a snapshot may pin mid-epoch, after mutations began.  Purge
  // keeps the cost at one epoch of pre-images when nobody reads.
  const Epoch open = epochs_.open();
  const bool captured = versions_.capture(key, open, [&] {
    // Read the current bytes through the cache: a never-written block
    // synthesizes its all-0xFF "empty" image, which is exactly the
    // pre-image a fresh block needs.
    BlockHandle h = cache_.get(levels_[level].store_id, block);
    const auto data = h.data();
    return std::vector<std::byte>(data.begin(), data.end());
  });
  if (captured) ++stats_.txn_cow_pages;
}

void GrDB::commit_epoch() {
  if (!snapshots_enabled_) return;
  epochs_.advance();
  versions_.purge(epochs_.min_live());
}

SnapshotRef GrDB::begin_snapshot() {
  if (!snapshots_enabled_) return nullptr;
  // The live extent over-approximates the committed one; over-included
  // vertices resolve to their (empty) pre-image versions.  Read under
  // the pin, so it never falls short of the pinned epoch's.
  return epochs_.pin(this, [this] {
    return SnapshotBounds{max_vertex_.load(std::memory_order_relaxed) + 1,
                          any_data_.load(std::memory_order_relaxed)};
  });
}

GraphDB::TxnState GrDB::txn_state() const {
  if (!snapshots_enabled_) return {};
  return {epochs_.current(), epochs_.live_count(), versions_.versions()};
}

std::uint64_t GrDB::allocate_subblock(int level) {
  MSSG_CHECK(level >= 1 && level < static_cast<int>(levels_.size()));
  Level& lvl = levels_[level];
  const bool recycled = !lvl.free_list.empty();
  const std::uint64_t subblock = recycled ? lvl.free_list.back() : lvl.alloc;
  // Fresh sub-blocks start all-empty (a recycled one may hold stale data).
  SubblockRef ref = pin_subblock(level, subblock, /*for_write=*/true);
  std::memset(ref.handle.mutable_data().data() + ref.offset, 0xFF,
              lvl.spec.subblock_bytes());
  // Taken only once its block is dirty, so a pin that throws leaves no
  // alloc past the extent for the next meta (decode_meta's bound).
  if (recycled) {
    lvl.free_list.pop_back();
  } else {
    ++lvl.alloc;
  }
  return subblock;
}

void GrDB::check_allocated(VertexId v, int level,
                           std::uint64_t subblock) const {
  if (level > 0 && subblock >= levels_[level].alloc) {
    throw StorageError("grDB: vertex " + std::to_string(v) +
                       " chain: pointer past the allocated extent of level " +
                       std::to_string(level));
  }
}

void GrDB::release_subblock(int level, std::uint64_t subblock) {
  MSSG_CHECK(level >= 1 && level < static_cast<int>(levels_.size()));
  levels_[level].free_list.push_back(subblock);
}

// ---- Chain walking ---------------------------------------------------------

std::pair<int, std::uint64_t> GrDB::find_tail(
    VertexId v, std::vector<std::pair<int, std::uint64_t>>* track) {
  ChainWalk walk(options_.geometry, v);
  while (true) {
    if (track != nullptr) track->emplace_back(walk.level(), walk.subblock());
    SubblockRef ref = pin_subblock(walk.level(), walk.subblock());
    const std::uint64_t last = ref.get(ref.entries - 1);
    if (grdb::classify(last) != EntryKind::kPointer) {
      return {walk.level(), walk.subblock()};
    }
    walk.follow(last);
  }
}

std::vector<std::pair<int, std::uint64_t>> GrDB::chain_of(VertexId v) {
  std::vector<std::pair<int, std::uint64_t>> chain;
  find_tail(v, &chain);
  return chain;
}

void GrDB::poke_entry(int level, std::uint64_t subblock, std::uint64_t index,
                      std::uint64_t value) {
  MSSG_CHECK(level >= 0 && level < static_cast<int>(levels_.size()));
  std::lock_guard<std::mutex> lock(write_mu_);
  SubblockRef ref = pin_subblock(level, subblock, /*for_write=*/true);
  MSSG_CHECK(index < ref.entries);
  ref.set(index, value);
  dirty_since_flush_.store(true, std::memory_order_relaxed);
  checkpoint_due_ = true;  // no edge-log record describes this change
}

std::uint64_t GrDB::allocated_subblocks(int level) const {
  MSSG_CHECK(level >= 0 && level < static_cast<int>(levels_.size()));
  if (level == 0) {
    return any_data_.load(std::memory_order_relaxed)
               ? max_vertex_.load(std::memory_order_relaxed) + 1
               : 0;
  }
  return levels_[level].alloc;
}

void GrDB::publish_level_gauges() {
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    gauges_[l].subblocks.store(allocated_subblocks(static_cast<int>(l)),
                               std::memory_order_relaxed);
    gauges_[l].free.store(levels_[l].free_list.size(),
                          std::memory_order_relaxed);
  }
}

void GrDB::publish_metrics(MetricsSnapshot& snap) const {
  GraphDB::publish_metrics(snap);
  snap.add("storage.edge_log_bytes", log_ != nullptr ? log_->bytes() : 0);
  for (std::size_t l = 0; l < gauges_.size(); ++l) {
    const std::string prefix = "grdb.level" + std::to_string(l);
    snap.add(prefix + ".subblocks",
             gauges_[l].subblocks.load(std::memory_order_relaxed));
    snap.add(prefix + ".free", gauges_[l].free.load(std::memory_order_relaxed));
  }
  if (snapshots_enabled_) {
    const TxnState txn = txn_state();
    snap.add("txn.epochs_live", txn.live_snapshots);
    snap.add("txn.committed_epoch", txn.committed);
    snap.add("txn.versions_held", txn.versions);
  }
}

void GrDB::drop_os_page_cache() const {
  // Every regular file in the node directory: level files, grdb.meta,
  // and the journal.  Best-effort — a vanished file is not an error.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    try {
      File::open_readonly(entry.path()).drop_page_cache();
    } catch (const Error&) {  // NOLINT(bugprone-empty-catch)
    }
  }
}

// ---- Reads -----------------------------------------------------------------

bool GrDB::addressable(VertexId v) const {
  return v / levels_[0].spec.subblocks_per_block() < kBlockLimit;
}

bool GrDB::may_hold(VertexId v, const Snapshot* snap) const {
  if (!addressable(v)) return false;
  if (snap != nullptr) {
    // The pinned extent over-approximates the committed one; vertices it
    // admits that were only stored after the pin resolve to their all-0xFF
    // pre-image versions, i.e. the empty set.
    return snap->nonempty() && v < snap->extent();
  }
  // Nothing ever stored on this node: level-0 space beyond the extent is
  // untouched (reads as empty anyway).
  return any_data_.load(std::memory_order_relaxed);
}

void GrDB::get_adjacency(VertexId v, std::vector<VertexId>& out) {
  const Snapshot* snap =
      snapshots_enabled_ ? SnapshotScope::active_for(this) : nullptr;
  if (!may_hold(v, snap)) return;
  ChainWalk walk(options_.geometry, v);
  while (true) {
    const SubblockRef ref = pin_subblock(walk.level(), walk.subblock());
    if (!decode_subblock(ref, walk, out)) return;
  }
}

/// The buffers of one get_adjacency_batch call.  Each slice reuses them,
/// so a steady-state slice allocates nothing per request or per stage.
struct GrDB::BatchScratch {
  /// A walk with a sub-block left to read in this stage; `block` is its
  /// (level << 48 | block) key, the cache key of the block it reads (a
  /// block index is below kBlockLimit: addressable() and
  /// ChainWalk::follow check it).
  struct Cursor {
    std::uint64_t block;
    std::uint32_t request;
  };
  /// One decoded sub-block's vertex entries, inside an arena chunk.
  struct Segment {
    const VertexId* entries;
    std::size_t length;
    std::uint32_t request;
  };

  std::vector<ChainWalk> walks;  ///< one per request of the slice
  std::vector<Cursor> live;
  std::vector<Cursor> next;
  /// The arena: every stage's entries, in decode order.
  std::vector<std::vector<VertexId>> chunks;
  std::size_t filling = 0;        ///< the chunk being filled
  std::vector<Segment> segments;  ///< decode order
  /// Indices into `segments`, stably sorted by request.
  std::vector<std::size_t> by_request;
  /// ends[i]: one past request i's last segment in by_request.
  std::vector<std::size_t> ends;
  std::vector<VertexId> joined;  ///< a multi-segment list, for its visit

  /// Empties the arena for the next slice, keeping its chunks.
  void clear_arena() {
    for (auto& chunk : chunks) chunk.clear();
    filling = 0;
    segments.clear();
  }

  /// The chunk to decode a sub-block of `slots` entries into: the one
  /// being filled while it has room for all of them, else the next.
  std::vector<VertexId>& room_for(std::size_t slots) {
    for (;; ++filling) {
      if (filling == chunks.size()) {
        chunks.emplace_back().reserve(std::max(kArenaChunk, slots));
      }
      std::vector<VertexId>& chunk = chunks[filling];
      if (chunk.capacity() - chunk.size() >= slots) return chunk;
    }
  }

  /// Request i's list: a single segment straight from the arena, several
  /// joined (in chain order) into `joined`.
  std::span<const VertexId> list(std::size_t i) {
    const std::size_t first = i == 0 ? 0 : ends[i - 1];
    const std::size_t last = ends[i];
    if (last - first == 1) {
      const Segment& only = segments[by_request[first]];
      return {only.entries, only.length};
    }
    joined.clear();
    for (std::size_t k = first; k < last; ++k) {
      const Segment& part = segments[by_request[k]];
      joined.insert(joined.end(), part.entries, part.entries + part.length);
    }
    return joined;
  }
};

void GrDB::get_adjacency_batch(std::span<const VertexId> vertices,
                               const AdjacencyVisitor& visit) {
  const Snapshot* snap =
      snapshots_enabled_ ? SnapshotScope::active_for(this) : nullptr;
  BatchScratch scratch;
  for (std::size_t start = 0; start < vertices.size(); start += kBatchSlice) {
    const auto slice = vertices.subspan(
        start, std::min(kBatchSlice, vertices.size() - start));
    read_chains(slice, snap, scratch);
    // Every ref of the walk is released: the visitor may read this store.
    for (std::size_t i = 0; i < slice.size(); ++i) {
      if (!visit(start + i, scratch.list(i))) return;
    }
  }
}

void GrDB::read_chains(std::span<const VertexId> slice, const Snapshot* snap,
                       BatchScratch& scratch) {
  using Cursor = BatchScratch::Cursor;
  // One walk per request, so every chain keeps its own geometry, block
  // index and cycle checks.
  const auto cursor = [this](const ChainWalk& walk, std::size_t request) {
    const int level = walk.level();
    const std::uint64_t block =
        walk.subblock() / levels_[level].spec.subblocks_per_block();
    return Cursor{static_cast<std::uint64_t>(level) << 48 | block,
                  static_cast<std::uint32_t>(request)};
  };
  std::vector<ChainWalk>& walks = scratch.walks;
  std::vector<Cursor>& live = scratch.live;
  std::vector<Cursor>& next = scratch.next;
  walks.clear();
  live.clear();
  scratch.clear_arena();
  walks.reserve(slice.size());
  live.reserve(slice.size());
  next.reserve(slice.size());
  for (std::size_t i = 0; i < slice.size(); ++i) {
    walks.emplace_back(options_.geometry, slice[i]);
    if (may_hold(slice[i], snap)) live.push_back(cursor(walks[i], i));
  }
  // Stage blocks are read through the cache on this thread; nothing goes
  // to the IoEngine (DESIGN.md, "One batched adjacency read").
  while (!live.empty()) {
    // Block order within each level: ascending file offsets (§4.2).  The
    // key only has to group a block's cursors: each decodes into its own
    // segment, and the next stage sorts again.
    radix_sort(live, [](const Cursor& c) { return c.block; });
    next.clear();
    for (std::size_t j = 0; j < live.size();) {
      const std::uint64_t block = live[j].block;
      const int level = static_cast<int>(block >> 48);
      const grdb::LevelSpec& spec = levels_[level].spec;
      const std::uint64_t per_block = spec.subblocks_per_block();
      // One pin serves every listed sub-block of the block.  It is
      // released before the next block is pinned: a thread holds at most
      // one latched ref.
      SubblockRef ref = pin_subblock(level, walks[live[j].request].subblock());
      for (; j < live.size() && live[j].block == block; ++j) {
        const std::uint32_t request = live[j].request;
        ChainWalk& walk = walks[request];
        ref.offset = spec.subblock_bytes() * (walk.subblock() % per_block);
        // The chunk has room for every slot, so it does not reallocate
        // and the segments already taken from it stay valid.
        std::vector<VertexId>& chunk = scratch.room_for(ref.entries);
        const std::size_t offset = chunk.size();
        const bool more = decode_subblock(ref, walk, chunk);
        if (chunk.size() != offset) {
          scratch.segments.push_back(
              {chunk.data() + offset, chunk.size() - offset, request});
        }
        if (more) next.push_back(cursor(walk, request));
      }
    }
    live.swap(next);
  }
  // Counting sort by request.  It is stable, and a request has at most
  // one segment per stage, so each request's segments stay in chain
  // order.
  std::vector<std::size_t>& ends = scratch.ends;
  ends.assign(slice.size(), 0);
  for (const auto& segment : scratch.segments) ++ends[segment.request];
  std::size_t begin = 0;
  for (std::size_t& end : ends) begin += std::exchange(end, begin);
  scratch.by_request.resize(scratch.segments.size());
  for (std::size_t k = 0; k < scratch.segments.size(); ++k) {
    scratch.by_request[ends[scratch.segments[k].request]++] = k;
  }
}

void GrDB::for_each_vertex(const std::function<bool(VertexId)>& visit) {
  const Snapshot* snap =
      snapshots_enabled_ ? SnapshotScope::active_for(this) : nullptr;
  if (snap != nullptr) {
    if (!snap->nonempty()) return;
    // Over-included vertices (stored after the pin) read their empty
    // pre-image and are skipped — the sweep sees exactly the epoch.
    for (VertexId v = 0; v < snap->extent(); ++v) {
      if (level0_empty(v)) continue;
      if (!visit(v)) return;
    }
    return;
  }
  if (!any_data_.load(std::memory_order_relaxed)) return;
  const VertexId last = max_vertex_.load(std::memory_order_relaxed);
  for (VertexId v = 0; v <= last; ++v) {
    if (level0_empty(v)) continue;
    if (!visit(v)) return;
  }
}

bool GrDB::level0_empty(VertexId v) {
  // The ref is released before the caller's visitor runs: a visitor may
  // re-enter get_adjacency, and a thread holds one latched ref at most.
  const SubblockRef ref = pin_subblock(0, v);
  return grdb::classify(ref.get(0)) == EntryKind::kEmpty;
}

void GrDB::prefetch(std::span<const VertexId> vertices) {
  // Without an engine there is nothing to overlap: warming a block on
  // the query thread is the same blocking read the walk would make.
  if (!cache_.async_enabled() || !any_data_.load(std::memory_order_relaxed)) {
    return;
  }
  // Distinct level-0 blocks, ascending => file offsets ascending.
  std::vector<std::uint64_t> blocks;
  blocks.reserve(vertices.size());
  const std::uint64_t k0 = levels_[0].spec.subblocks_per_block();
  const VertexId last = max_vertex_.load(std::memory_order_relaxed);
  for (const VertexId v : vertices) {
    if (v <= last) blocks.push_back(v / k0);
  }
  radix_sort(blocks, [](std::uint64_t block) { return block; });
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  // Read-ahead through the engine: the fringe's blocks load in the
  // background while the caller returns to computation.
  cache_.prefetch_async(levels_[0].store_id, blocks);
}

// ---- Writes ----------------------------------------------------------------

void GrDB::validate_edges(std::span<const Edge> edges) const {
  for (const auto& e : edges) {
    if (e.src > kMaxVertexId || e.dst > kMaxVertexId) {
      throw UsageError("grDB: edge (" + std::to_string(e.src) + ", " +
                       std::to_string(e.dst) + ") has an id past 2^" +
                       std::to_string(kVertexIdBits) + " - 1");
    }
    if (!addressable(e.src)) {
      throw UsageError(
          "grDB: source vertex " + std::to_string(e.src) +
          " is past the level-0 address space (ids below " +
          std::to_string(levels_[0].spec.subblocks_per_block()) +
          " * 2^48)");
    }
  }
}

void GrDB::store_edges(std::span<const Edge> edges) {
  std::lock_guard<std::mutex> lock(write_mu_);
  store_locked(edges);
}

void GrDB::store_locked(std::span<const Edge> edges) {
  // Every edge is checked before any block is touched, so a rejected
  // batch stores nothing.
  validate_edges(edges);
  // Batch by source: one chain walk per distinct vertex per batch.
  std::unordered_map<VertexId, std::vector<VertexId>> by_source;
  for (const auto& e : edges) by_source[e.src].push_back(e.dst);
  try {
    for (const auto& [src, neighbors] : by_source) append(src, neighbors);
  } catch (...) {
    checkpoint_due_ = true;  // a half-applied batch no record describes
    throw;
  }
  // The open commit's record, written by the flush that commits it: a
  // record written here could outlive a crash whose flush never
  // returned.  Kept only while the flush can be a log commit: a log
  // without a header of the committed generation (a fresh store's bulk
  // ingest) or without room for the record means a checkpoint.
  if (!log_commits_ || checkpoint_due_ || !log_->ready(generation_)) return;
  if (log_->bytes() + EdgeLog::record_bytes(pending_.size() + edges.size()) >
      kEdgeLogBoundBytes) {
    pending_.clear();
    pending_.shrink_to_fit();
    checkpoint_due_ = true;
    return;
  }
  pending_.insert(pending_.end(), edges.begin(), edges.end());
}

void GrDB::append(VertexId v, std::span<const VertexId> neighbors) {
  if (neighbors.empty()) return;
  any_data_.store(true, std::memory_order_relaxed);
  dirty_since_flush_.store(true, std::memory_order_relaxed);
  const int last_level = static_cast<int>(levels_.size()) - 1;

  // Walk to the tail, remembering the parent sub-block for copy-up mode.
  int prev_level = -1;
  std::uint64_t prev_subblock = 0;
  ChainWalk walk(options_.geometry, v);
  while (true) {
    SubblockRef ref = pin_subblock(walk.level(), walk.subblock());
    const std::uint64_t last = ref.get(ref.entries - 1);
    if (grdb::classify(last) != EntryKind::kPointer) break;
    prev_level = walk.level();
    prev_subblock = walk.subblock();
    walk.follow(last);
  }
  int level = walk.level();
  std::uint64_t subblock = walk.subblock();
  check_allocated(v, level, subblock);

  SubblockRef ref = pin_subblock(level, subblock, /*for_write=*/true);
  // Raised only now, so every meta written from here on has v's level-0
  // block inside level 0's extent: a non-empty level-0 sub-block was
  // written before, and an empty one takes the first set below before
  // anything can throw.  write_mu_ serializes writers; the
  // load-compare-store cannot race another writer, and readers tolerate
  // any momentary value.
  if (v > max_vertex_.load(std::memory_order_relaxed)) {
    max_vertex_.store(v, std::memory_order_relaxed);
  }
  std::uint64_t d = ref.entries;
  // First empty slot; d means the sub-block is completely full.
  std::uint64_t idx = 0;
  while (idx < d && grdb::classify(ref.get(idx)) != EntryKind::kEmpty) ++idx;

  std::size_t pos = 0;
  while (pos < neighbors.size()) {
    if (idx + 1 < d) {
      ref.set(idx++, grdb::make_vertex_entry(neighbors[pos++]));
      continue;
    }
    if (idx == d - 1 && pos + 1 == neighbors.size()) {
      // Exactly one neighbor left: it may occupy the final slot (a full
      // sub-block without a pointer is a valid chain tail).
      ref.set(idx++, grdb::make_vertex_entry(neighbors[pos++]));
      continue;
    }

    // The sub-block overflows.  Either link to a fresh sub-block at the
    // next level, or (copy-up mode, levels >= 1) migrate this sub-block's
    // contents up and retarget the parent pointer.
    const int next_level = std::min(level + 1, last_level);

    if (options_.growth == GrDBGrowth::kCopyUp && level >= 1 &&
        level < last_level) {
      const std::uint64_t new_subblock = allocate_subblock(next_level);
      SubblockRef new_ref =
          pin_subblock(next_level, new_subblock, /*for_write=*/true);
      for (std::uint64_t i = 0; i < idx; ++i) new_ref.set(i, ref.get(i));
      MSSG_CHECK(prev_level >= 0);
      SubblockRef parent =
          pin_subblock(prev_level, prev_subblock, /*for_write=*/true);
      parent.set(parent.entries - 1,
                 grdb::make_pointer_entry(next_level, new_subblock));
      release_subblock(level, subblock);
      level = next_level;
      subblock = new_subblock;
      ref = std::move(new_ref);
      // idx (fill count) carries over; capacity grew, so filling resumes.
      d = ref.entries;
      continue;
    }

    // Link mode (also used at level 0, which is the fixed chain root, and
    // at the maximum level, where chains extend sideways).
    std::uint64_t displaced = grdb::kEmptySlot;
    if (idx == d) displaced = ref.get(d - 1);  // full: relocate last entry
    const std::uint64_t new_subblock = allocate_subblock(next_level);
    SubblockRef new_ref =
        pin_subblock(next_level, new_subblock, /*for_write=*/true);
    ref.set(d - 1, grdb::make_pointer_entry(next_level, new_subblock));
    prev_level = level;
    prev_subblock = subblock;
    level = next_level;
    subblock = new_subblock;
    ref = std::move(new_ref);
    d = ref.entries;
    idx = 0;
    if (displaced != grdb::kEmptySlot) ref.set(idx++, displaced);
  }
}

// ---- Verification ----------------------------------------------------------

GrDB::VerifyReport GrDB::verify() {
  VerifyReport report;
  if (!any_data_) return report;

  const int last_level = static_cast<int>(levels_.size()) - 1;
  // Sub-blocks reachable from some chain, per level (level 0 excluded:
  // it is directly addressed, never pointed at).
  std::vector<std::unordered_set<std::uint64_t>> reachable(levels_.size());
  auto complain = [&report](std::string message) {
    if (report.errors.size() < 64) report.errors.push_back(std::move(message));
  };

  for (VertexId v = 0; v <= max_vertex_; ++v) {
    int level = 0;
    std::uint64_t subblock = v;
    std::size_t hops = 0;
    bool chain_counted = false;
    // Generous bound: a sound chain cannot exceed one sub-block per level
    // plus last-level extensions.
    const std::size_t hop_limit =
        levels_.size() + levels_[last_level].alloc + 1;
    while (true) {
      if (++hops > hop_limit) {
        complain("vertex " + std::to_string(v) + ": chain exceeds " +
                 std::to_string(hop_limit) + " sub-blocks (cycle?)");
        break;
      }
      SubblockRef ref;
      try {
        ref = pin_subblock(level, subblock);
      } catch (const Error& e) {
        // A block that cannot even be read (sidecar checksum failure,
        // I/O error) is a finding, not a reason for the fsck to die.
        complain("vertex " + std::to_string(v) + ": " + e.what());
        break;
      }
      bool saw_empty = false;
      std::uint64_t next_subblock = 0;
      int next_level = -1;
      for (std::uint64_t i = 0; i < ref.entries; ++i) {
        std::uint64_t entry;
        try {
          entry = ref.get(i);
          switch (grdb::classify(entry)) {
            case EntryKind::kVertex:
              if (saw_empty) {
                complain("vertex " + std::to_string(v) +
                         ": entry after empty slot at level " +
                         std::to_string(level));
              }
              ++report.entries;
              if (!chain_counted) {
                ++report.chains_checked;
                chain_counted = true;
              }
              break;
            case EntryKind::kEmpty:
              saw_empty = true;
              break;
            case EntryKind::kPointer: {
              if (i + 1 != ref.entries) {
                complain("vertex " + std::to_string(v) +
                         ": pointer not in last slot");
              }
              next_level = grdb::pointer_level(entry);
              next_subblock = grdb::pointer_subblock(entry);
              if (next_level > last_level) {
                complain("vertex " + std::to_string(v) +
                         ": pointer to level beyond geometry");
                next_level = -1;
              } else if (next_subblock >= levels_[next_level].alloc) {
                complain("vertex " + std::to_string(v) +
                         ": pointer past allocated extent of level " +
                         std::to_string(next_level));
                next_level = -1;
              } else if (!reachable[next_level].insert(next_subblock)
                              .second) {
                complain("sub-block " + std::to_string(next_subblock) +
                         " at level " + std::to_string(next_level) +
                         " reachable from two chains");
                next_level = -1;
              }
              break;
            }
          }
        } catch (const Error& e) {
          complain("vertex " + std::to_string(v) + ": " + e.what());
          next_level = -1;
          break;
        }
      }
      if (next_level < 0) break;
      level = next_level;
      subblock = next_subblock;
    }
  }

  // Free-listed sub-blocks must not be reachable.
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    for (const auto free_sb : levels_[l].free_list) {
      if (reachable[l].contains(free_sb)) {
        complain("sub-block " + std::to_string(free_sb) + " at level " +
                 std::to_string(l) + " is both free and reachable");
      }
    }
  }
  return report;
}

// ---- Defragmentation -------------------------------------------------------

namespace {
/// The optimal (copy-up) chain shape for a given degree: the level-0 root
/// links directly to the smallest single sub-block that holds the rest —
/// intermediate levels vanish, exactly what repeated copy-up produces.
/// Degrees beyond the top level extend sideways at the top level.
std::vector<int> optimal_levels(std::uint64_t degree,
                                const grdb::Geometry& geo) {
  std::vector<int> seq{0};
  const int last = geo.level_count() - 1;
  const std::uint64_t d0 = geo.levels[0].entries_per_subblock;
  if (degree <= d0) return seq;
  std::uint64_t remaining = degree - (d0 - 1);
  for (int l = 1; l <= last; ++l) {
    if (geo.levels[l].entries_per_subblock >= remaining) {
      seq.push_back(l);
      return seq;
    }
  }
  const std::uint64_t d_last = geo.levels[last].entries_per_subblock;
  while (true) {
    seq.push_back(last);
    if (remaining <= d_last) return seq;
    remaining -= d_last - 1;
  }
}
}  // namespace

std::uint64_t GrDB::defragment() {
  if (!any_data_.load(std::memory_order_relaxed)) return 0;
  std::lock_guard<std::mutex> lock(write_mu_);
  dirty_since_flush_.store(true, std::memory_order_relaxed);
  checkpoint_due_ = true;  // no edge-log record describes a rewrite
  std::uint64_t rewritten = 0;
  std::vector<VertexId> neighbors;
  std::vector<std::pair<int, std::uint64_t>> chain;

  const VertexId last_vertex = max_vertex_.load(std::memory_order_relaxed);
  for (VertexId v = 0; v <= last_vertex; ++v) {
    chain.clear();
    find_tail(v, &chain);
    if (chain.size() <= 1) continue;

    neighbors.clear();
    get_adjacency(v, neighbors);

    // Already optimal?  Compare the level sequences.
    const auto target = optimal_levels(neighbors.size(), options_.geometry);
    bool optimal = target.size() == chain.size();
    for (std::size_t i = 0; optimal && i < chain.size(); ++i) {
      optimal = chain[i].first == target[i];
    }
    if (optimal) continue;

    // Recycle the old chain (all but the fixed level-0 root)...
    for (std::size_t i = 1; i < chain.size(); ++i) {
      check_allocated(v, chain[i].first, chain[i].second);
    }
    for (std::size_t i = 1; i < chain.size(); ++i) {
      release_subblock(chain[i].first, chain[i].second);
    }

    // ...and write the compact chain along the optimal level sequence.
    std::uint64_t subblock = v;
    std::size_t pos = 0;
    for (std::size_t step = 0; step < target.size(); ++step) {
      const int level = target[step];
      SubblockRef ref = pin_subblock(level, subblock, /*for_write=*/true);
      const std::uint64_t d = ref.entries;
      std::memset(ref.handle.mutable_data().data() + ref.offset, 0xFF,
                  levels_[level].spec.subblock_bytes());
      if (step + 1 == target.size()) {
        const std::uint64_t remaining = neighbors.size() - pos;
        MSSG_CHECK(remaining <= d);
        for (std::uint64_t i = 0; i < remaining; ++i) {
          ref.set(i, grdb::make_vertex_entry(neighbors[pos++]));
        }
      } else {
        for (std::uint64_t i = 0; i < d - 1; ++i) {
          ref.set(i, grdb::make_vertex_entry(neighbors[pos++]));
        }
        const int next_level = target[step + 1];
        const std::uint64_t next_subblock = allocate_subblock(next_level);
        ref.set(d - 1, grdb::make_pointer_entry(next_level, next_subblock));
        subblock = next_subblock;
      }
    }
    ++rewritten;
  }
  publish_level_gauges();
  return rewritten;
}

}  // namespace mssg
