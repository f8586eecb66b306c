// grDB — the thesis' novel out-of-core graph database (§3.4.1, §4.1.6).
//
// The *storage component* keeps partial adjacency lists in multi-level
// sub-block chains; the *block cache component* (storage/block_cache)
// caches whole blocks.  A vertex's adjacency list begins in its level-0
// sub-block (sub-block index == GID); when a sub-block fills, its last
// slot becomes a tagged pointer to a sub-block at a higher level.
//
// Two growth strategies from the thesis are implemented:
//  - kLink ("the sub-block at level l is left unchanged and simply
//    links"): cheap inserts, fragmented chains.
//  - kCopyUp ("all of the contents ... are moved to the new sub-block"):
//    extra copies during insertion, compact chains.
// defragment() is the offline "idle time" compaction pass that rewrites
// fragmented chains into their optimal shape and recycles sub-blocks.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/bitset.hpp"
#include "common/shared_latch.hpp"
#include "graphdb/graphdb.hpp"
#include "graphdb/grdb/format.hpp"
#include "storage/block_cache.hpp"
#include "storage/edge_log.hpp"
#include "storage/file.hpp"
#include "storage/journal.hpp"
#include "storage/mapped_file.hpp"

namespace mssg {

enum class GrDBGrowth { kLink, kCopyUp };

struct GrDBOptions {
  grdb::Geometry geometry = grdb::Geometry::standard();
  GrDBGrowth growth = GrDBGrowth::kLink;
};

class GrDB final : public GraphDB {
 public:
  explicit GrDB(const GraphDBConfig& config, GrDBOptions options = {});
  ~GrDB() override;

  /// Throws UsageError, storing nothing, when validate_edges() rejects
  /// the batch.
  void store_edges(std::span<const Edge> edges) override;
  /// Rejects an id past kMaxVertexId, and a source whose level-0
  /// sub-block lies past the 48-bit block index space (v >= 2^56 with
  /// the standard geometry).
  void validate_edges(std::span<const Edge> edges) const override;
  /// Such ids, which no store can hold, read as the empty list.
  void get_adjacency(VertexId v, std::vector<VertexId>& out) override;
  /// The staged chain walk: requests are taken in slices of 4096.  Every
  /// chain of a slice advances together, one stage per chain hop; each
  /// stage visits its blocks in (level, block) order, pins each once and
  /// decodes every listed sub-block in it, so fringe vertices that share
  /// a chain block read it once per stage instead of once each.  A
  /// stage's cursors are radix-sorted by their block's cache key
  /// (level << 48 | block): that groups a block's cursors, and their
  /// order inside the group does not matter, since each decodes into
  /// its own request's list.  The slice is then visited in request
  /// order.
  void get_adjacency_batch(std::span<const VertexId> vertices,
                           const AdjacencyVisitor& visit) override;
  /// Commits everything stored so far (DESIGN.md "Durability &
  /// recovery").  With the journal on, a flush is one of:
  ///  - a log commit: the edges stored since the last commit are
  ///    appended to the node's edge log as one record and only that file
  ///    is fdatasync'd; the blocks stay dirty in the cache.  Taken when
  ///    journal_sync_interval is 1, mmap_sealed is off, every mutation
  ///    since the last commit came through store_edges, the record fits
  ///    under kEdgeLogBoundBytes, and the last checkpoint completed;
  ///  - a checkpoint otherwise, and whenever the log holds records but
  ///    nothing new was stored: the redo/commit/in-place/trim sequence
  ///    over every dirty block, after which the log starts over.
  /// Either way the flush's writes are durable when it returns.  With
  /// journal_sync_interval > 1 only every n-th checkpoint commits; the
  /// rest defer into the group (the destructor forces the boundary).
  void flush() override {
    std::lock_guard<std::mutex> lock(write_mu_);
    flush_impl(/*force_checkpoint=*/false);
    publish_level_gauges();
  }
  void finalize_ingest() override { flush(); }

  /// Pins the last committed epoch (DESIGN.md "Snapshot isolation").
  /// With `GraphDBConfig::snapshots` on, reads under a SnapshotScope
  /// holding the ref serve exactly that epoch — version pre-images
  /// first, then the sealed mapping, then the live cache frame read in
  /// place under a shared latch on the version shelf — while
  /// store_edges/flush advance the next epoch concurrently.
  [[nodiscard]] SnapshotRef begin_snapshot() override;
  [[nodiscard]] TxnState txn_state() const override;

  /// Sequential sweep of the level-0 extent; visits vertices whose first
  /// entry is non-empty.
  void for_each_vertex(const std::function<bool(VertexId)>& visit) override;

  /// Warms the cache with the level-0 blocks of the given vertices,
  /// visiting blocks in ascending block order ("sorting the pre-fetch
  /// disk accesses by file offsets to reduce the seek overhead", §4.2).
  void prefetch(std::span<const VertexId> vertices) override;

  [[nodiscard]] std::string name() const override { return "grDB"; }

  /// Adds per-level sub-block allocation and free-list depth gauges
  /// ("grdb.level<l>.subblocks" / ".free") and the edge log's size
  /// ("storage.edge_log_bytes") on top of the registry, plus
  /// mmap page-cache residency (mincore sampling) while the sealed
  /// mapping is live.  The level gauges are the values the writer last
  /// published (at open, each flush and each defragment), so a call is
  /// safe next to queries and next to live ingest.
  void publish_metrics(MetricsSnapshot& snap) const override;

  /// Evicts every file in the storage directory (level files, meta,
  /// journal) from the OS page cache — see GraphDB::drop_os_page_cache.
  void drop_os_page_cache() const override;

  /// Offline compaction: rewrites every multi-sub-block chain into its
  /// optimal shape, returning freed sub-blocks to per-level free lists.
  /// Returns the number of chains rewritten.
  std::uint64_t defragment();

  /// The (level, sub-block) chain of a vertex — introspection for tests
  /// and the fragmentation ablation.
  [[nodiscard]] std::vector<std::pair<int, std::uint64_t>> chain_of(
      VertexId v);

  /// Overwrites one raw entry THROUGH the cache (so the block's sidecar
  /// CRC reseals legitimately on flush) — a fault-injection hook letting
  /// tests plant structurally invalid chains that verify() must catch.
  /// Out-of-band on-disk patching is caught earlier, by the checksum.
  void poke_entry(int level, std::uint64_t subblock, std::uint64_t index,
                  std::uint64_t value);

  /// Structural integrity report from verify().
  struct VerifyReport {
    std::uint64_t chains_checked = 0;
    std::uint64_t entries = 0;        ///< adjacency entries seen
    std::vector<std::string> errors;  ///< empty iff the instance is sound

    [[nodiscard]] bool ok() const { return errors.empty(); }
  };

  /// Walks every chain and checks the format invariants: pointer targets
  /// within the allocated extent, no sub-block reachable twice, no
  /// sub-block both reachable and on a free list, slots filled
  /// left-to-right, chain length bounded.  Read-only; the fsck of grDB.
  [[nodiscard]] VerifyReport verify();

  /// Sub-blocks ever allocated at a level (level 0 reports the touched
  /// id-space extent).  Reads writer-owned state: call it from the
  /// writer's thread, or with no writer running.
  [[nodiscard]] std::uint64_t allocated_subblocks(int level) const;

 private:
  struct Level {
    grdb::LevelSpec spec;
    std::uint16_t store_id = 0;
    std::uint64_t alloc = 0;  ///< next-unallocated sub-block (levels >= 1)
    std::vector<std::uint64_t> free_list;
    DynamicBitset initialized;  ///< blocks that exist on disk / in cache
    // Sidecar CRC32C per block (grDB's geometry packs sub-blocks exactly,
    // leaving no room for an in-page trailer); persisted in grdb.meta and
    // checked on every disk read of an initialized block.
    std::vector<std::uint32_t> block_crc;
    // Blocks first initialized in the CURRENT journal epoch: they need no
    // undo pre-image — rolling back the committed meta's initialized
    // bitmap already makes their on-disk bytes unreachable.
    std::unordered_set<std::uint64_t> fresh;
    std::vector<std::unique_ptr<File>> files;
  };

  /// A pinned sub-block: the owning block handle plus entry accessors.
  /// On the sealed mmap path `view` is set instead of `handle` — the
  /// entries read directly from the mapping, no cache frame involved;
  /// such refs are read-only (set() asserts).  Snapshot reads set `view`
  /// over `keepalive`, a refcounted immutable block image (a COW
  /// pre-image or a sealed-mapping copy) that outlives any purge — or,
  /// when no version serves the pin, read the live frame through
  /// `handle` while `latch` holds the version shelf shared, which keeps
  /// the writer's first capture of the block (and so its first change)
  /// out until the ref is released.  A thread holds at most one ref
  /// with a latch: release one before pinning the next, and before
  /// calling out to code that may read this store.
  struct SubblockRef {
    BlockHandle handle;
    std::span<const std::byte> view;  ///< zero-copy mapped block, or empty
    std::shared_ptr<const std::vector<std::byte>> keepalive;
    std::uint64_t offset = 0;  ///< byte offset of the sub-block in block
    std::uint64_t entries = 0;
    // Declared last, released first: the frame's unpin may evict and
    // write back, which a capture need not wait for.
    std::shared_lock<SharedLatch> latch;

    [[nodiscard]] std::uint64_t get(std::uint64_t i) const;
    void set(std::uint64_t i, std::uint64_t value);
  };

  /// Pins for reading by default; `for_write` routes through the COW
  /// capture (pre-image shelved on the first mutation of the block per
  /// epoch) before handing out the mutable cache frame.
  SubblockRef pin_subblock(int level, std::uint64_t subblock,
                           bool for_write = false);
  File& ensure_file(int level, std::uint64_t file_index);
  std::uint64_t allocate_subblock(int level);
  void release_subblock(int level, std::uint64_t subblock);
  /// Writer-side check before a chain sub-block is written through or
  /// recycled: a sub-block at level >= 1 the allocator never handed out
  /// (a corrupt pointer) throws StorageError instead of steering writes
  /// anywhere in the block index space.
  void check_allocated(VertexId v, int level, std::uint64_t subblock) const;

  /// True when v's level-0 sub-block has no first entry (the sweep test
  /// of for_each_vertex).
  bool level0_empty(VertexId v);

  /// True when v's level-0 sub-block lies inside the 48-bit block index
  /// space of the cache keys.
  [[nodiscard]] bool addressable(VertexId v) const;
  /// True when v may have a chain to read: addressable, and inside the
  /// snapshot's extent when one is installed, or any data stored.
  [[nodiscard]] bool may_hold(VertexId v, const Snapshot* snap) const;
  /// One slice of get_adjacency_batch: walks every request's chain,
  /// stage by stage, appending each list into `lists[i]`.
  void read_chains(std::span<const VertexId> slice, const Snapshot* snap,
                   std::vector<std::vector<VertexId>>& lists);

  /// Appends neighbors to one vertex's chain.
  void append(VertexId v, std::span<const VertexId> neighbors);

  /// Walks to the chain tail.  When `track` is non-null, every visited
  /// (level, subblock) is recorded (level-0 first).
  std::pair<int, std::uint64_t> find_tail(
      VertexId v, std::vector<std::pair<int, std::uint64_t>>* track);

  /// grdb.meta decoded, without touching this store's state.
  struct MetaImage {
    std::uint64_t generation = 0;
    VertexId max_vertex = 0;
    struct LevelImage {
      std::uint64_t alloc = 0;
      std::vector<std::uint64_t> free_list;
      DynamicBitset initialized;
      std::vector<std::uint32_t> block_crc;
    };
    std::vector<LevelImage> levels;  ///< empty: no meta
  };
  /// Throws StorageError on a bad magic, a geometry mismatch or a bitmap
  /// that disagrees with its extent, and FormatError on truncation.
  [[nodiscard]] MetaImage decode_meta(std::span<const std::byte> bytes) const;
  [[nodiscard]] std::vector<std::byte> read_meta_file();
  void load_meta();
  void save_meta();
  [[nodiscard]] std::vector<std::byte> encode_meta(
      std::uint64_t generation) const;
  void write_meta_file(std::span<const std::byte> bytes);
  void sync_level_files();
  /// Validates and applies one batch; keeps it as the open commit's
  /// pending record (caller holds write_mu_).
  void store_locked(std::span<const Edge> edges);
  void flush_impl(bool force_checkpoint);
  /// Appends the pending record to the edge log and syncs it.
  void log_commit();
  /// The full commit: redo, sync, commit, in place, sync, trim; then the
  /// edge log restarts under the generation the new meta carries.
  void checkpoint(bool force_commit);
  /// Replays the edge log's records of the committed generation through
  /// store_locked, then checkpoints them (constructor).
  void replay_edge_log();
  /// Logs an undo pre-image for (level, block) if this is its first
  /// in-place overwrite of the epoch (no-op for fresh blocks, outside
  /// journal mode, and during flush's post-commit phase).
  void maybe_log_undo(int level, std::uint64_t block);
  /// Replays a pending journal epoch (ctor: both directions; flush
  /// start: committed roll-forward only).  Every record is checked
  /// against the geometry and the extent of the meta the replay
  /// restores before any is applied; a bad one throws StorageError.
  /// Returns the generation of the meta a roll-forward restored.
  std::optional<std::uint64_t> recover(bool allow_rollback);
  void clear_fresh();

  /// COW capture: shelves the block's current bytes (via the cache, so
  /// a never-written block captures its all-0xFF "empty" image) as the
  /// open epoch's pre-image, once per (block, epoch).  Runs before every
  /// mutable pin while snapshots are enabled.
  void capture_version(int level, std::uint64_t block, std::uint64_t key);
  /// Snapshot read from the sealed mapping: copy-then-revalidate.  The
  /// block must have been initialized at map time (frozen bitmap) and
  /// never COW-captured since the map (cow_since_map_) — checked again
  /// after the copy, so a racing first mutation (whose eviction/flush
  /// could rewrite the mapped file bytes mid-copy) discards the copy and
  /// falls back.  Returns nullptr to decline.
  std::shared_ptr<const std::vector<std::byte>> mapped_snapshot_copy(
      int level, std::uint64_t block, std::uint64_t key);
  /// Commit boundary bookkeeping: advances the epoch and purges
  /// versions no live snapshot can read.
  void commit_epoch();
  /// Copies each level's allocation extent and free-list depth into
  /// gauges_ (writer context).
  void publish_level_gauges();

  /// True when the sealed mapping is live (fast path), otherwise one
  /// map attempt per sealed epoch.
  bool mapped_or_map();
  /// Maps every level file read-only iff the store is sealed: flushed
  /// (no dirty blocks, no open journal group) and no FaultInjector
  /// armed.  One attempt per epoch — a decline counts mmap.fallbacks
  /// and stands until the next full-commit flush re-arms it.
  bool try_map_sealed();
  /// Drops the mapping before a mutation or journal replay touches the
  /// level files.  Callers run exclusively (scheduler contract: writers
  /// never overlap readers), so no live scan holds a view.
  void unmap_sealed();
  /// Re-allows a map attempt after a flush that left the store sealed.
  void rearm_mmap();

  GrDBOptions options_;
  std::filesystem::path dir_;
  // levels_ (the File handles) and journal_ are declared before cache_
  // so the cache — whose destructor drains the async engine and writes
  // dirty blocks back through those files, capturing undo pre-images
  // into the journal — is destroyed first.
  std::vector<Level> levels_;
  std::unique_ptr<WriteJournal> journal_;
  std::unique_ptr<EdgeLog> log_;  // with journal_
  BlockCache cache_;
  // Relaxed atomics: with snapshots on, reader threads consult these
  // while the (write_mu_-serialized) writer mutates them; cross-thread
  // visibility of the values they guard rides on the EpochManager mutex
  // (pin happens-after advance) rather than on these loads.
  std::atomic<VertexId> max_vertex_{0};
  std::atomic<bool> any_data_{false};
  std::atomic<bool> in_flush_{false};  // post-commit phase: skip undo capture
  std::atomic<bool> dirty_since_flush_{false};
  // The grdb.level* gauges, one pair per level: the writer stores them,
  // publish_metrics reads only these.
  struct LevelGauges {
    std::atomic<std::uint64_t> subblocks{0};
    std::atomic<std::uint64_t> free{0};
  };
  std::vector<LevelGauges> gauges_;

  // Commit state (writer-owned, under write_mu_).  A flush may be a log
  // commit only while log_commits_ holds and checkpoint_due_ does not.
  bool log_commits_ = false;  // journal on, interval 1, mmap_sealed off
  bool checkpoint_due_ = false;
  std::vector<Edge> pending_;  // the open commit's record
  std::uint64_t generation_ = 0;  // carried by the last committed meta

  // Serializes the mutator entry points (store_edges, flush, poke_entry,
  // defragment) against each other; readers never take it.
  std::mutex write_mu_;
  // Leaf mutex over per-level metadata a reader-thread cache callback
  // can mutate (initialized bitmap, sidecar CRCs, fresh set) while the
  // writer reads it outside the cache lock (encode_meta, map freezing).
  // Callbacks already exclude each other via the cache mutex; this only
  // orders them against those non-callback readers.
  mutable std::mutex meta_mu_;
  // Leaf mutex over the per-level files vectors: a reader-thread cache
  // miss may create a file (ensure_file) while flush iterates them.
  std::mutex files_mu_;

  // Snapshot isolation (GraphDBConfig::snapshots).
  bool snapshots_enabled_ = false;
  EpochManager epochs_;
  VersionStore<std::vector<std::byte>> versions_;  // key = level<<48 | block

  // The sealed zero-copy read path (GraphDBConfig::mmap_sealed).
  // mapped_active_ is the lock-free fast-path flag concurrent scan
  // readers check; map_mu_ serializes map/unmap/re-arm.  Without
  // snapshots, mutators run exclusively and unmap first, so no reader
  // holds a view across a transition.  With snapshots the mapping is
  // never unmapped while readers run: pin_subblock serves mapped bytes
  // only for blocks frozen at map time (mapped_init_/mapped_crc_ are
  // immutable copies) and never COW-captured since (cow_since_map_), so
  // file rewrites by eviction/flush can only touch blocks the mapped
  // path already declines.
  bool mmap_enabled_ = false;
  bool mmap_retry_ = true;  // one map attempt per sealed epoch (map_mu_)
  std::atomic<bool> mapped_active_{false};
  mutable std::mutex map_mu_;
  std::vector<std::unique_ptr<MappedBlockSource>> mapped_;  // per level
  std::vector<DynamicBitset> mapped_init_;          // frozen at map time
  std::vector<std::vector<std::uint32_t>> mapped_crc_;  // frozen at map time
  mutable std::mutex stale_mu_;
  std::unordered_set<std::uint64_t> cow_since_map_;  // keys captured since map
};

}  // namespace mssg
