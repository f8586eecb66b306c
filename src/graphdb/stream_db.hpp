// StreamDB — §4.1.5: "a basic streaming database which stores the edges
// to disk as they are received ... No sorting or clustering of the edges
// is performed", inspired by Active Disks [4].
//
// Ingestion is a buffered append of raw (src, dst) pairs — unrivalled
// ingest speed in Figure 5.5.  Retrieval must scan the whole log, so
// "any search algorithm which needs the adjacent vertices to another set
// of vertices ... must post a request for all of the 'fringe' vertices
// at once": GraphDB::get_adjacency_batch() is that API, answered here by
// one log scan per call, and every traversal sends its fringe through
// it.  Single-vertex get_adjacency() works (a full scan per call) to
// honour the GraphDB contract.
//
// Durability: a dual-slot commit sidecar ("stream.commit") records the
// committed log length.  flush() appends + syncs the log, then commits
// the new length into the older slot (CRC-guarded, newest valid seq
// wins) — so a crash anywhere leaves a readable committed prefix and a
// torn tail that reopen simply ignores.  With `journal` off the sidecar
// is not written and reopen falls back to the file size rounded down to
// whole edges.
//
// Snapshot isolation is free for an append-only log: a snapshot pins the
// committed byte extent, and a prefix scan of [0, extent) needs no lock
// at all — appends only ever land past it (pread is thread-safe, bytes
// below the committed length are never rewritten).  Each flush that
// appends advances the epoch.  The writer side (buffer, flush) takes a
// mutex in snapshot mode; live (non-snapshot) reads take it too, since
// they implicitly flush first.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <optional>

#include "graphdb/graphdb.hpp"
#include "storage/file.hpp"

namespace mssg {

class StreamDB final : public GraphDB {
 public:
  explicit StreamDB(const GraphDBConfig& config);

  void store_edges(std::span<const Edge> edges) override;
  void get_adjacency(VertexId v, std::vector<VertexId>& out) override;

  /// One pass over the edge log collects every requested list; the
  /// requests are then visited in order.
  void get_adjacency_batch(std::span<const VertexId> vertices,
                           const AdjacencyVisitor& visit) override;

  /// One full log scan collecting distinct sources.
  void for_each_vertex(const std::function<bool(VertexId)>& visit) override;

  void flush() override;
  void finalize_ingest() override { flush(); }

  [[nodiscard]] SnapshotRef begin_snapshot() override;
  [[nodiscard]] TxnState txn_state() const override;

  [[nodiscard]] std::string name() const override { return "StreamDB"; }

  void drop_os_page_cache() const override {
    if (log_.is_open()) log_.drop_page_cache();
    if (commit_.is_open()) commit_.drop_page_cache();
  }

 private:
  static constexpr std::size_t kWriteBufferEdges = 64 * 1024;
  static constexpr std::size_t kScanBufferBytes = 1u << 20;

  /// If a snapshot of this store is installed on the thread, returns its
  /// pinned extent; otherwise flushes (under the writer lock in snapshot
  /// mode) and returns the full committed length.
  [[nodiscard]] std::uint64_t scan_extent();
  /// Scans log bytes [0, limit) — the committed prefix never changes, so
  /// no lock is needed while reading it.
  void scan_prefix(std::uint64_t limit,
                   const std::function<void(const Edge&)>& visit);
  void flush_locked();
  /// Reads both commit slots and returns the committed log length from
  /// the newest valid one (nullopt when neither validates).
  [[nodiscard]] std::optional<std::uint64_t> read_committed_length();
  void write_commit_slot(std::uint64_t length);

  const bool snapshots_enabled_;
  std::mutex mu_;  ///< writer side (buffer, flush); snapshot mode only
  EpochManager epochs_;
  File log_;
  File commit_;  ///< dual-slot commit sidecar (invalid when journal off)
  std::atomic<std::uint64_t> log_bytes_{0};  ///< committed log extent
  std::uint64_t commit_seq_ = 0;  ///< seq of the newest valid slot
  std::vector<Edge> write_buffer_;
};

}  // namespace mssg
