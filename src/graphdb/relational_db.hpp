// MySQL stand-in — §4.1.3: adjacency lists serialized into BLOB chunks in
// a relational table {vertex, chunk, blob} (Figure 4.3).
//
// Built from scratch on the storage substrate: rows live in a
// slotted-page heap file; a secondary B+tree maps (vertex, chunk) to the
// row's location.  Every chunk access therefore costs an index descent
// *plus* a heap fetch, and each row carries a simulated relational header
// (format version, column count, null bitmap, per-column lengths) — the
// generic-row overheads that make MySQL the slowest backend in all of the
// thesis' figures.
//
// Snapshot isolation mirrors KVStoreDB: vertex-granularity COW of the
// decoded adjacency list, committed pager flushes as epoch boundaries,
// and one coarse mutex in snapshot mode (the pager/B+tree/heap substrate
// is not internally thread-safe; the lock is never held across the
// for_each_vertex visitor).
#pragma once

#include <mutex>

#include "graphdb/chunk_store.hpp"
#include "graphdb/graphdb.hpp"
#include "storage/btree.hpp"
#include "storage/heap_file.hpp"
#include "storage/pager.hpp"

namespace mssg {

class RelationalDB final : public GraphDB {
 public:
  explicit RelationalDB(const GraphDBConfig& config);

  void store_edges(std::span<const Edge> edges) override;
  void get_adjacency(VertexId v, std::vector<VertexId>& out) override;
  void for_each_vertex(const std::function<bool(VertexId)>& visit) override;
  void flush() override;
  void finalize_ingest() override { flush(); }

  [[nodiscard]] SnapshotRef begin_snapshot() override;
  [[nodiscard]] TxnState txn_state() const override;

  [[nodiscard]] std::string name() const override {
    return "Relational(MySQL)";
  }
  void drop_os_page_cache() const override { pager_.drop_page_cache(); }

 private:
  class Backend final : public ChunkBackend {
   public:
    Backend(BTree& index, HeapFile& heap) : index_(index), heap_(heap) {}
    std::optional<std::vector<std::byte>> get_chunk(
        VertexId v, std::uint32_t chunk) override;
    void put_chunk(VertexId v, std::uint32_t chunk,
                   std::span<const std::byte> data) override;

   private:
    BTree& index_;
    HeapFile& heap_;
  };

  const bool snapshots_enabled_;
  mutable std::mutex mu_;  ///< snapshot mode only; pager isn't reentrant
  VertexSnapshots txn_;
  bool dirty_ = false;
  Pager pager_;
  BTree index_;   // (vertex, chunk) -> RowId, pager meta slots 0-1
  HeapFile heap_;  // rows, pager meta slots 2-4
  Backend backend_;
  AdjacencyChunkStore chunks_;
};

}  // namespace mssg
