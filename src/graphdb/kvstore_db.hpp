// BerkeleyDB stand-in — §4.1.4: "a programming API which gives the user
// easy access to persistent ... storage without the overhead of using a
// relational database server.  The chunking technique used in the MySQL
// implementation is also used here."
//
// Here that is a from-scratch page-based B+tree (src/storage/btree)
// storing 8 KB adjacency chunks keyed by (vertex, chunk).  The page cache
// is the BlockCache; Figure 5.2 disables it via GraphDBConfig.
//
// Snapshot isolation (GraphDBConfig::snapshots): copy-on-write at vertex
// granularity — before the first append to a vertex in an epoch, its
// whole decoded adjacency list is shelved (VertexSnapshots); a committed
// pager flush is the epoch boundary.  The pager/B+tree substrate is not
// internally thread-safe, so snapshot mode serializes operations under
// one mutex (never held across the for_each_vertex visitor); reads still
// interleave with ingest at call granularity, which is what the isolation
// guarantee is about.  With snapshots off no lock is ever taken.
#pragma once

#include <mutex>

#include "graphdb/chunk_store.hpp"
#include "graphdb/graphdb.hpp"
#include "storage/btree.hpp"
#include "storage/pager.hpp"

namespace mssg {

class KVStoreDB final : public GraphDB {
 public:
  explicit KVStoreDB(const GraphDBConfig& config);

  void store_edges(std::span<const Edge> edges) override;
  void get_adjacency(VertexId v, std::vector<VertexId>& out) override;
  void for_each_vertex(const std::function<bool(VertexId)>& visit) override;
  void flush() override;
  void finalize_ingest() override { flush(); }

  [[nodiscard]] SnapshotRef begin_snapshot() override;
  [[nodiscard]] TxnState txn_state() const override;

  /// Probes the index (internal pages only) for each vertex's chunk-0
  /// leaf and issues one sorted async read batch for the leaves.
  void prefetch(std::span<const VertexId> vertices) override;

  [[nodiscard]] std::string name() const override {
    return "KVStore(BerkeleyDB)";
  }

  /// Adds the snapshot gauges (txn.epochs_live, ...) when snapshots are
  /// on.
  void publish_metrics(MetricsSnapshot& snap) const override;

  void drop_os_page_cache() const override { pager_.drop_page_cache(); }

 private:
  class Backend final : public ChunkBackend {
   public:
    explicit Backend(BTree& tree) : tree_(tree) {}
    std::optional<std::vector<std::byte>> get_chunk(
        VertexId v, std::uint32_t chunk) override {
      return tree_.get(BTreeKey{v, chunk});
    }
    void put_chunk(VertexId v, std::uint32_t chunk,
                   std::span<const std::byte> data) override {
      tree_.put(BTreeKey{v, chunk}, data);
    }

   private:
    BTree& tree_;
  };

  const bool snapshots_enabled_;
  mutable std::mutex mu_;  ///< snapshot mode only; pager isn't reentrant
  VertexSnapshots txn_;
  bool dirty_ = false;
  Pager pager_;
  BTree tree_;
  Backend backend_;
  AdjacencyChunkStore chunks_;
};

}  // namespace mssg
