// In-memory compressed adjacency list (CSR) backend — §4.1.1.
//
// As in the thesis, ingestion streams into hash-map temporary storage
// ("we have actually used the HashMap implementation ... as temporary
// storage"); finalize_ingest() converts to the xadj/adj arrays.  The
// xadj array spans the full global id space, reproducing the noted
// scaling limitation ("each node has to store the full xadj array").
// Serves as the lower bound on search time in every figure.
//
// Snapshot isolation covers the staging phase (the only mutable one):
// same vertex-granularity COW as HashMapDB.  After finalize_ingest the
// CSR is immutable — store_edges throws, so any snapshot is trivially
// consistent.
#pragma once

#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/shared_latch.hpp"
#include "graphdb/graphdb.hpp"

namespace mssg {

class ArrayDB final : public GraphDB {
 public:
  explicit ArrayDB(const GraphDBConfig& config)
      : GraphDB(config), snapshots_enabled_(config.snapshots) {}

  void store_edges(std::span<const Edge> edges) override;
  void get_adjacency(VertexId v, std::vector<VertexId>& out) override;
  void for_each_vertex(const std::function<bool(VertexId)>& visit) override;
  void finalize_ingest() override;
  void flush() override;

  [[nodiscard]] SnapshotRef begin_snapshot() override;
  [[nodiscard]] TxnState txn_state() const override;

  [[nodiscard]] std::string name() const override { return "Array"; }

 private:
  const bool snapshots_enabled_;
  mutable SharedLatch mu_;
  VertexSnapshots txn_;
  bool dirty_ = false;

  // Ingest-time temporary storage.
  std::unordered_map<VertexId, std::vector<VertexId>> staging_;
  bool finalized_ = false;

  // Compressed adjacency list over [0, max_vertex_].
  VertexId max_vertex_ = 0;
  std::vector<std::uint64_t> xadj_;
  std::vector<VertexId> adj_;
};

}  // namespace mssg
