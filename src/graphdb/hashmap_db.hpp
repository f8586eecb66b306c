// In-memory hash-map backend — §4.1.2's second variant: "storing the
// adjacency lists of each vertex separately and using a hash
// data-structure to store and retrieve the pointers to those adjacency
// lists".  Grows dynamically during ingestion; every adjacency access
// pays one hash lookup, which is what separates it from Array in the
// search figures.
//
// Snapshot isolation (GraphDBConfig::snapshots): writes version each
// vertex's adjacency list on first mutation per epoch (VertexSnapshots);
// flush() is the commit boundary.  A SharedLatch lets readers run
// concurrently with each other; the writer takes it uniquely, ahead of
// readers that arrive while it waits, so a reader's version-or-live
// resolution is atomic against mutation and the writer is never starved.
// The lock is taken only when snapshots are on — the classic single-threaded
// phasing pays nothing — and never across the for_each_vertex visitor
// (visitors re-enter get_adjacency: graph_stats does exactly that).
#pragma once

#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/shared_latch.hpp"
#include "graphdb/graphdb.hpp"

namespace mssg {

class HashMapDB final : public GraphDB {
 public:
  explicit HashMapDB(const GraphDBConfig& config)
      : GraphDB(config), snapshots_enabled_(config.snapshots) {}

  void store_edges(std::span<const Edge> edges) override {
    std::unique_lock<SharedLatch> lock(mu_, std::defer_lock);
    if (snapshots_enabled_) {
      lock.lock();
      const Epoch open = txn_.epochs.open();
      for (const auto& e : edges) {
        txn_.versions.capture(e.src, open, [&] {
          auto it = adjacency_.find(e.src);
          return it == adjacency_.end() ? std::vector<VertexId>{}
                                        : it->second;
        });
        adjacency_[e.src].push_back(e.dst);
      }
      dirty_ = true;
      return;
    }
    for (const auto& e : edges) adjacency_[e.src].push_back(e.dst);
  }

  void get_adjacency(VertexId v, std::vector<VertexId>& out) override {
    std::shared_lock<SharedLatch> lock(mu_, std::defer_lock);
    if (snapshots_enabled_) {
      lock.lock();
      if (const Snapshot* snap = SnapshotScope::active_for(this)) {
        // A version newer than the pin holds v's list as of the pinned
        // epoch; no such version means the live list is still that state.
        if (auto ver = txn_.versions.lookup(v, snap->epoch())) {
          out.insert(out.end(), ver->begin(), ver->end());
          return;
        }
      }
    }
    auto it = adjacency_.find(v);
    if (it != adjacency_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }

  void for_each_vertex(const std::function<bool(VertexId)>& visit) override {
    if (!snapshots_enabled_) {
      for (const auto& [v, neighbors] : adjacency_) {
        if (!neighbors.empty() && !visit(v)) return;
      }
      return;
    }
    // Collect under the lock, visit outside it: visitors re-enter this
    // backend (graph_stats calls get_adjacency per vertex).
    const Snapshot* snap = SnapshotScope::active_for(this);
    std::vector<VertexId> vertices;
    {
      std::shared_lock<SharedLatch> lock(mu_);
      vertices.reserve(adjacency_.size());
      for (const auto& [v, neighbors] : adjacency_) {
        if (neighbors.empty()) continue;
        if (snap != nullptr) {
          // First stored after the pin -> empty pre-image -> invisible.
          if (auto ver = txn_.versions.lookup(v, snap->epoch())) {
            if (ver->empty()) continue;
          }
        }
        vertices.push_back(v);
      }
    }
    for (const VertexId v : vertices) {
      if (!visit(v)) return;
    }
  }

  void flush() override {
    if (!snapshots_enabled_) return;
    std::unique_lock<SharedLatch> lock(mu_);
    if (dirty_) {
      txn_.advance_and_purge();
      dirty_ = false;
    }
  }

  [[nodiscard]] SnapshotRef begin_snapshot() override {
    if (!snapshots_enabled_) return nullptr;
    return txn_.epochs.pin(this, /*extent=*/0, /*nonempty=*/true);
  }

  [[nodiscard]] TxnState txn_state() const override {
    if (!snapshots_enabled_) return {};
    return {txn_.epochs.current(), txn_.epochs.live_count(),
            txn_.versions.versions()};
  }

  [[nodiscard]] std::string name() const override { return "HashMap"; }

 private:
  const bool snapshots_enabled_;
  mutable SharedLatch mu_;
  VertexSnapshots txn_;
  bool dirty_ = false;
  std::unordered_map<VertexId, std::vector<VertexId>> adjacency_;
};

}  // namespace mssg
