#include "graphdb/array_db.hpp"

#include <algorithm>
#include <mutex>

#include "common/error.hpp"

namespace mssg {

void ArrayDB::store_edges(std::span<const Edge> edges) {
  std::unique_lock<SharedLatch> lock(mu_, std::defer_lock);
  if (snapshots_enabled_) lock.lock();
  if (finalized_) {
    throw StorageError(
        "Array backend cannot grow after finalize_ingest (static CSR)");
  }
  const Epoch open = snapshots_enabled_ ? txn_.epochs.open() : 0;
  for (const auto& e : edges) {
    MSSG_CHECK(e.src <= kMaxVertexId && e.dst <= kMaxVertexId);
    if (snapshots_enabled_) {
      txn_.versions.capture(e.src, open, [&] {
        auto it = staging_.find(e.src);
        return it == staging_.end() ? std::vector<VertexId>{} : it->second;
      });
      dirty_ = true;
    }
    staging_[e.src].push_back(e.dst);
    max_vertex_ = std::max({max_vertex_, e.src, e.dst});
  }
}

void ArrayDB::finalize_ingest() {
  std::unique_lock<SharedLatch> lock(mu_, std::defer_lock);
  if (snapshots_enabled_) lock.lock();
  if (finalized_) return;
  xadj_.assign(max_vertex_ + 2, 0);
  for (const auto& [v, neighbors] : staging_) {
    xadj_[v + 1] = neighbors.size();
  }
  for (std::size_t i = 1; i < xadj_.size(); ++i) xadj_[i] += xadj_[i - 1];
  adj_.resize(xadj_.back());
  for (const auto& [v, neighbors] : staging_) {
    std::copy(neighbors.begin(), neighbors.end(), adj_.begin() + xadj_[v]);
  }
  staging_.clear();
  finalized_ = true;
  // The conversion is a no-op on logical state, but it closes the mutable
  // phase — commit whatever the staging epoch accumulated.
  if (snapshots_enabled_ && dirty_) {
    txn_.advance_and_purge();
    dirty_ = false;
  }
}

void ArrayDB::flush() {
  if (!snapshots_enabled_) return;
  std::unique_lock<SharedLatch> lock(mu_);
  if (dirty_) {
    txn_.advance_and_purge();
    dirty_ = false;
  }
}

SnapshotRef ArrayDB::begin_snapshot() {
  if (!snapshots_enabled_) return nullptr;
  return txn_.epochs.pin(this, /*extent=*/0, /*nonempty=*/true);
}

GraphDB::TxnState ArrayDB::txn_state() const {
  if (!snapshots_enabled_) return {};
  return {txn_.epochs.current(), txn_.epochs.live_count(),
          txn_.versions.versions()};
}

void ArrayDB::for_each_vertex(const std::function<bool(VertexId)>& visit) {
  if (!snapshots_enabled_) {
    if (!finalized_) {
      for (const auto& [v, neighbors] : staging_) {
        if (!neighbors.empty() && !visit(v)) return;
      }
      return;
    }
    for (VertexId v = 0; v <= max_vertex_; ++v) {
      if (xadj_[v + 1] > xadj_[v] && !visit(v)) return;
    }
    return;
  }
  // Collect under the lock, visit outside it: visitors re-enter this
  // backend (graph_stats calls get_adjacency per vertex).
  const Snapshot* snap = SnapshotScope::active_for(this);
  std::vector<VertexId> vertices;
  {
    std::shared_lock<SharedLatch> lock(mu_);
    if (!finalized_) {
      vertices.reserve(staging_.size());
      for (const auto& [v, neighbors] : staging_) {
        if (neighbors.empty()) continue;
        if (snap != nullptr) {
          // First stored after the pin -> empty pre-image -> invisible.
          if (auto ver = txn_.versions.lookup(v, snap->epoch())) {
            if (ver->empty()) continue;
          }
        }
        vertices.push_back(v);
      }
    } else {
      for (VertexId v = 0; v <= max_vertex_; ++v) {
        if (xadj_[v + 1] <= xadj_[v]) continue;
        if (snap != nullptr) {
          if (auto ver = txn_.versions.lookup(v, snap->epoch())) {
            if (ver->empty()) continue;
          }
        }
        vertices.push_back(v);
      }
    }
  }
  for (const VertexId v : vertices) {
    if (!visit(v)) return;
  }
}

void ArrayDB::get_adjacency(VertexId v, std::vector<VertexId>& out) {
  std::shared_lock<SharedLatch> lock(mu_, std::defer_lock);
  if (snapshots_enabled_) {
    lock.lock();
    if (const Snapshot* snap = SnapshotScope::active_for(this)) {
      // Checked even post-finalize: a snapshot pinned during staging may
      // outlive the conversion, and its versions survive it.
      if (auto ver = txn_.versions.lookup(v, snap->epoch())) {
        out.insert(out.end(), ver->begin(), ver->end());
        return;
      }
    }
  }
  if (!finalized_) {
    // Queries before finalization read the staging hash (matches the
    // thesis' two-phase load).
    auto it = staging_.find(v);
    if (it != staging_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
    return;
  }
  if (v > max_vertex_) return;
  out.insert(out.end(), adj_.begin() + xadj_[v], adj_.begin() + xadj_[v + 1]);
}

}  // namespace mssg
