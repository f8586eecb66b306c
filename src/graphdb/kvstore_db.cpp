#include "graphdb/kvstore_db.hpp"

#include <unordered_map>
#include <vector>

namespace mssg {

namespace {
constexpr std::size_t kPageBytes = 4096;
}

KVStoreDB::KVStoreDB(const GraphDBConfig& config)
    : GraphDB(config),
      snapshots_enabled_(config.snapshots),
      pager_(config.dir / "kvstore.db", kPageBytes,
             config.cache_bytes, &stats_, config.async_io, config.journal,
             config.journal_sync_interval),
      tree_(pager_),
      backend_(tree_),
      chunks_(backend_) {
  pager_.set_miss_penalty_us(config.sim_miss_penalty_us);
}

void KVStoreDB::store_edges(std::span<const Edge> edges) {
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (snapshots_enabled_) lock.lock();
  // Group the batch by source so each vertex pays one read-modify-write
  // per batch rather than per edge (the thesis' "blocking" mitigation).
  std::unordered_map<VertexId, std::vector<VertexId>> by_source;
  for (const auto& e : edges) by_source[e.src].push_back(e.dst);
  const Epoch open = snapshots_enabled_ ? txn_.epochs.open() : 0;
  for (const auto& [src, neighbors] : by_source) {
    if (snapshots_enabled_) {
      // Vertex-granularity COW: shelve the whole decoded list before the
      // first append of the epoch rewrites its chunks.
      txn_.versions.capture(src, open, [&] {
        std::vector<VertexId> current;
        chunks_.read(src, current);
        return current;
      });
      dirty_ = true;
    }
    chunks_.append(src, neighbors);
  }
}

void KVStoreDB::get_adjacency(VertexId v, std::vector<VertexId>& out) {
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (snapshots_enabled_) {
    lock.lock();
    if (const Snapshot* snap = SnapshotScope::active_for(this)) {
      if (auto ver = txn_.versions.lookup(v, snap->epoch())) {
        out.insert(out.end(), ver->begin(), ver->end());
        return;
      }
      // No version newer than the pin: the live chunks still hold the
      // pinned epoch's list.
    }
  }
  chunks_.read(v, out);
}

void KVStoreDB::for_each_vertex(const std::function<bool(VertexId)>& visit) {
  auto enumerate = [this](const std::function<bool(VertexId)>& fn) {
    // Every stored vertex has a chunk-0 record; a key scan yields them in
    // ascending order.
    tree_.scan(BTreeKey{0, 0}, BTreeKey{~std::uint64_t{0}, ~std::uint32_t{0}},
               [&](const BTreeKey& key, std::span<const std::byte>) {
                 return key.secondary != 0 || fn(key.primary);
               });
  };
  if (!snapshots_enabled_) {
    enumerate(visit);
    return;
  }
  // Collect under the lock, visit outside it: visitors re-enter this
  // backend (graph_stats calls get_adjacency per vertex).
  const Snapshot* snap = SnapshotScope::active_for(this);
  std::vector<VertexId> vertices;
  {
    std::lock_guard<std::mutex> lock(mu_);
    enumerate([&](VertexId v) {
      if (snap != nullptr) {
        // First stored after the pin -> empty pre-image -> invisible.
        if (auto ver = txn_.versions.lookup(v, snap->epoch())) {
          if (ver->empty()) return true;
        }
      }
      vertices.push_back(v);
      return true;
    });
  }
  for (const VertexId v : vertices) {
    if (!visit(v)) return;
  }
}

void KVStoreDB::flush() {
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (snapshots_enabled_) lock.lock();
  pager_.flush();
  // Epochs advance only at COMMITTED boundaries: a flush that deferred
  // into a journal group is roll-backable and must stay in the open
  // epoch.
  if (snapshots_enabled_ && dirty_ && !pager_.group_pending()) {
    txn_.advance_and_purge();
    dirty_ = false;
  }
}

SnapshotRef KVStoreDB::begin_snapshot() {
  if (!snapshots_enabled_) return nullptr;
  return txn_.epochs.pin(this, /*extent=*/0, /*nonempty=*/true);
}

GraphDB::TxnState KVStoreDB::txn_state() const {
  if (!snapshots_enabled_) return {};
  return {txn_.epochs.current(), txn_.epochs.live_count(),
          txn_.versions.versions()};
}

void KVStoreDB::prefetch(std::span<const VertexId> vertices) {
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (snapshots_enabled_) lock.lock();
  if (!pager_.async_enabled() || tree_.size() == 0) return;
  // The descent touches internal pages only (hot and few), so the probe
  // itself does not fault the leaves we are about to read ahead.
  std::vector<PageId> leaves;
  leaves.reserve(vertices.size());
  for (const VertexId v : vertices) {
    const PageId leaf = tree_.leaf_page(BTreeKey{v, 0});
    if (leaf != kInvalidPage) leaves.push_back(leaf);
  }
  pager_.prefetch(leaves);
}

void KVStoreDB::publish_metrics(MetricsSnapshot& snap) const {
  GraphDB::publish_metrics(snap);
  if (snapshots_enabled_) {
    const TxnState txn = txn_state();
    snap.add("txn.epochs_live", txn.live_snapshots);
    snap.add("txn.committed_epoch", txn.committed);
    snap.add("txn.versions_held", txn.versions);
  }
}

}  // namespace mssg
