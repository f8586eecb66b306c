#include "graphdb/relational_db.hpp"

#include <cstring>
#include <unordered_map>

#include "common/error.hpp"

namespace mssg {

namespace {

constexpr std::size_t kPageBytes = 4096;

// Simulated MySQL row: a generic header precedes the three columns
// (vertex BIGINT, chunk INT, blob).  The header mirrors the bookkeeping a
// relational engine stores per row: format tag, column count, null
// bitmap, and a length word per column.
//   [format u16][columns u16][null_bitmap u32]
//   [len(vertex) u32][len(chunk) u32][len(blob) u32]
//   [vertex u64][chunk u32][blob bytes]
constexpr std::size_t kRowHeaderBytes = 2 + 2 + 4 + 3 * 4;
constexpr std::uint16_t kRowFormat = 0x4d01;  // "MySQL-ish row v1"

std::vector<std::byte> encode_row(VertexId v, std::uint32_t chunk,
                                  std::span<const std::byte> blob) {
  std::vector<std::byte> row(kRowHeaderBytes + 8 + 4 + blob.size());
  std::size_t off = 0;
  auto put = [&](const auto& value) {
    std::memcpy(row.data() + off, &value, sizeof(value));
    off += sizeof(value);
  };
  put(kRowFormat);
  put(std::uint16_t{3});           // column count
  put(std::uint32_t{0});           // null bitmap: nothing null
  put(std::uint32_t{8});           // len(vertex)
  put(std::uint32_t{4});           // len(chunk)
  put(static_cast<std::uint32_t>(blob.size()));
  put(v);
  put(chunk);
  std::memcpy(row.data() + off, blob.data(), blob.size());
  return row;
}

std::vector<std::byte> decode_blob(std::span<const std::byte> row, VertexId v,
                                   std::uint32_t chunk) {
  MSSG_CHECK(row.size() >= kRowHeaderBytes + 12);
  std::uint16_t format;
  std::memcpy(&format, row.data(), sizeof(format));
  if (format != kRowFormat) {
    throw StorageError("relational: row format corrupted");
  }
  std::uint32_t blob_len;
  std::memcpy(&blob_len, row.data() + 16, sizeof(blob_len));
  VertexId row_v;
  std::memcpy(&row_v, row.data() + kRowHeaderBytes, sizeof(row_v));
  std::uint32_t row_chunk;
  std::memcpy(&row_chunk, row.data() + kRowHeaderBytes + 8,
              sizeof(row_chunk));
  if (row_v != v || row_chunk != chunk) {
    throw StorageError("relational: index row points at wrong record");
  }
  MSSG_CHECK(kRowHeaderBytes + 12 + blob_len <= row.size());
  std::vector<std::byte> blob(blob_len);
  std::memcpy(blob.data(), row.data() + kRowHeaderBytes + 12, blob_len);
  return blob;
}

std::vector<std::byte> encode_rowid(RowId id) {
  std::vector<std::byte> bytes(sizeof(PageId) + sizeof(std::uint16_t));
  std::memcpy(bytes.data(), &id.page, sizeof(id.page));
  std::memcpy(bytes.data() + sizeof(id.page), &id.slot, sizeof(id.slot));
  return bytes;
}

RowId decode_rowid(std::span<const std::byte> bytes) {
  MSSG_CHECK(bytes.size() == sizeof(PageId) + sizeof(std::uint16_t));
  RowId id;
  std::memcpy(&id.page, bytes.data(), sizeof(id.page));
  std::memcpy(&id.slot, bytes.data() + sizeof(id.page), sizeof(id.slot));
  return id;
}

}  // namespace

std::optional<std::vector<std::byte>> RelationalDB::Backend::get_chunk(
    VertexId v, std::uint32_t chunk) {
  // Index probe...
  auto rowid_bytes = index_.get(BTreeKey{v, chunk});
  if (!rowid_bytes) return std::nullopt;
  // ...then heap fetch (the double indirection MySQL pays).
  const auto row = heap_.read(decode_rowid(*rowid_bytes));
  return decode_blob(row, v, chunk);
}

void RelationalDB::Backend::put_chunk(VertexId v, std::uint32_t chunk,
                                      std::span<const std::byte> data) {
  const auto row = encode_row(v, chunk, data);
  auto rowid_bytes = index_.get(BTreeKey{v, chunk});
  if (rowid_bytes) {
    const RowId old_id = decode_rowid(*rowid_bytes);
    const RowId new_id = heap_.update(old_id, row);
    if (!(new_id == old_id)) {
      index_.put(BTreeKey{v, chunk}, encode_rowid(new_id));
    }
  } else {
    const RowId id = heap_.insert(row);
    index_.put(BTreeKey{v, chunk}, encode_rowid(id));
  }
}

RelationalDB::RelationalDB(const GraphDBConfig& config)
    : GraphDB(config),
      snapshots_enabled_(config.snapshots),
      pager_(config.dir / "relational.db", kPageBytes,
             config.cache_bytes, &stats_, /*async_io=*/false,
             config.journal, config.journal_sync_interval),
      index_(pager_, /*meta_base=*/0),
      heap_(pager_, /*meta_base=*/2),
      backend_(index_, heap_),
      chunks_(backend_) {
  pager_.set_miss_penalty_us(config.sim_miss_penalty_us);
}

void RelationalDB::store_edges(std::span<const Edge> edges) {
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (snapshots_enabled_) lock.lock();
  std::unordered_map<VertexId, std::vector<VertexId>> by_source;
  for (const auto& e : edges) by_source[e.src].push_back(e.dst);
  const Epoch open = snapshots_enabled_ ? txn_.epochs.open() : 0;
  for (const auto& [src, neighbors] : by_source) {
    if (snapshots_enabled_) {
      // Vertex-granularity COW: shelve the whole decoded list before the
      // first append of the epoch rewrites its rows.
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

void RelationalDB::get_adjacency(VertexId v, std::vector<VertexId>& out) {
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (snapshots_enabled_) {
    lock.lock();
    if (const Snapshot* snap = SnapshotScope::active_for(this)) {
      if (auto ver = txn_.versions.lookup(v, snap->epoch())) {
        out.insert(out.end(), ver->begin(), ver->end());
        return;
      }
    }
  }
  chunks_.read(v, out);
}

void RelationalDB::for_each_vertex(const std::function<bool(VertexId)>& visit) {
  auto enumerate = [this](const std::function<bool(VertexId)>& fn) {
    // Index scan over chunk-0 keys (vertex ids ascending).
    index_.scan(BTreeKey{0, 0}, BTreeKey{~std::uint64_t{0}, ~std::uint32_t{0}},
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

void RelationalDB::flush() {
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

SnapshotRef RelationalDB::begin_snapshot() {
  if (!snapshots_enabled_) return nullptr;
  return txn_.epochs.pin(this, /*extent=*/0, /*nonempty=*/true);
}

GraphDB::TxnState RelationalDB::txn_state() const {
  if (!snapshots_enabled_) return {};
  return {txn_.epochs.current(), txn_.epochs.live_count(),
          txn_.versions.versions()};
}

}  // namespace mssg
