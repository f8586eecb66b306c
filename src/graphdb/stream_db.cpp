#include "graphdb/stream_db.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "common/crc32c.hpp"
#include "common/error.hpp"

namespace mssg {

namespace {
// One commit slot: [length u64][seq u64][crc u32][pad u32].  Two slots
// alternate by seq parity so a torn slot write can only clobber the
// OLDER commit — the newer one stays valid.
constexpr std::size_t kSlotBytes = 24;

std::uint32_t slot_crc(std::uint64_t length, std::uint64_t seq) {
  std::byte buf[16];
  std::memcpy(buf, &length, 8);
  std::memcpy(buf + 8, &seq, 8);
  return crc32c(std::span<const std::byte>(buf, sizeof(buf)));
}
}  // namespace

StreamDB::StreamDB(const GraphDBConfig& config)
    : GraphDB(config),
      snapshots_enabled_(config.snapshots),
      log_(File::open(config.dir / "stream.log", &stats_)) {
  std::uint64_t bytes = log_.size();
  if (config.journal) {
    commit_ = File::open(config.dir / "stream.commit", &stats_);
    if (const auto committed = read_committed_length()) {
      // A crash can leave a torn tail past the committed length (or, if
      // the commit-slot write itself died, past the previous commit);
      // everything before it is intact, so reopen just ignores the tail.
      bytes = std::min(bytes, *committed);
    } else {
      // No valid commit yet: fall back to whole edges only.
      bytes -= bytes % sizeof(Edge);
    }
  } else {
    bytes -= bytes % sizeof(Edge);
  }
  log_bytes_.store(bytes, std::memory_order_relaxed);
  write_buffer_.reserve(kWriteBufferEdges);
}

std::optional<std::uint64_t> StreamDB::read_committed_length() {
  std::byte slots[2 * kSlotBytes] = {};
  commit_.read_at(0, slots);  // short/empty file reads as zeros
  std::optional<std::uint64_t> best;
  for (int s = 0; s < 2; ++s) {
    std::uint64_t length = 0;
    std::uint64_t seq = 0;
    std::uint32_t crc = 0;
    std::memcpy(&length, slots + s * kSlotBytes, 8);
    std::memcpy(&seq, slots + s * kSlotBytes + 8, 8);
    std::memcpy(&crc, slots + s * kSlotBytes + 16, 4);
    if (seq == 0 || crc != slot_crc(length, seq)) continue;
    if (seq >= commit_seq_) {
      commit_seq_ = seq;
      best = length;
    }
  }
  return best;
}

void StreamDB::write_commit_slot(std::uint64_t length) {
  const std::uint64_t seq = ++commit_seq_;
  std::byte slot[kSlotBytes] = {};
  std::memcpy(slot, &length, 8);
  std::memcpy(slot + 8, &seq, 8);
  const std::uint32_t crc = slot_crc(length, seq);
  std::memcpy(slot + 16, &crc, 4);
  commit_.write_at((seq % 2) * kSlotBytes, slot);
  commit_.sync();
}

void StreamDB::store_edges(std::span<const Edge> edges) {
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (snapshots_enabled_) lock.lock();
  for (const auto& e : edges) {
    write_buffer_.push_back(e);
    if (write_buffer_.size() >= kWriteBufferEdges) flush_locked();
  }
}

void StreamDB::flush() {
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (snapshots_enabled_) lock.lock();
  flush_locked();
}

void StreamDB::flush_locked() {
  if (write_buffer_.empty()) return;
  const auto bytes = std::as_bytes(std::span(write_buffer_));
  const std::uint64_t base = log_bytes_.load(std::memory_order_relaxed);
  log_.write_at(base, bytes);
  if (commit_.is_open()) {
    // Order matters: the appended edges must be durable before the
    // commit slot can claim them.
    log_.sync();
    write_commit_slot(base + bytes.size());
  }
  // Publish the new committed extent AFTER the bytes are written: a
  // concurrent begin_snapshot sees either the old boundary or a fully
  // readable new one.
  log_bytes_.store(base + bytes.size(), std::memory_order_release);
  write_buffer_.clear();
  // Every flush that appended is a committed boundary (the dual-slot
  // sidecar has no deferred mode).
  if (snapshots_enabled_) epochs_.advance();
}

std::uint64_t StreamDB::scan_extent() {
  if (snapshots_enabled_) {
    if (const Snapshot* snap = SnapshotScope::active_for(this)) {
      // The pinned committed prefix — no flush, no lock: bytes below it
      // are never rewritten, appends land past it.
      return snap->extent();
    }
    std::lock_guard<std::mutex> lock(mu_);
    flush_locked();
    return log_bytes_.load(std::memory_order_acquire);
  }
  flush_locked();
  return log_bytes_.load(std::memory_order_relaxed);
}

void StreamDB::scan_prefix(std::uint64_t limit,
                           const std::function<void(const Edge&)>& visit) {
  std::vector<std::byte> buffer(kScanBufferBytes);
  std::uint64_t offset = 0;
  while (offset < limit) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(buffer.size(), limit - offset));
    log_.read_at(offset, std::span(buffer.data(), n));
    MSSG_CHECK(n % sizeof(Edge) == 0);
    const auto* edges = reinterpret_cast<const Edge*>(buffer.data());
    const std::size_t count = n / sizeof(Edge);
    for (std::size_t i = 0; i < count; ++i) visit(edges[i]);
    offset += n;
  }
}

SnapshotRef StreamDB::begin_snapshot() {
  if (!snapshots_enabled_) return nullptr;
  // Extent = the committed log length; unflushed buffered edges are
  // invisible, exactly like every other backend's open epoch.
  const std::uint64_t extent = log_bytes_.load(std::memory_order_acquire);
  return epochs_.pin(this, extent, extent != 0);
}

GraphDB::TxnState StreamDB::txn_state() const {
  if (!snapshots_enabled_) return {};
  // StreamDB shelves no versions — the log prefix IS the version.
  return {epochs_.current(), epochs_.live_count(), 0};
}

void StreamDB::get_adjacency(VertexId v, std::vector<VertexId>& out) {
  scan_prefix(scan_extent(), [&](const Edge& e) {
    if (e.src == v) out.push_back(e.dst);
  });
}

void StreamDB::for_each_vertex(const std::function<bool(VertexId)>& visit) {
  std::unordered_set<VertexId> sources;
  scan_prefix(scan_extent(),
              [&](const Edge& e) { sources.insert(e.src); });
  // Visit in ascending id order, not hash order: an early-exit visitor
  // (connected components seeding, k-th vertex sampling) otherwise sees
  // a run-dependent prefix and every counter downstream of it stops
  // being a pure function of the seed.
  std::vector<VertexId> ordered(sources.begin(), sources.end());
  std::sort(ordered.begin(), ordered.end());
  for (const VertexId v : ordered) {
    if (!visit(v)) return;
  }
}

void StreamDB::get_adjacency_batch(std::span<const VertexId> vertices,
                                   const AdjacencyVisitor& visit) {
  if (vertices.empty()) return;
  // Duplicate requests share one list: each reads what get_adjacency
  // would.
  std::unordered_map<VertexId, std::vector<VertexId>> lists;
  for (const VertexId v : vertices) lists.try_emplace(v);
  scan_prefix(scan_extent(), [&](const Edge& e) {
    const auto it = lists.find(e.src);
    if (it != lists.end()) it->second.push_back(e.dst);
  });
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    if (!visit(i, lists.find(vertices[i])->second)) return;
  }
}

}  // namespace mssg
