#include "storage/edge_log.hpp"

#include <cstring>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "common/error.hpp"

namespace mssg {

namespace {

constexpr std::uint64_t kMagic = 0x4D5353474544474Cull;  // "MSSGEDGL"

std::uint64_t get_u64(const std::byte* src) {
  std::uint64_t v = 0;
  std::memcpy(&v, src, 8);
  return v;
}

std::uint32_t get_u32(const std::byte* src) {
  std::uint32_t v = 0;
  std::memcpy(&v, src, 4);
  return v;
}

}  // namespace

EdgeLog::EdgeLog(const std::filesystem::path& path, IoStats* stats)
    : file_(File::open(path, stats)), stats_(stats) {}

std::uint64_t EdgeLog::replay(std::uint64_t generation, const Visitor& visit) {
  known_ = false;
  records_ = 0;
  const std::uint64_t size = file_.size();
  if (size == 0) {
    known_ = true;
    bytes_.store(0, std::memory_order_relaxed);
    return 0;
  }
  if (size < kHeaderBytes) return 0;
  // Through a second, uncounted handle, like the journal's parse: io.reads
  // counts data reads, not recovery bookkeeping.
  const File in = File::open_readonly(file_.path());
  std::byte header[kHeaderBytes];
  in.read_at(0, header);
  if (get_u64(header) != kMagic ||
      get_u32(header + 16) !=
          crc32c(std::span<const std::byte>(header, 16))) {
    throw StorageError("edge log " + file_.path() +
                       ": bad header magic or checksum");
  }
  if (get_u64(header + 8) != generation) return 0;

  std::uint64_t pos = kHeaderBytes;
  std::uint64_t visited = 0;
  std::vector<std::byte> record;
  std::vector<Edge> edges;
  while (size - pos >= kRecordOverhead) {
    std::byte count_bytes[8];
    in.read_at(pos, count_bytes);
    const std::uint64_t count = get_u64(count_bytes);
    if (count > (size - pos - kRecordOverhead) / sizeof(Edge)) break;
    record.resize(record_bytes(count));
    in.read_at(pos, record);
    const std::size_t body = record.size() - 4;
    if (get_u32(record.data() + body) !=
        crc32c(std::span<const std::byte>(record.data(), body))) {
      break;
    }
    edges.resize(count);
    if (count != 0) {
      std::memcpy(edges.data(), record.data() + 8, count * sizeof(Edge));
    }
    visit(edges);
    ++visited;
    pos += record.size();
  }
  if (pos == size) {
    known_ = true;
    generation_ = generation;
    records_ = visited;
    bytes_.store(pos, std::memory_order_relaxed);
  }
  return visited;
}

void EdgeLog::append(std::span<const Edge> edges) {
  MSSG_CHECK(known_ && bytes() >= kHeaderBytes);
  std::vector<std::byte> buf(record_bytes(edges.size()));
  const std::uint64_t count = edges.size();
  std::memcpy(buf.data(), &count, 8);
  if (!edges.empty()) {
    std::memcpy(buf.data() + 8, edges.data(), edges.size_bytes());
  }
  const std::size_t body = buf.size() - 4;
  const std::uint32_t crc =
      crc32c(std::span<const std::byte>(buf.data(), body));
  std::memcpy(buf.data() + body, &crc, 4);
  // Unknown until the write lands: a torn write leaves a partial record
  // at the tail, which only a reset may clear.
  known_ = false;
  file_.write_at(bytes(), buf);
  known_ = true;
  ++records_;
  bytes_.store(bytes() + buf.size(), std::memory_order_relaxed);
  if (stats_ != nullptr) ++stats_->edge_log_records;
}

void EdgeLog::sync() {
  try {
    file_.sync();
  } catch (...) {
    known_ = false;
    throw;
  }
}

void EdgeLog::reset(std::uint64_t generation) {
  known_ = false;
  file_.truncate(0);
  bytes_.store(0, std::memory_order_relaxed);
  std::byte header[kHeaderBytes];
  std::memcpy(header, &kMagic, 8);
  std::memcpy(header + 8, &generation, 8);
  const std::uint32_t crc = crc32c(std::span<const std::byte>(header, 16));
  std::memcpy(header + 16, &crc, 4);
  file_.write_at(0, header);
  file_.sync();
  known_ = true;
  generation_ = generation;
  records_ = 0;
  bytes_.store(kHeaderBytes, std::memory_order_relaxed);
}

}  // namespace mssg
