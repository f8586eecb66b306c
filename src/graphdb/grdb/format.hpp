// grDB on-disk format — §3.4.1.
//
// A grDB instance stores partial adjacency lists in *sub-blocks* grouped
// into *blocks* (the I/O unit) across multiple *levels*.  A sub-block at
// level l holds up to d_l entries of b = 8 bytes; block size
// B_l = k_l * b * d_l; each level is split into files of at most M bytes
// (N_l = M / B_l blocks per file).  Sub-block s of level l lives at
//
//   block  s / k_l,  file (s/k_l) / N_l,
//   offset B_l * ((s/k_l) mod N_l) + b*d_l*(s mod k_l)     (thesis §3.4.1)
//
// Entries are 64-bit words whose 3 most significant bits are reserved:
//   tag 0          plain vertex GID (61-bit id space)
//   tag 1..6       pointer to a sub-block at level <tag>
//   tag 7 (all-1s) empty-slot sentinel
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace mssg::grdb {

inline constexpr std::size_t kEntryBytes = 8;  // "b" in the thesis
inline constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};
inline constexpr int kTagShift = 61;
inline constexpr std::uint64_t kValueMask = (std::uint64_t{1} << kTagShift) - 1;

/// Per-level geometry.
struct LevelSpec {
  std::uint64_t entries_per_subblock = 0;  ///< d_l
  std::uint64_t block_bytes = 0;           ///< B_l

  [[nodiscard]] std::uint64_t subblock_bytes() const {
    return entries_per_subblock * kEntryBytes;
  }
  [[nodiscard]] std::uint64_t subblocks_per_block() const {  // k_l
    return block_bytes / subblock_bytes();
  }
};

struct Geometry {
  std::vector<LevelSpec> levels;
  std::uint64_t max_file_bytes = 256u << 20;  ///< M (thesis used 256 MB)

  /// The thesis' default 6-level schedule: d = 2,4,16,256,4K,16K with
  /// 4 KB blocks for the first four levels, then 32 KB and 256 KB.
  static Geometry standard();

  /// Validates the thesis' constraints: d_l >= 2*d_{l-1}, blocks hold an
  /// integral number of sub-blocks, files hold an integral number of
  /// blocks.  Throws UsageError on violation.
  void validate() const;

  [[nodiscard]] int level_count() const {
    return static_cast<int>(levels.size());
  }
  [[nodiscard]] std::uint64_t blocks_per_file(int level) const {  // N_l
    return max_file_bytes / levels[level].block_bytes;
  }
};

/// Physical location of a sub-block.
struct SubblockAddress {
  std::uint64_t block = 0;        ///< level-global block index
  std::uint64_t file = 0;         ///< file index within the level
  std::uint64_t file_offset = 0;  ///< byte offset of the block in the file
  std::uint64_t block_offset = 0; ///< byte offset of the sub-block in block
};

/// The thesis' modulo-arithmetic address computation.
inline SubblockAddress locate(const Geometry& geo, int level,
                              std::uint64_t subblock) {
  const auto& spec = geo.levels[level];
  const std::uint64_t k = spec.subblocks_per_block();
  const std::uint64_t n = geo.blocks_per_file(level);
  SubblockAddress addr;
  addr.block = subblock / k;
  addr.file = addr.block / n;
  addr.file_offset = spec.block_bytes * (addr.block % n);
  addr.block_offset = spec.subblock_bytes() * (subblock % k);
  return addr;
}

// ---- Entry tagging ---------------------------------------------------------

enum class EntryKind { kVertex, kPointer, kEmpty };

/// Entries are read from disk: a tag-7 word other than the sentinel is
/// corruption, so it throws StorageError.
inline EntryKind classify(std::uint64_t entry) {
  const auto tag = entry >> kTagShift;
  if (tag == 0) return EntryKind::kVertex;
  if (entry == kEmptySlot) return EntryKind::kEmpty;
  if (tag == 7) throw StorageError("grDB: corrupt entry (tag 7, not empty)");
  return EntryKind::kPointer;
}

inline std::uint64_t make_vertex_entry(VertexId v) {
  MSSG_CHECK(v <= kMaxVertexId);
  return v;
}

inline std::uint64_t make_pointer_entry(int level, std::uint64_t subblock) {
  MSSG_CHECK(level >= 1 && level <= 6);
  MSSG_CHECK(subblock <= kValueMask);
  return (static_cast<std::uint64_t>(level) << kTagShift) | subblock;
}

inline VertexId entry_vertex(std::uint64_t entry) { return entry; }

inline int pointer_level(std::uint64_t entry) {
  return static_cast<int>(entry >> kTagShift);
}

inline std::uint64_t pointer_subblock(std::uint64_t entry) {
  return entry & kValueMask;
}

}  // namespace mssg::grdb
