// Per-vertex metadata (the BFS level / visited structure).
//
// The thesis fixes the visited data structure in memory for most search
// experiments ("the simplest way to obtain a fair comparison is to simply
// fix the visited data-structure") and switches to an external-memory
// visited structure for the Syn-2B runs.  Both variants live here.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "storage/block_cache.hpp"
#include "storage/checksum.hpp"
#include "storage/file.hpp"

namespace mssg {

class MetadataStore {
 public:
  virtual ~MetadataStore() = default;

  /// Unset vertices read as the current fill value (kUnvisited after
  /// construction or clear()).
  [[nodiscard]] virtual Metadata get(VertexId v) = 0;
  virtual void set(VertexId v, Metadata value) = 0;

  /// Resets every vertex to `fill` (between queries).
  virtual void clear(Metadata fill) = 0;
};

/// Dense in-memory array, grown lazily to the highest vertex touched.
class InMemoryMetadata final : public MetadataStore {
 public:
  explicit InMemoryMetadata(Metadata fill = kUnvisited) : fill_(fill) {}

  [[nodiscard]] Metadata get(VertexId v) override {
    return v < values_.size() ? values_[v] : fill_;
  }

  void set(VertexId v, Metadata value) override {
    if (v >= values_.size()) values_.resize(v + 1, fill_);
    values_[v] = value;
  }

  void clear(Metadata fill) override {
    fill_ = fill;
    values_.clear();
  }

 private:
  Metadata fill_;
  std::vector<Metadata> values_;
};

/// Paged on-disk array of Metadata with a small block cache — the
/// external-memory visited structure.  clear() truncates the file, so
/// unwritten pages read back as the fill pattern only when fill is
/// representable by a repeated byte; arbitrary fills use a generation
/// tag per page instead (see implementation).
///
/// Durability: pages carry the standard checksum trailer, but the store
/// deliberately opts OUT of journaling — visited state is scratch data
/// reconstructible by re-running the query, so a page that fails
/// verification after a crash is simply reset to zero (stamp 0 never
/// matches `generation_`, which starts at 1) and reads as fill.  The
/// corruption is still counted in `storage.checksum_failures` of the
/// `stats` it is given — GraphDB gives it its node's, so the store's
/// preads, pwrites and cache traffic land in the node's io.* counters
/// too (with null stats nothing is counted).
class ExternalMetadata final : public MetadataStore {
 public:
  ExternalMetadata(const std::filesystem::path& path, VertexId max_vertices,
                   std::size_t cache_bytes, IoStats* stats = nullptr);

  [[nodiscard]] Metadata get(VertexId v) override;
  void set(VertexId v, Metadata value) override;
  void clear(Metadata fill) override;

 private:
  static constexpr std::size_t kPageBytes = 4096;
  static constexpr std::size_t kUsableBytes =
      page_checksum::usable_bytes(kPageBytes);
  static constexpr std::size_t kPerPage = kUsableBytes / sizeof(Metadata) - 1;

  // Each page carries a generation stamp in its last Metadata slot; pages
  // whose stamp predates the last clear() read as all-fill.
  [[nodiscard]] std::uint64_t page_of(VertexId v) const { return v / kPerPage; }

  File file_;
  BlockCache cache_;
  IoStats* stats_;
  std::uint16_t store_id_;
  VertexId max_vertices_;
  Metadata fill_ = kUnvisited;
  std::int32_t generation_ = 1;
};

}  // namespace mssg
