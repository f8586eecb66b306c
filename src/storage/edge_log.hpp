// Per-node edge log: the cheap commit between a page store's checkpoints.
//
// A page store that logs each committed batch of edges here may leave the
// batch's blocks dirty in its cache: the log record alone makes the batch
// durable, and a later checkpoint folds many batches into the blocks at
// once.  Recovery restores the last checkpoint and replays the log over
// it.  The log knows nothing of the store it serves.
//
// One file.  Native endianness, like the journal (node-local, never
// shipped):
//
//   header  [u64 magic][u64 generation][u32 crc32c(magic, generation)]
//   record  [u64 count][count x Edge][u32 crc32c(count, edges)]
//
// The generation ties the log to one checkpoint: the owner records it in
// its own metadata, appends only while the two agree, and starts the log
// over under a new generation after every checkpoint that covers its
// records.  A crash between that checkpoint's commit and the restart
// leaves records whose generation no longer matches, and replay skips
// them instead of applying covered edges twice.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>

#include "common/types.hpp"
#include "storage/file.hpp"
#include "storage/io_stats.hpp"

namespace mssg {

/// The most bytes (header included) a store lets its edge log hold before
/// it checkpoints instead of appending.
inline constexpr std::uint64_t kEdgeLogBoundBytes = std::uint64_t{1} << 20;

class EdgeLog {
 public:
  static constexpr std::uint64_t kHeaderBytes = 8 + 8 + 4;
  static constexpr std::uint64_t kRecordOverhead = 8 + 4;

  /// Bytes one record of `edges` edges takes in the file.
  static constexpr std::uint64_t record_bytes(std::uint64_t edges) {
    return kRecordOverhead + edges * sizeof(Edge);
  }

  /// Opens (creating if absent) the log at `path`.  Its layout is unknown
  /// until replay() or reset().  `stats` counts appends, resets and syncs.
  EdgeLog(const std::filesystem::path& path, IoStats* stats);

  using Visitor = std::function<void(std::span<const Edge>)>;

  /// Visits, in order, the whole records of a log whose header carries
  /// `generation`, and returns how many it visited.
  ///  - Stops at the first short or CRC-failing record: a torn tail, whose
  ///    batch was never acknowledged.  No allocation is sized from a
  ///    record's count beyond the bytes left in the file.
  ///  - Visits nothing when the header carries another generation, or
  ///    when the file is shorter than a header (a reset torn by a crash).
  ///  - Throws StorageError when a full header has a bad magic or CRC.
  /// Afterwards the log is ready(generation) iff it held exactly the
  /// header and the whole records visited.
  std::uint64_t replay(std::uint64_t generation, const Visitor& visit);

  /// Appends one record holding `edges` with a single write.  Not durable
  /// until sync().  Requires a log that is ready() for some generation.
  void append(std::span<const Edge> edges);

  /// fdatasyncs the log.  A failure leaves its layout unknown.
  void sync();

  /// Truncates the file to zero, then writes and syncs a header carrying
  /// `generation`.  Never the reverse order: a header written over old
  /// records would pair the new generation with edges a checkpoint holds.
  void reset(std::uint64_t generation);

  /// True when the file is known to be a header carrying `generation`
  /// followed by whole records only, so an append lands after the last.
  [[nodiscard]] bool ready(std::uint64_t generation) const {
    return known_ && bytes() >= kHeaderBytes && generation_ == generation;
  }

  /// True when the file is known to hold no record: empty, or a header
  /// alone.
  [[nodiscard]] bool empty() const { return known_ && records_ == 0; }

  /// Bytes of the known layout (header and whole records).  Safe to read
  /// from any thread.
  [[nodiscard]] std::uint64_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  File file_;
  IoStats* stats_ = nullptr;
  bool known_ = false;  ///< the file is exactly what the fields below say
  std::uint64_t generation_ = 0;
  std::uint64_t records_ = 0;
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace mssg
