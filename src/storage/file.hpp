// RAII wrapper over a POSIX file descriptor with positional I/O.
// All GraphDB backends do random block access, so the interface is
// pread/pwrite-shaped rather than stream-shaped.
//
// Every operation consults the process-global FaultInjector (one relaxed
// atomic load when disarmed), which is how the crash-recovery and
// torn-write suites simulate dying disks without touching this layer's
// callers.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>

#include "storage/io_stats.hpp"

namespace mssg {

class File {
 public:
  File() = default;
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;
  ~File();

  /// Opens (creating if necessary) a read/write file.  `stats` may be
  /// null; when set, every operation is accounted there — from whichever
  /// thread issues it (IoEngine workers included).  The pointer must
  /// outlive the File.
  static File open(const std::filesystem::path& path, IoStats* stats = nullptr);

  /// Opens an existing file read-only; throws StorageError if missing.
  static File open_readonly(const std::filesystem::path& path,
                            IoStats* stats = nullptr);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

  /// Reads exactly buffer.size() bytes at `offset`.  Bytes beyond EOF
  /// read as zero (grDB files are sparse: blocks are addressed before
  /// they are first written).  Returns the number of real bytes read.
  std::size_t read_at(std::uint64_t offset, std::span<std::byte> buffer) const;

  /// Writes exactly buffer.size() bytes at `offset`, extending the file.
  void write_at(std::uint64_t offset, std::span<const std::byte> buffer) const;

  /// Fills `buffers` from the contiguous byte range starting at
  /// `offset` with a single preadv (EOF zero-fills, like read_at).  The
  /// IoEngine uses this to fuse adjacent offset-sorted requests into one
  /// syscall.  With the FaultInjector armed the call degrades to one
  /// read_at per buffer, so fault/kill-point indices stay exactly the
  /// per-request ones the crash sweeps were calibrated against.
  void read_vectored(std::uint64_t offset,
                     std::span<const std::span<std::byte>> buffers) const;

  [[nodiscard]] std::uint64_t size() const;
  void truncate(std::uint64_t new_size) const;
  /// fdatasync — skipped (no syscall, no fault-injector consultation,
  /// not counted) when this handle saw no write or truncate since its
  /// last successful sync.
  void sync() const;
  void close();

  /// Best-effort eviction of this file's pages from the OS page cache
  /// (fdatasync + POSIX_FADV_DONTNEED) — how the cold-cache benches make
  /// "cold" mean the device, not memory.  Not counted in IoStats.
  void drop_page_cache() const;

  /// The path this File was opened with (empty for a default-constructed
  /// File) — what fault-injection rules match against.
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  File(int fd, IoStats* stats, std::string path)
      : fd_(fd), stats_(stats), path_(std::move(path)) {}

  int fd_ = -1;
  IoStats* stats_ = nullptr;
  std::string path_;
  // Set before every mutation through this handle (so a torn write
  // leaves it set), cleared before each fdatasync and restored if the
  // fdatasync throws.  Atomic: one handle may be written by a query
  // thread's eviction and synced by the writer thread.
  mutable std::atomic<bool> unsynced_{false};
};

}  // namespace mssg
