#include "storage/file.hpp"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "storage/fault_injector.hpp"

namespace mssg {

namespace {
// A vectored read's iovecs: on the stack up to IoEngine's default merge
// limit, so the engine's worker issues a merged run without touching the
// heap; a longer list takes a heap array.
class IovecScratch {
 public:
  std::span<iovec> get(std::size_t n) {
    if (n <= inline_.size()) return std::span(inline_).first(n);
    heap_.resize(n);
    return heap_;
  }

 private:
  std::array<iovec, 16> inline_{};
  std::vector<iovec> heap_;
};

[[noreturn]] void throw_errno(const std::string& op,
                              const std::filesystem::path& path) {
  throw StorageError(op + " failed for " + path.string() + ": " +
                     std::strerror(errno));
}
}  // namespace

File::File(File&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      stats_(std::exchange(other.stats_, nullptr)),
      path_(std::move(other.path_)),
      unsynced_(other.unsynced_.exchange(false)) {}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    stats_ = std::exchange(other.stats_, nullptr);
    path_ = std::move(other.path_);
    unsynced_.store(other.unsynced_.exchange(false));
  }
  return *this;
}

File::~File() { close(); }

File File::open(const std::filesystem::path& path, IoStats* stats) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("open", path);
  return File(fd, stats, path.string());
}

File File::open_readonly(const std::filesystem::path& path, IoStats* stats) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno("open (read-only)", path);
  return File(fd, stats, path.string());
}

std::size_t File::read_at(std::uint64_t offset,
                          std::span<std::byte> buffer) const {
  MSSG_CHECK(is_open());
  std::size_t want = buffer.size();
  if (FaultInjector::instance().enabled()) {
    // A short read delivers a prefix; the remainder zero-fills below,
    // exactly like a read past EOF of a truncated file.
    want = static_cast<std::size_t>(FaultInjector::instance().apply(
        FaultInjector::Op::kRead, path_, want));
  }
  std::size_t done = 0;
  while (done < want) {
    const ssize_t n = ::pread(fd_, buffer.data() + done, want - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw StorageError(std::string("pread failed: ") + std::strerror(errno));
    }
    if (n == 0) break;  // past EOF: zero-fill the rest
    done += static_cast<std::size_t>(n);
  }
  if (done < buffer.size()) {
    std::memset(buffer.data() + done, 0, buffer.size() - done);
  }
  if (stats_ != nullptr) {
    ++stats_->reads;
    stats_->bytes_read += buffer.size();
  }
  return done;
}

void File::write_at(std::uint64_t offset,
                    std::span<const std::byte> buffer) const {
  MSSG_CHECK(is_open());
  unsynced_.store(true);
  std::size_t allow = buffer.size();
  if (FaultInjector::instance().enabled()) {
    allow = static_cast<std::size_t>(FaultInjector::instance().apply(
        FaultInjector::Op::kWrite, path_, allow));
  }
  std::size_t done = 0;
  while (done < allow) {
    const ssize_t n = ::pwrite(fd_, buffer.data() + done, allow - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw StorageError(std::string("pwrite failed: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  if (stats_ != nullptr) {
    ++stats_->writes;
    stats_->bytes_written += done;
  }
  if (allow < buffer.size()) {
    // The torn prefix is on disk; the caller sees the write fail, as a
    // crashed process would have (it never got to observe anything).
    throw StorageError("fault injection: torn write (" + path_ + ": " +
                       std::to_string(allow) + "/" +
                       std::to_string(buffer.size()) + " bytes)");
  }
}

void File::read_vectored(std::uint64_t offset,
                         std::span<const std::span<std::byte>> buffers) const {
  MSSG_CHECK(is_open());
  if (buffers.empty()) return;
  if (FaultInjector::instance().enabled()) {
    // Deterministic fault indices: one injector consultation per block,
    // exactly like the unmerged path.
    std::uint64_t pos = offset;
    for (const auto& buf : buffers) {
      read_at(pos, buf);
      pos += buf.size();
    }
    return;
  }
  IovecScratch scratch;
  const std::span<iovec> iov = scratch.get(buffers.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    iov[i].iov_base = buffers[i].data();
    iov[i].iov_len = buffers[i].size();
    total += buffers[i].size();
  }
  std::size_t done = 0;
  std::size_t skip = 0;  // fully-consumed iovecs at the front
  while (done < total) {
    // Advance past completed iovecs and trim the partial head.
    while (skip < iov.size() && iov[skip].iov_len == 0) ++skip;
    const ssize_t n =
        ::preadv(fd_, iov.data() + skip, static_cast<int>(iov.size() - skip),
                 static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw StorageError(std::string("preadv failed: ") + std::strerror(errno));
    }
    if (n == 0) break;  // past EOF: zero-fill the rest below
    done += static_cast<std::size_t>(n);
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0 && skip < iov.size()) {
      const std::size_t take = std::min(left, iov[skip].iov_len);
      iov[skip].iov_base = static_cast<std::byte*>(iov[skip].iov_base) + take;
      iov[skip].iov_len -= take;
      left -= take;
      if (iov[skip].iov_len == 0) ++skip;
    }
  }
  if (done < total) {
    for (std::size_t i = skip; i < iov.size(); ++i) {
      std::memset(iov[i].iov_base, 0, iov[i].iov_len);
    }
  }
  if (stats_ != nullptr) {
    ++stats_->reads;
    stats_->bytes_read += total;
  }
}

std::uint64_t File::size() const {
  MSSG_CHECK(is_open());
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) {
    throw StorageError(std::string("lseek failed: ") + std::strerror(errno));
  }
  return static_cast<std::uint64_t>(end);
}

void File::truncate(std::uint64_t new_size) const {
  MSSG_CHECK(is_open());
  unsynced_.store(true);
  if (FaultInjector::instance().enabled()) {
    // A truncate mutates durable state like a write does, so it is a
    // kill point too (journal trims go through here).
    FaultInjector::instance().apply(FaultInjector::Op::kWrite, path_, 0);
  }
  if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0) {
    throw StorageError(std::string("ftruncate failed: ") +
                       std::strerror(errno));
  }
}

void File::sync() const {
  MSSG_CHECK(is_open());
  // Cleared before the fdatasync: a write racing it sets the flag again,
  // so its bytes are covered by the next sync.
  if (!unsynced_.exchange(false)) return;
  try {
    if (FaultInjector::instance().enabled()) {
      FaultInjector::instance().apply(FaultInjector::Op::kSync, path_, 0);
    }
    if (::fdatasync(fd_) != 0) {
      throw StorageError(std::string("fdatasync failed: ") +
                         std::strerror(errno));
    }
  } catch (...) {
    unsynced_.store(true);
    throw;
  }
  if (stats_ != nullptr) ++stats_->syncs;
}

void File::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void File::drop_page_cache() const {
  if (fd_ < 0) return;
  // Dirty pages pin their cache entries; flush them first so the advice
  // can actually evict.  Best-effort by design: errors are ignored.
  ::fdatasync(fd_);
#ifdef POSIX_FADV_DONTNEED
  (void)::posix_fadvise(fd_, 0, 0, POSIX_FADV_DONTNEED);
#endif
}

}  // namespace mssg
