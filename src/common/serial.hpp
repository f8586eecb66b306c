// Binary serialization helpers: little-endian fixed-width codecs plus
// LEB128-style varints.  Used by the runtime's message buffers, the
// storage substrate's page formats, and the binary edge-list format.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace mssg {

/// Appends primitive values to a growable byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::vector<std::byte> buffer)
      : buffer_(std::move(buffer)) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    const auto old_size = buffer_.size();
    buffer_.resize(old_size + sizeof(T));
    std::memcpy(buffer_.data() + old_size, &value, sizeof(T));
  }

  void put_u8(std::uint8_t v) { put(v); }
  void put_u32(std::uint32_t v) { put(v); }
  void put_u64(std::uint64_t v) { put(v); }
  void put_i32(std::int32_t v) { put(v); }
  void put_i64(std::int64_t v) { put(v); }
  void put_double(double v) { put(v); }

  /// LEB128 unsigned varint (1-10 bytes).
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      buffer_.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    buffer_.push_back(static_cast<std::byte>(v));
  }

  void put_bytes(std::span<const std::byte> bytes) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }

  void put_string(std::string_view s) {
    put_varint(s.size());
    put_bytes(std::as_bytes(std::span(s.data(), s.size())));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_vector(const std::vector<T>& values) {
    put_varint(values.size());
    put_bytes(std::as_bytes(std::span(values)));
  }

  [[nodiscard]] std::size_t size() const { return buffer_.size(); }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(buffer_); }
  [[nodiscard]] std::span<const std::byte> view() const { return buffer_; }

 private:
  std::vector<std::byte> buffer_;
};

/// Reads primitive values from a byte span.  Throws FormatError on
/// truncation so corrupt messages / pages fail loudly.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::uint8_t get_u8() { return get<std::uint8_t>(); }
  std::uint32_t get_u32() { return get<std::uint32_t>(); }
  std::uint64_t get_u64() { return get<std::uint64_t>(); }
  std::int32_t get_i32() { return get<std::int32_t>(); }
  std::int64_t get_i64() { return get<std::int64_t>(); }
  double get_double() { return get<double>(); }

  std::uint64_t get_varint() {
    std::uint64_t value = 0;
    int shift = 0;
    while (true) {
      require(1);
      const auto byte = static_cast<std::uint8_t>(data_[pos_++]);
      if (shift >= 64) throw FormatError("varint overflows 64 bits");
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
    }
  }

  std::span<const std::byte> get_bytes(std::size_t n) {
    require(n);
    auto result = data_.subspan(pos_, n);
    pos_ += n;
    return result;
  }

  std::string get_string() {
    const auto n = get_varint();
    auto bytes = get_bytes(n);
    return std::string(reinterpret_cast<const char*>(bytes.data()),
                       bytes.size());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vector() {
    const auto n = get_varint();
    // Checked before the multiply: a corrupt length must neither wrap the
    // byte count nor size the allocation below.
    if (n > remaining() / sizeof(T)) {
      throw FormatError("ByteReader: vector of " + std::to_string(n) +
                        " elements overruns the input");
    }
    auto bytes = get_bytes(n * sizeof(T));
    std::vector<T> values(n);
    if (!bytes.empty()) std::memcpy(values.data(), bytes.data(), bytes.size());
    return values;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }

 private:
  void require(std::size_t n) const {
    if (n > data_.size() - pos_) {
      throw FormatError("ByteReader: truncated input (need " +
                        std::to_string(n) + " bytes, have " +
                        std::to_string(data_.size() - pos_) + ")");
    }
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace mssg
