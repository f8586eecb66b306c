#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace mssg {

namespace {

constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;  // reflected

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kCrc32cPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kCrc32cTable = make_crc32c_table();

using Kernel = std::uint32_t (*)(std::span<const std::byte>, std::uint32_t);

#if defined(__x86_64__)
// Compiled for SSE4.2 whatever the build targets; only ever called after
// the CPU check in choose_kernel.
[[gnu::target("sse4.2")]] std::uint32_t crc32c_sse42(
    std::span<const std::byte> data, std::uint32_t seed) {
  std::uint64_t crc = ~seed;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  while (n > 0) {
    crc32 = _mm_crc32_u8(crc32, *p++);
    --n;
  }
  return ~crc32;
}
#endif

Kernel choose_kernel() {
#if defined(__x86_64__)
  // Idempotent: makes sure the CPU probe has run even when the first
  // call comes from a static initializer.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_table;
}

}  // namespace

std::uint32_t crc32c_table(std::span<const std::byte> data,
                           std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  while (n > 0) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ *p++) & 0xFFu];
    --n;
  }
  return ~crc;
}

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) {
  static const Kernel kernel = choose_kernel();
  return kernel(data, seed);
}

}  // namespace mssg
