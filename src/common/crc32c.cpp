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
// The SSE4.2 kernel runs three independent crc32 streams over three
// adjacent chunks, so the instruction's 3-cycle latency is hidden behind
// its 1-per-cycle throughput, then folds the streams into one.  Folding
// is zlib's crc32_combine: with no pre- or post-inversion a CRC register
// is linear, so crc(A || B) = shift(crc(A), |B|) ^ crc(B), where shift
// feeds |B| zero bytes into the register.  shift is a 32x32 matrix over
// GF(2), built here by squaring the one-zero-bit operator, and applied
// through four byte tables.  Everything is constexpr: crc32c() may first
// run from a static initializer, before any dynamic one.
using Gf2Matrix = std::array<std::uint32_t, 32>;  // column n: image of bit n

constexpr std::uint32_t gf2_times(const Gf2Matrix& mat, std::uint32_t vec) {
  std::uint32_t sum = 0;
  for (int n = 0; vec != 0; ++n, vec >>= 1) {
    if ((vec & 1u) != 0) sum ^= mat[n];
  }
  return sum;
}

/// The operator that applies `second` after `first`.
constexpr Gf2Matrix gf2_compose(const Gf2Matrix& second,
                                const Gf2Matrix& first) {
  Gf2Matrix out{};
  for (int n = 0; n < 32; ++n) out[n] = gf2_times(second, first[n]);
  return out;
}

/// The operator that feeds `bytes` zero bytes into a CRC32C register.
constexpr Gf2Matrix zeros_operator(std::size_t bytes) {
  Gf2Matrix power{};  // one zero bit: shift right, fold in the polynomial
  power[0] = kCrc32cPoly;
  for (int n = 1; n < 32; ++n) power[n] = std::uint32_t{1} << (n - 1);
  for (int i = 0; i < 3; ++i) power = gf2_compose(power, power);  // 8 bits
  Gf2Matrix result{};
  for (int n = 0; n < 32; ++n) result[n] = std::uint32_t{1} << n;
  for (; bytes != 0; bytes >>= 1) {
    if ((bytes & 1u) != 0) result = gf2_compose(power, result);
    power = gf2_compose(power, power);
  }
  return result;
}

/// zeros_operator(bytes) as four byte-indexed tables.
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ShiftTable make_shift_table(std::size_t bytes) {
  const Gf2Matrix op = zeros_operator(bytes);
  ShiftTable table{};
  for (int k = 0; k < 4; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      table[k][i] = gf2_times(op, i << (8 * k));
    }
  }
  return table;
}

std::uint32_t shift(const ShiftTable& table, std::uint32_t crc) {
  return table[0][crc & 0xFFu] ^ table[1][(crc >> 8) & 0xFFu] ^
         table[2][(crc >> 16) & 0xFFu] ^ table[3][crc >> 24];
}

constexpr std::size_t kLongChunk = 8192;  // per stream: 3 x 8 KiB
constexpr std::size_t kShortChunk = 256;  // per stream: 3 x 256 B
constexpr ShiftTable kLongShift = make_shift_table(kLongChunk);
constexpr ShiftTable kShortShift = make_shift_table(kShortChunk);

[[gnu::target("sse4.2")]] inline std::uint64_t crc32_word(
    std::uint64_t crc, const unsigned char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return _mm_crc32_u64(crc, word);
}

/// Runs three streams over the next 3 x `chunk` bytes while at least that
/// many remain, folding each triple into `crc`.
[[gnu::target("sse4.2")]] std::uint32_t crc32_three_streams(
    std::uint32_t crc, const unsigned char*& p, std::size_t& n,
    std::size_t chunk, const ShiftTable& table) {
  while (n >= 3 * chunk) {
    std::uint64_t crc0 = crc;
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < chunk; i += 8) {
      crc0 = crc32_word(crc0, p + i);
      crc1 = crc32_word(crc1, p + chunk + i);
      crc2 = crc32_word(crc2, p + 2 * chunk + i);
    }
    crc = shift(table, static_cast<std::uint32_t>(crc0)) ^
          static_cast<std::uint32_t>(crc1);
    crc = shift(table, crc) ^ static_cast<std::uint32_t>(crc2);
    p += 3 * chunk;
    n -= 3 * chunk;
  }
  return crc;
}

// Compiled for SSE4.2 whatever the build targets; only ever called after
// the CPU check in choose_kernel.
[[gnu::target("sse4.2")]] std::uint32_t crc32c_sse42(
    std::span<const std::byte> data, std::uint32_t seed) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = ~seed;
  crc = crc32_three_streams(crc, p, n, kLongChunk, kLongShift);
  crc = crc32_three_streams(crc, p, n, kShortChunk, kShortShift);
  std::uint64_t crc64 = crc;
  while (n >= 8) {
    crc64 = crc32_word(crc64, p);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(crc64);
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  return ~crc;
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
