#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bitset.hpp"
#include "common/crc32c.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "common/temp_dir.hpp"
#include "common/types.hpp"

namespace mssg {
namespace {

// ---- Rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SplitmixAdvancesState) {
  std::uint64_t state = 0;
  const auto a = splitmix64(state);
  const auto b = splitmix64(state);
  EXPECT_NE(a, b);
}

// ---- Crc32c ----------------------------------------------------------------

using Crc32cKernel = std::uint32_t (*)(std::span<const std::byte>,
                                       std::uint32_t);

// The dispatched kernel and the table kernel, named so both run on every
// host (on an SSE4.2 CPU, crc32c alone never reaches the table loop).
const std::pair<const char*, Crc32cKernel> kCrc32cKernels[] = {
    {"dispatched", &crc32c}, {"table", &crc32c_table}};

std::vector<std::byte> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::byte> bytes(n);
  for (auto& b : bytes) b = static_cast<std::byte>(rng());
  return bytes;
}

TEST(Crc32c, KnownAnswers) {
  // RFC 3720 §B.4, plus the usual "123456789" check value.
  std::vector<std::byte> zeros(32, std::byte{0x00});
  std::vector<std::byte> ones(32, std::byte{0xFF});
  std::vector<std::byte> up(32), down(32);
  for (int i = 0; i < 32; ++i) {
    up[i] = static_cast<std::byte>(i);
    down[i] = static_cast<std::byte>(31 - i);
  }
  const std::string digits = "123456789";
  const auto check = std::as_bytes(std::span(digits.data(), digits.size()));
  for (const auto& [name, kernel] : kCrc32cKernels) {
    SCOPED_TRACE(name);
    EXPECT_EQ(kernel(zeros, 0), 0x8A9136AAu);
    EXPECT_EQ(kernel(ones, 0), 0x62A8AB43u);
    EXPECT_EQ(kernel(up, 0), 0x46DD794Eu);
    EXPECT_EQ(kernel(down, 0), 0x113FDB5Cu);
    EXPECT_EQ(kernel(check, 0), 0xE3069283u);
    EXPECT_EQ(kernel({}, 0), 0u);
  }
}

TEST(Crc32c, DispatchedMatchesTableKernel) {
  constexpr std::size_t kMax = 300 * 1024;
  Rng rng(0xC3C32);
  // Room for every start offset 0-7 in front of the largest length.
  const auto bytes = random_bytes(rng, kMax + 8);
  // Word-boundary lengths, grDB's block sizes (4, 32 and 256 KB) and the
  // 300 KB maximum, then random lengths up to it.
  std::vector<std::size_t> lengths = {0,    1,    7,     8,      9,
                                      15,   16,   17,    255,    256,
                                      4096, 4097, 32768, 262144, kMax};
  for (int i = 0; i < 8; ++i) lengths.push_back(rng.below(kMax + 1));
  for (const std::size_t length : lengths) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::span<const std::byte> data(bytes.data() + offset, length);
      const auto seed = static_cast<std::uint32_t>(rng());
      EXPECT_EQ(crc32c(data), crc32c_table(data))
          << "length " << length << " offset " << offset;
      EXPECT_EQ(crc32c(data, seed), crc32c_table(data, seed))
          << "length " << length << " offset " << offset << " seed " << seed;
    }
  }
}

TEST(Crc32c, ChainedCallsEqualOneShot) {
  Rng rng(77);
  const auto bytes = random_bytes(rng, 64 * 1024);
  const std::span<const std::byte> all(bytes);
  for (int i = 0; i < 32; ++i) {
    const std::size_t split = rng.below(bytes.size() + 1);
    const auto a = all.first(split);
    const auto b = all.subspan(split);
    for (const auto& [name, kernel] : kCrc32cKernels) {
      SCOPED_TRACE(name);
      EXPECT_EQ(kernel(b, kernel(a, 0)), kernel(all, 0)) << "split " << split;
    }
    // Either kernel can continue the other's checksum.
    EXPECT_EQ(crc32c_table(b, crc32c(a)), crc32c(all)) << "split " << split;
  }
}

// ---- Serialization ---------------------------------------------------------

TEST(Serial, FixedWidthRoundTrip) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i32(-42);
  w.put_i64(-1);
  w.put_double(3.5);
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_i64(), -1);
  EXPECT_DOUBLE_EQ(r.get_double(), 3.5);
  EXPECT_TRUE(r.empty());
}

TEST(Serial, VarintRoundTripBoundaries) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  ~std::uint64_t{0}};
  ByteWriter w;
  for (auto v : values) w.put_varint(v);
  const auto bytes = w.take();
  ByteReader r(bytes);
  for (auto v : values) EXPECT_EQ(r.get_varint(), v);
}

TEST(Serial, VarintEncodingIsCompact) {
  ByteWriter w;
  w.put_varint(5);
  EXPECT_EQ(w.size(), 1u);
  w.put_varint(300);
  EXPECT_EQ(w.size(), 3u);  // 1 + 2
}

TEST(Serial, StringAndVectorRoundTrip) {
  ByteWriter w;
  w.put_string("hello mssg");
  w.put_vector(std::vector<std::uint32_t>{1, 2, 3, 4});
  w.put_string("");
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(r.get_string(), "hello mssg");
  EXPECT_EQ(r.get_vector<std::uint32_t>(), (std::vector<std::uint32_t>{1, 2, 3, 4}));
  EXPECT_EQ(r.get_string(), "");
}

TEST(Serial, TruncatedInputThrows) {
  ByteWriter w;
  w.put_u64(12345);
  auto bytes = w.take();
  bytes.resize(4);
  ByteReader r(bytes);
  EXPECT_THROW(r.get_u64(), FormatError);
}

TEST(Serial, TruncatedVarintThrows) {
  std::vector<std::byte> bytes{std::byte{0x80}, std::byte{0x80}};
  ByteReader r(bytes);
  EXPECT_THROW(r.get_varint(), FormatError);
}

// ---- DynamicBitset ---------------------------------------------------------

TEST(Bitset, SetTestClear) {
  DynamicBitset bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_FALSE(bits.test(0));
  bits.set(0);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(129));
  EXPECT_EQ(bits.count(), 3u);
  bits.clear(64);
  EXPECT_FALSE(bits.test(64));
  EXPECT_EQ(bits.count(), 2u);
}

TEST(Bitset, TestAndSet) {
  DynamicBitset bits(10);
  EXPECT_FALSE(bits.test_and_set(5));
  EXPECT_TRUE(bits.test_and_set(5));
}

TEST(Bitset, OutOfRangeThrows) {
  DynamicBitset bits(10);
  EXPECT_THROW((void)bits.test(10), UsageError);
  EXPECT_THROW(bits.set(11), UsageError);
}

TEST(Bitset, ResizePreservesAndFills) {
  DynamicBitset bits(10);
  bits.set(3);
  bits.resize(100, true);
  EXPECT_TRUE(bits.test(3));
  EXPECT_FALSE(bits.test(4));
  EXPECT_TRUE(bits.test(10));
  EXPECT_TRUE(bits.test(99));
  EXPECT_EQ(bits.count(), 91u);  // 3 plus bits 10..99
}

TEST(Bitset, FindFirstSet) {
  DynamicBitset bits(200);
  EXPECT_EQ(bits.find_first_set(), 200u);
  bits.set(77);
  bits.set(150);
  EXPECT_EQ(bits.find_first_set(), 77u);
  EXPECT_EQ(bits.find_first_set(78), 150u);
  EXPECT_EQ(bits.find_first_set(151), 200u);
}

TEST(Bitset, CountMatchesReferenceOnRandomPattern) {
  DynamicBitset bits(513);
  std::set<std::size_t> reference;
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    const auto pos = rng.below(513);
    bits.set(pos);
    reference.insert(pos);
  }
  EXPECT_EQ(bits.count(), reference.size());
  for (std::size_t i = 0; i < 513; ++i) {
    EXPECT_EQ(bits.test(i), reference.contains(i));
  }
}

// ---- TempDir ---------------------------------------------------------------

TEST(TempDir, CreatesAndRemoves) {
  std::filesystem::path path;
  {
    TempDir dir("mssg-test");
    path = dir.path();
    EXPECT_TRUE(std::filesystem::exists(path));
    std::ofstream(path / "file.txt") << "data";
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(TempDir, MoveTransfersOwnership) {
  TempDir a("mssg-test");
  const auto path = a.path();
  TempDir b = std::move(a);
  EXPECT_EQ(b.path(), path);
  EXPECT_TRUE(std::filesystem::exists(path));
}

// ---- Types -----------------------------------------------------------------

TEST(Types, EdgeComparisonAndHash) {
  EXPECT_EQ((Edge{1, 2}), (Edge{1, 2}));
  EXPECT_NE((Edge{1, 2}), (Edge{2, 1}));
  const std::hash<Edge> h;
  EXPECT_NE(h(Edge{1, 2}), h(Edge{2, 1}));
}

TEST(Types, VertexIdLimits) {
  EXPECT_EQ(kMaxVertexId, (VertexId{1} << 61) - 1);
  EXPECT_GT(kInvalidVertex, kMaxVertexId);
}

}  // namespace
}  // namespace mssg
