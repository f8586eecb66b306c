#include <gtest/gtest.h>

#include <algorithm>
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
#include "common/radix_sort.hpp"
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

// ---- RadixSort -------------------------------------------------------------

std::uint64_t identity(std::uint64_t v) { return v; }

// Sizes on both sides of the comparison-sort cutoff.
std::vector<std::size_t> radix_sizes() {
  return {0,
          1,
          2,
          3,
          kRadixSortCutoff - 1,
          kRadixSortCutoff,
          kRadixSortCutoff + 1,
          1000,
          40'000};
}

void expect_sorts_like_std(std::vector<std::uint64_t> keys) {
  std::vector<std::uint64_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  std::vector<std::uint64_t> radix_only = keys;
  radix_sort(keys, identity);
  EXPECT_EQ(keys, expected) << keys.size();
  // The radix passes alone, below the cutoff too.
  detail::lsd_radix_sort(radix_only, identity);
  EXPECT_EQ(radix_only, expected) << radix_only.size();
}

TEST(RadixSort, MatchesStdSortOnRandomKeys) {
  Rng rng(21);
  for (const int bits : {8, 16, 40, 64}) {
    const std::uint64_t mask =
        bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    for (const std::size_t n : radix_sizes()) {
      std::vector<std::uint64_t> keys(n);
      for (auto& k : keys) k = rng() & mask;
      expect_sorts_like_std(keys);
    }
  }
}

TEST(RadixSort, KeysThatDifferInOneDigit) {
  Rng rng(22);
  for (const std::size_t n : radix_sizes()) {
    std::vector<std::uint64_t> top(n);
    std::vector<std::uint64_t> low(n);
    for (std::size_t i = 0; i < n; ++i) {
      top[i] = (rng() & 0xFF) << 56 | 0x00AB'CDEF'0123'4567ull;
      low[i] = 0x89AB'CDEF'0123'4500ull | (rng() & 0xFF);
    }
    expect_sorts_like_std(top);
    expect_sorts_like_std(low);
  }
}

TEST(RadixSort, AllEqualKeys) {
  for (const std::size_t n : radix_sizes()) {
    expect_sorts_like_std(std::vector<std::uint64_t>(n, 0));
    expect_sorts_like_std(std::vector<std::uint64_t>(n, ~std::uint64_t{0}));
  }
}

TEST(RadixSort, TinyInputs) {
  std::vector<std::uint64_t> none;
  radix_sort(none, identity);
  EXPECT_TRUE(none.empty());
  std::vector<std::uint64_t> one{7};
  radix_sort(one, identity);
  EXPECT_EQ(one, (std::vector<std::uint64_t>{7}));
  std::vector<std::uint64_t> two{9, 3};
  radix_sort(two, identity);
  EXPECT_EQ(two, (std::vector<std::uint64_t>{3, 9}));
}

TEST(RadixSort, EqualKeysKeepInputOrder) {
  struct Item {
    std::uint64_t key;
    std::size_t seq;
  };
  Rng rng(23);
  for (const std::size_t n : radix_sizes()) {
    for (const std::uint64_t range : {std::uint64_t{4}, std::uint64_t{1} << 40}) {
      std::vector<Item> items(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Few distinct keys, spread over the high digits too.
        items[i] = {rng.below(4) * (range / 4 + 1), i};
      }
      std::vector<Item> expected = items;
      std::stable_sort(expected.begin(), expected.end(),
                       [](const Item& a, const Item& b) { return a.key < b.key; });
      radix_sort(items, [](const Item& item) { return item.key; });
      ASSERT_EQ(items.size(), expected.size());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(items[i].key, expected[i].key) << n << " @" << i;
        EXPECT_EQ(items[i].seq, expected[i].seq) << n << " @" << i;
      }
    }
  }
}

TEST(RadixSort, TwoPassPairOrderEqualsStdSort) {
  using Pair = std::pair<std::uint64_t, std::uint64_t>;
  Rng rng(24);
  for (const std::size_t n : radix_sizes()) {
    std::vector<Pair> pairs(n);
    for (auto& [first, second] : pairs) {
      first = rng.below(n / 8 + 1);  // duplicate firsts
      second = rng.below(3) == 0 ? first : rng() >> rng.below(64);
    }
    std::vector<Pair> expected = pairs;
    std::sort(expected.begin(), expected.end());
    radix_sort(pairs, [](const Pair& p) { return p.second; });
    radix_sort(pairs, [](const Pair& p) { return p.first; });
    EXPECT_EQ(pairs, expected) << n;
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
