// Round-trip and corruption tests for the wire codec
// (common/vertex_codec.hpp).  The decoder faces payloads from the
// simulated interconnect, so every malformed buffer must throw
// FormatError — never crash, hang, or allocate unboundedly.
#include "common/vertex_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "common/error.hpp"
#include "common/radix_sort.hpp"
#include "common/serial.hpp"

namespace mssg {
namespace {

std::vector<VertexId> roundtrip(std::vector<VertexId> input,
                                WireFormat format) {
  const std::vector<std::byte> wire = encode_vertex_set(input, format);
  std::vector<VertexId> out;
  decode_vertex_set(wire, out);
  return out;
}

std::vector<VertexPair> roundtrip_pairs(std::vector<VertexPair> input,
                                        WireFormat format) {
  const std::vector<std::byte> wire = encode_pair_set(input, format);
  std::vector<VertexPair> out;
  decode_pair_set(wire, out);
  return out;
}

TEST(VertexCodec, EmptySetRoundTripsInBothFormats) {
  EXPECT_TRUE(roundtrip({}, WireFormat::kRaw).empty());
  EXPECT_TRUE(roundtrip({}, WireFormat::kDelta).empty());
  EXPECT_TRUE(roundtrip_pairs({}, WireFormat::kRaw).empty());
  EXPECT_TRUE(roundtrip_pairs({}, WireFormat::kDelta).empty());
}

TEST(VertexCodec, SingleVertexRoundTrips) {
  for (const VertexId v : {VertexId{0}, VertexId{1}, VertexId{12345},
                           std::numeric_limits<VertexId>::max()}) {
    EXPECT_EQ(roundtrip({v}, WireFormat::kRaw), std::vector<VertexId>{v});
    EXPECT_EQ(roundtrip({v}, WireFormat::kDelta), std::vector<VertexId>{v});
  }
}

TEST(VertexCodec, UnsortedInputDecodesSorted) {
  const std::vector<VertexId> expected{1, 5, 9, 100, 4096};
  const std::vector<VertexId> shuffled{100, 1, 4096, 5, 9};
  EXPECT_EQ(roundtrip(shuffled, WireFormat::kDelta), expected);
  EXPECT_EQ(roundtrip(shuffled, WireFormat::kRaw), expected);
}

TEST(VertexCodec, DuplicatesArePreservedNotDropped) {
  const std::vector<VertexId> expected{7, 7, 7, 9, 9};
  EXPECT_EQ(roundtrip({9, 7, 9, 7, 7}, WireFormat::kDelta), expected);
  EXPECT_EQ(roundtrip({9, 7, 9, 7, 7}, WireFormat::kRaw), expected);
}

TEST(VertexCodec, EncoderSortsItsArgumentInPlace) {
  std::vector<VertexId> vertices{30, 10, 20};
  (void)encode_vertex_set(vertices, WireFormat::kDelta);
  EXPECT_EQ(vertices, (std::vector<VertexId>{10, 20, 30}));
}

TEST(VertexCodec, DenseSetCompressesWellBelowRaw) {
  // owner(v) = v mod p clusters a rank's fringe: stride-p ids delta to
  // one varint byte each vs 8 raw bytes.
  std::vector<VertexId> vertices;
  for (VertexId v = 0; v < 4096; ++v) vertices.push_back(1000 + 4 * v);
  const std::size_t raw = raw_vertex_wire_bytes(vertices.size());
  const auto wire = encode_vertex_set(vertices, WireFormat::kDelta);
  EXPECT_LT(wire.size() * 4, raw);  // at least 4x smaller
  std::vector<VertexId> out;
  decode_vertex_set(wire, out);
  EXPECT_EQ(out, vertices);
}

TEST(VertexCodec, AdversarialMaxDeltaSetTakesPassthroughEscape) {
  // Spread ids so every delta needs a ~10-byte varint; the encoder must
  // fall back to the raw marker rather than expand the payload.
  std::vector<VertexId> vertices;
  const VertexId step = std::numeric_limits<VertexId>::max() / 9;
  for (int i = 0; i < 9; ++i) vertices.push_back(step * i);
  const auto wire = encode_vertex_set(vertices, WireFormat::kDelta);
  EXPECT_EQ(static_cast<std::uint8_t>(wire[0]), 0x00);  // raw marker
  EXPECT_LE(wire.size(),
            1 + 10 + raw_vertex_wire_bytes(vertices.size()));
  std::vector<VertexId> out;
  decode_vertex_set(wire, out);
  EXPECT_EQ(out, vertices);
}

TEST(VertexCodec, RandomSetsRoundTripBothFormats) {
  std::mt19937_64 rng(0x5eed);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = rng() % 200;
    std::vector<VertexId> vertices(n);
    for (auto& v : vertices) v = rng() % 1'000'000;
    std::vector<VertexId> expected = vertices;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(roundtrip(vertices, WireFormat::kDelta), expected);
    EXPECT_EQ(roundtrip(vertices, WireFormat::kRaw), expected);
  }
}

TEST(VertexCodec, PairSetsRoundTripWithSharedFirstRuns) {
  // CC label buckets look like this: many updates for the same vertex.
  std::vector<VertexPair> pairs{{5, 90}, {5, 10}, {5, 40},
                                {9, 3},  {2, 2},  {9, 1}};
  std::vector<VertexPair> expected = pairs;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(roundtrip_pairs(pairs, WireFormat::kDelta), expected);
  EXPECT_EQ(roundtrip_pairs(pairs, WireFormat::kRaw), expected);
}

TEST(VertexCodec, RandomPairSetsRoundTrip) {
  std::mt19937_64 rng(0xfeed);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = rng() % 100;
    std::vector<VertexPair> pairs(n);
    for (auto& [a, b] : pairs) {
      a = rng() % 1000;  // narrow range: forces duplicate firsts
      b = rng() % 1'000'000;
    }
    std::vector<VertexPair> expected = pairs;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(roundtrip_pairs(pairs, WireFormat::kDelta), expected);
    EXPECT_EQ(roundtrip_pairs(pairs, WireFormat::kRaw), expected);
  }
}

// The wire bytes depend only on the multiset: a shuffled input encodes
// exactly like its std::sort-ed copy, in both formats, at sizes on both
// sides of the radix sort's comparison-sort cutoff, and the encoder
// leaves its argument in std::sort's order.
TEST(VertexCodec, EncodedBytesIgnoreInputOrder) {
  std::mt19937_64 rng(0x0bde);
  for (const std::size_t n :
       {std::size_t{2}, std::size_t{100}, kRadixSortCutoff - 1,
        kRadixSortCutoff, std::size_t{1000}, std::size_t{20'000}}) {
    for (const WireFormat format : {WireFormat::kDelta, WireFormat::kRaw}) {
      std::vector<VertexId> vertices(n);
      // Duplicates, and ids past 2^32: digits above the low word vary.
      for (auto& v : vertices) v = rng() % (n / 2 + 1) * 0x1'0000'0001ull;
      std::vector<VertexId> sorted = vertices;
      std::sort(sorted.begin(), sorted.end());
      std::vector<VertexId> sorted_input = sorted;
      EXPECT_EQ(encode_vertex_set(vertices, format),
                encode_vertex_set(sorted_input, format))
          << n;
      EXPECT_EQ(vertices, sorted) << n;

      std::vector<VertexPair> pairs(n);
      for (auto& [first, second] : pairs) {
        first = rng() % (n / 4 + 1);  // duplicate firsts
        second = rng() % 3 == 0 ? first : rng() >> (rng() % 64);
      }
      std::vector<VertexPair> sorted_pairs = pairs;
      std::sort(sorted_pairs.begin(), sorted_pairs.end());
      std::vector<VertexPair> sorted_pairs_input = sorted_pairs;
      EXPECT_EQ(encode_pair_set(pairs, format),
                encode_pair_set(sorted_pairs_input, format))
          << n;
      EXPECT_EQ(pairs, sorted_pairs) << n;
    }
  }
}

// ---- Corrupt buffers must throw FormatError, never UB ----------------------

TEST(VertexCodec, DecodeEmptyBufferThrows) {
  std::vector<VertexId> out;
  EXPECT_THROW(decode_vertex_set({}, out), FormatError);
}

TEST(VertexCodec, DecodeUnknownMarkerThrows) {
  const std::byte bad[] = {std::byte{0x7f}, std::byte{0x00}};
  std::vector<VertexId> out;
  EXPECT_THROW(decode_vertex_set(bad, out), FormatError);
  std::vector<VertexPair> pout;
  EXPECT_THROW(decode_pair_set(bad, pout), FormatError);
}

TEST(VertexCodec, TruncatedPayloadThrows) {
  std::vector<VertexId> vertices{1, 2, 3, 1000, 100000};
  for (const auto format : {WireFormat::kRaw, WireFormat::kDelta}) {
    std::vector<VertexId> copy = vertices;
    const auto wire = encode_vertex_set(copy, format);
    std::vector<VertexId> out;
    for (std::size_t cut = 1; cut < wire.size(); ++cut) {
      EXPECT_THROW(
          decode_vertex_set(std::span(wire).first(wire.size() - cut), out),
          FormatError);
    }
  }
}

TEST(VertexCodec, TrailingBytesThrow) {
  std::vector<VertexId> vertices{4, 8, 15};
  for (const auto format : {WireFormat::kRaw, WireFormat::kDelta}) {
    std::vector<VertexId> copy = vertices;
    auto wire = encode_vertex_set(copy, format);
    wire.push_back(std::byte{0x00});
    std::vector<VertexId> out;
    EXPECT_THROW(decode_vertex_set(wire, out), FormatError);
  }
}

TEST(VertexCodec, AdversarialElementCountThrowsBeforeAllocating) {
  // marker + varint claiming ~2^63 elements, no payload behind it.  The
  // decoder must reject the count against the remaining bytes instead of
  // trying to reserve exabytes.
  ByteWriter writer;
  writer.put_u8(0x01);
  writer.put_varint(std::uint64_t{1} << 63);
  const auto wire = writer.take();
  std::vector<VertexId> out;
  EXPECT_THROW(decode_vertex_set(wire, out), FormatError);
  std::vector<VertexPair> pout;
  EXPECT_THROW(decode_pair_set(wire, pout), FormatError);
}

TEST(VertexCodec, DeltaOverflowThrows) {
  // Two max-value deltas: the running sum would wrap past 2^64.
  ByteWriter writer;
  writer.put_u8(0x01);
  writer.put_varint(2);
  writer.put_varint(std::numeric_limits<std::uint64_t>::max());
  writer.put_varint(std::numeric_limits<std::uint64_t>::max());
  const auto wire = writer.take();
  std::vector<VertexId> out;
  EXPECT_THROW(decode_vertex_set(wire, out), FormatError);
}

TEST(VertexCodec, OverlongVarintThrows) {
  ByteWriter writer;
  writer.put_u8(0x01);
  writer.put_varint(1);
  // 11 continuation bytes: more than any 64-bit varint can need.
  for (int i = 0; i < 11; ++i) writer.put_u8(0x80);
  writer.put_u8(0x01);
  const auto wire = writer.take();
  std::vector<VertexId> out;
  EXPECT_THROW(decode_vertex_set(wire, out), FormatError);
}

}  // namespace
}  // namespace mssg
