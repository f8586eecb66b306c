#include "common/vertex_codec.hpp"

#include <cstring>
#include <limits>

#include "common/radix_sort.hpp"
#include "common/serial.hpp"

namespace mssg {

namespace {

constexpr std::uint8_t kMarkerRaw = 0x00;
constexpr std::uint8_t kMarkerDelta = 0x01;

void put_fixed(ByteWriter& writer, std::span<const VertexId> values) {
  writer.put_bytes(std::as_bytes(std::span(values)));
}

/// Shared prologue of both decoders: marker + count, with the count
/// sanity-checked against the remaining bytes (every element costs at
/// least one byte in either mode, so a count exceeding the remainder can
/// only come from a corrupt or adversarial buffer — reject it before any
/// allocation is sized from it).
std::uint8_t read_header(ByteReader& reader, std::uint64_t& count) {
  const std::uint8_t marker = reader.get_u8();
  if (marker != kMarkerRaw && marker != kMarkerDelta) {
    throw FormatError("vertex codec: unknown wire marker " +
                      std::to_string(marker));
  }
  count = reader.get_varint();
  if (count > reader.remaining()) {
    throw FormatError("vertex codec: element count " + std::to_string(count) +
                      " exceeds payload size " +
                      std::to_string(reader.remaining()));
  }
  return marker;
}

std::uint64_t checked_add(std::uint64_t base, std::uint64_t delta) {
  if (delta > std::numeric_limits<std::uint64_t>::max() - base) {
    throw FormatError("vertex codec: delta overflows 64-bit id space");
  }
  return base + delta;
}

void require_drained(const ByteReader& reader) {
  if (!reader.empty()) {
    throw FormatError("vertex codec: " + std::to_string(reader.remaining()) +
                      " trailing bytes after payload");
  }
}

}  // namespace

std::vector<std::byte> encode_vertex_set(std::vector<VertexId>& vertices,
                                         WireFormat format) {
  radix_sort(vertices, [](VertexId v) { return v; });

  ByteWriter raw;
  raw.put_u8(kMarkerRaw);
  raw.put_varint(vertices.size());
  put_fixed(raw, vertices);
  if (format == WireFormat::kRaw) return raw.take();

  ByteWriter delta;
  delta.put_u8(kMarkerDelta);
  delta.put_varint(vertices.size());
  VertexId prev = 0;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    delta.put_varint(i == 0 ? vertices[0] : vertices[i] - prev);
    prev = vertices[i];
    // Already at least as big as the fixed-width form: stop wasting work
    // and ship the passthrough escape instead.
    if (delta.size() >= raw.size()) return raw.take();
  }
  return delta.take();
}

void decode_vertex_set(std::span<const std::byte> buffer,
                       std::vector<VertexId>& out) {
  out.clear();
  ByteReader reader(buffer);
  std::uint64_t count = 0;
  const std::uint8_t marker = read_header(reader, count);
  out.reserve(count);

  if (marker == kMarkerRaw) {
    const auto bytes = reader.get_bytes(count * sizeof(VertexId));
    out.resize(count);
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  } else {
    VertexId value = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t step = reader.get_varint();
      value = i == 0 ? step : checked_add(value, step);
      out.push_back(value);
    }
  }
  require_drained(reader);
}

std::vector<std::byte> encode_pair_set(std::vector<VertexPair>& pairs,
                                       WireFormat format) {
  // Lexicographic order: by second, then stably by first.
  radix_sort(pairs, [](const VertexPair& p) { return p.second; });
  radix_sort(pairs, [](const VertexPair& p) { return p.first; });

  ByteWriter raw;
  raw.put_u8(kMarkerRaw);
  raw.put_varint(pairs.size());
  for (const auto& [first, second] : pairs) {
    raw.put(first);
    raw.put(second);
  }
  if (format == WireFormat::kRaw) return raw.take();

  ByteWriter delta;
  delta.put_u8(kMarkerDelta);
  delta.put_varint(pairs.size());
  VertexId prev_first = 0;
  VertexId prev_second = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& [first, second] = pairs[i];
    if (i == 0) {
      delta.put_varint(first);
      delta.put_varint(second);
    } else {
      delta.put_varint(first - prev_first);
      // Lexicographic order: within a run of equal firsts the seconds
      // ascend, so they delta; across a first-change the second restarts.
      delta.put_varint(first == prev_first ? second - prev_second : second);
    }
    prev_first = first;
    prev_second = second;
    if (delta.size() >= raw.size()) return raw.take();
  }
  return delta.take();
}

void decode_pair_set(std::span<const std::byte> buffer,
                     std::vector<VertexPair>& out) {
  out.clear();
  ByteReader reader(buffer);
  std::uint64_t count = 0;
  const std::uint8_t marker = read_header(reader, count);
  out.reserve(count);

  if (marker == kMarkerRaw) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const VertexId first = reader.get<VertexId>();
      const VertexId second = reader.get<VertexId>();
      out.emplace_back(first, second);
    }
  } else {
    VertexId first = 0;
    VertexId second = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t first_step = reader.get_varint();
      const std::uint64_t second_step = reader.get_varint();
      if (i == 0) {
        first = first_step;
        second = second_step;
      } else if (first_step == 0) {
        second = checked_add(second, second_step);
      } else {
        first = checked_add(first, first_step);
        second = second_step;
      }
      out.emplace_back(first, second);
    }
  }
  require_drained(reader);
}

}  // namespace mssg
