// CRC32C (Castagnoli) — the checksum of the storage layer's page
// trailers, grDB's sidecar block CRCs, journal records and StreamDB's
// commit slots.  The kernel is chosen once, at run time: the SSE4.2 crc32
// instruction over 8-byte words when the CPU has it, else a byte-at-a-time
// table loop.  Both compute the same function, so checksum values and the
// on-disk format do not depend on the host.  The polynomial matches
// iSCSI/ext4, so externally written test fixtures can cross-check values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace mssg {

/// One-shot CRC32C.  `seed` chains calls: crc32c(b, crc32c(a)) equals
/// crc32c(a||b).  Runs the crc32 instruction when the CPU supports
/// SSE4.2 (checked on the first call), otherwise crc32c_table.
std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed = 0);

/// The byte-at-a-time table kernel: the fallback on CPUs without SSE4.2
/// and the reference the dispatched kernel is tested against.
std::uint32_t crc32c_table(std::span<const std::byte> data,
                           std::uint32_t seed = 0);

}  // namespace mssg
