// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum the integrity layer stores alongside every chunk.  Chosen over
// plain CRC32 for its better burst-error detection and because it is the
// de-facto storage checksum (iSCSI, ext4 metadata, LevelDB/RocksDB block
// trailers), so on-disk artifacts stay recognizable to external tooling.
//
// The sharded backend checksums every chunk inside its write part, which
// at one server worker runs on the dedicated core itself; there the
// byte-at-a-time table (~320 MB/s on a 2020s x86-64 core) cost about as
// much as the rest of the storage path.  So `crc32c_extend` dispatches at
// run time: on x86-64 CPUs with SSE4.2 it uses the `crc32` instruction
// (several GB/s), elsewhere the table.  `crc32c_extend_table` is the
// table path on every host, kept callable as the oracle the tests compare
// the dispatched path against.  The incremental form lets callers
// checksum scatter/gather data without concatenating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace dedicore::storage {

/// CRC of the empty string is 0; crc32c(crc32c(0, a), b) == crc32c(0, a+b).
std::uint32_t crc32c_extend(std::uint32_t crc,
                            std::span<const std::byte> bytes) noexcept;

/// The portable table implementation; same results as crc32c_extend.
std::uint32_t crc32c_extend_table(std::uint32_t crc,
                                  std::span<const std::byte> bytes) noexcept;

inline std::uint32_t crc32c(std::span<const std::byte> bytes) noexcept {
  return crc32c_extend(0, bytes);
}

}  // namespace dedicore::storage
