// Compression codecs for the spare-time experiment (§IV.D).
//
// The paper reports that the idle time of dedicated cores was used to add
// data compression "achieving a 600% compression ratio without any
// overhead on the simulation".  CM1's 3-D fields are smooth floating-point
// grids, which compress extremely well under a delta-style transform: the
// codecs here implement that pipeline from scratch.
//
//  * "rle"    — byte-level run-length encoding (baseline);
//  * "xor"    — word-wise XOR-delta transform + zero-run encoding, the
//               right shape for smooth f32/f64 fields;
//  * "lzs"    — greedy LZ with a 64 KiB window (general data): one probe
//               per position into a table of the last position seen for
//               each 4-byte prefix, matches extended 8 bytes at a time, and
//               only the first 16 and last 8 positions of a match hashed
//               into the table, so long matches cost almost nothing;
//  * "xor+lzs"— the transform followed by LZ, the default pipeline of the
//               Damaris compression plugin.
//
// All codecs are self-contained: decompress(compress(x)) == x for any x
// (property-tested), with no dependency on external libraries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace dedicore::compress {

/// Abstract codec.  Implementations are stateless and thread-safe.
class Codec {
 public:
  virtual ~Codec() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Compresses `input`; the result is a self-contained payload (its raw
  /// size travels in the frame header added by `compress_frame`, not here).
  [[nodiscard]] virtual std::vector<std::byte> compress(
      std::span<const std::byte> input) const = 0;

  /// Inverse of compress(); `raw_size` is the exact expected output size.
  /// Throws ConfigError on corrupt payloads.
  [[nodiscard]] virtual std::vector<std::byte> decompress(
      std::span<const std::byte> payload, std::size_t raw_size) const = 0;
};

/// Numeric codec ids as stored in h5lite chunk headers.
enum class CodecId : std::uint8_t {
  kNone = 0,
  kRle = 1,
  kXorDelta = 2,
  kLzs = 3,
  kXorLzs = 4,
};

/// Codec lookup by id / name ("rle", "xor", "lzs", "xor+lzs").
/// Returns nullptr for kNone / unknown names.
const Codec* find_codec(CodecId id) noexcept;
const Codec* find_codec(std::string_view name) noexcept;
CodecId codec_id(std::string_view name);
std::string_view codec_name(CodecId id) noexcept;

/// Framed helpers: prepend a tiny header (id + raw size) so a buffer can be
/// decompressed without out-of-band metadata.  The header is untrusted:
/// decompress_frame rejects truncated/short frames, unknown codec ids, and
/// raw sizes implausible for the payload (decode bombs) with ConfigError —
/// a corrupt frame can never crash or size a huge allocation.
std::vector<std::byte> compress_frame(CodecId id, std::span<const std::byte> input);
std::vector<std::byte> decompress_frame(std::span<const std::byte> frame);

/// compression ratio as the paper quotes it: raw/compressed (600% == 6.0).
/// Degenerate cases are defined, not divided: (0, 0) is the identity
/// (1.0); (raw > 0, 0) returns the 0.0 "no ratio" sentinel.
double compression_ratio(std::size_t raw, std::size_t compressed) noexcept;

}  // namespace dedicore::compress
