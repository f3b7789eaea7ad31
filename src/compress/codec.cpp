#include "compress/codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <new>
#include <stdexcept>

#include "common/status.hpp"

namespace dedicore::compress {

namespace {

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
}

std::uint32_t get_u32(std::span<const std::byte> in, std::size_t at) {
  if (at + 4 > in.size()) throw ConfigError("codec: truncated u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(in[at + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

void put_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

std::uint64_t get_varint(std::span<const std::byte> in, std::size_t& at) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (at >= in.size()) throw ConfigError("codec: truncated varint");
    const auto b = std::to_integer<std::uint8_t>(in[at++]);
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) throw ConfigError("codec: varint overflow");
  }
}

/// Reserve for a decompress output without trusting `raw_size` with a
/// giant up-front allocation: a corrupt header must cost at most this much
/// before the per-token bounds checks reject it.  Legitimate outputs
/// larger than the clamp simply grow geometrically past it.
constexpr std::size_t kReserveClamp = std::size_t{1} << 20;

void bounded_reserve(std::vector<std::byte>& out, std::size_t raw_size) {
  out.reserve(std::min(raw_size, kReserveClamp));
}

/// Bounds check shared by the token decoders: every literal/run/match must
/// fit in the declared raw size *before* any byte is materialized, so a
/// hostile token length can never trigger a huge allocation (the pre-PR
/// code inserted first and compared after).
void check_output_fits(const std::vector<std::byte>& out, std::uint64_t n,
                       std::size_t raw_size, const char* what) {
  if (n > raw_size - out.size())  // out.size() <= raw_size is invariant
    throw ConfigError(std::string(what) + ": output exceeds raw size");
}

// ---------------------------------------------------------------------------
// RLE: [count varint][byte] pairs for runs >= 4 or literal runs
// Format: sequence of tokens. Token = control varint C.
//   C even  -> literal run of C/2 bytes follows.
//   C odd   -> run of (C-1)/2 copies of the next single byte.
// ---------------------------------------------------------------------------

class RleCodec final : public Codec {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "rle"; }

  [[nodiscard]] std::vector<std::byte> compress(
      std::span<const std::byte> in) const override {
    std::vector<std::byte> out;
    out.reserve(in.size() / 2 + 16);
    std::size_t i = 0;
    std::size_t literal_start = 0;
    auto flush_literals = [&](std::size_t end) {
      while (literal_start < end) {
        const std::size_t n = end - literal_start;
        put_varint(out, static_cast<std::uint64_t>(n) * 2);
        out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(literal_start),
                   in.begin() + static_cast<std::ptrdiff_t>(literal_start + n));
        literal_start += n;
      }
    };
    while (i < in.size()) {
      std::size_t run = 1;
      while (i + run < in.size() && in[i + run] == in[i]) ++run;
      if (run >= 4) {
        flush_literals(i);
        put_varint(out, static_cast<std::uint64_t>(run) * 2 + 1);
        out.push_back(in[i]);
        i += run;
        literal_start = i;
      } else {
        i += run;
      }
    }
    flush_literals(in.size());
    return out;
  }

  [[nodiscard]] std::vector<std::byte> decompress(
      std::span<const std::byte> in, std::size_t raw_size) const override {
    std::vector<std::byte> out;
    bounded_reserve(out, raw_size);
    std::size_t at = 0;
    while (at < in.size()) {
      const std::uint64_t control = get_varint(in, at);
      if (control % 2 == 0) {
        const std::uint64_t n = control / 2;
        check_output_fits(out, n, raw_size, "rle");
        if (n > in.size() - at) throw ConfigError("rle: truncated literal run");
        out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(at),
                   in.begin() + static_cast<std::ptrdiff_t>(at + n));
        at += static_cast<std::size_t>(n);
      } else {
        const std::uint64_t n = (control - 1) / 2;
        check_output_fits(out, n, raw_size, "rle");
        if (at >= in.size()) throw ConfigError("rle: truncated run byte");
        out.insert(out.end(), static_cast<std::size_t>(n), in[at]);
        ++at;
      }
    }
    if (out.size() != raw_size) throw ConfigError("rle: output size mismatch");
    return out;
  }
};

// ---------------------------------------------------------------------------
// XOR-delta: XOR each 8-byte word with its predecessor, then RLE the result
// (smooth float fields produce long zero runs in the XORed stream).
// ---------------------------------------------------------------------------

class XorDeltaCodec final : public Codec {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "xor"; }

  static std::vector<std::byte> transform(std::span<const std::byte> in) {
    std::vector<std::byte> out(in.size());
    std::uint64_t prev = 0;
    std::size_t i = 0;
    for (; i + 8 <= in.size(); i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, in.data() + i, 8);
      const std::uint64_t x = word ^ prev;
      std::memcpy(out.data() + i, &x, 8);
      prev = word;
    }
    for (; i < in.size(); ++i) out[i] = in[i];  // trailing bytes unchanged
    return out;
  }

  static std::vector<std::byte> untransform(std::span<const std::byte> in) {
    std::vector<std::byte> out(in.size());
    std::uint64_t prev = 0;
    std::size_t i = 0;
    for (; i + 8 <= in.size(); i += 8) {
      std::uint64_t x = 0;
      std::memcpy(&x, in.data() + i, 8);
      const std::uint64_t word = x ^ prev;
      std::memcpy(out.data() + i, &word, 8);
      prev = word;
    }
    for (; i < in.size(); ++i) out[i] = in[i];
    return out;
  }

  [[nodiscard]] std::vector<std::byte> compress(
      std::span<const std::byte> in) const override {
    return rle_.compress(transform(in));
  }

  [[nodiscard]] std::vector<std::byte> decompress(
      std::span<const std::byte> payload, std::size_t raw_size) const override {
    return untransform(rle_.decompress(payload, raw_size));
  }

 private:
  RleCodec rle_;
};

// ---------------------------------------------------------------------------
// LZS: greedy LZ77 with a single-probe hash table of 4-byte prefixes and a
// 64 KiB window.
// Token stream: control varint C.
//   C even -> literal run of C/2 bytes.
//   C odd  -> match: length = (C-1)/2 (>= 4), followed by varint distance.
// ---------------------------------------------------------------------------

class LzsCodec final : public Codec {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "lzs"; }

  static constexpr std::size_t kWindow = 64 * 1024;
  static constexpr std::size_t kMinMatch = 4;
  static constexpr std::size_t kMaxMatch = 1 << 16;
  static constexpr std::size_t kHashBits = 15;
  /// Positions at the start and at the end of a match whose hashes are
  /// inserted.  Matches run up to 64 KiB over the zero words of an
  /// XOR-delta stream, and hashing every position inside them cost more
  /// than the rest of the encoder.  The last few positions are the nearest
  /// reference for the data that follows; without them a short-period
  /// input (a staircase of repeated values) encodes about a third larger.
  static constexpr std::size_t kHeadInserts = 16;
  static constexpr std::size_t kTailInserts = 8;

  [[nodiscard]] std::vector<std::byte> compress(
      std::span<const std::byte> in) const override {
    std::vector<std::byte> out;
    out.reserve(in.size() / 2 + 16);
    std::vector<std::uint32_t> head(1u << kHashBits, 0xFFFFFFFFu);
    const std::byte* const p = in.data();

    auto hash4 = [p](std::size_t pos) -> std::uint32_t {
      std::uint32_t v = 0;
      std::memcpy(&v, p + pos, 4);
      return (v * 2654435761u) >> (32 - kHashBits);
    };
    // Length of the common prefix of p[a..] and p[b..], at most `limit`:
    // compared a word at a time, the first differing byte found from the
    // XOR of the two words.
    auto common_prefix = [p](std::size_t a, std::size_t b,
                             std::size_t limit) -> std::size_t {
      std::size_t n = 0;
      for (; n + 8 <= limit; n += 8) {
        std::uint64_t x = 0, y = 0;
        std::memcpy(&x, p + a + n, 8);
        std::memcpy(&y, p + b + n, 8);
        if (const std::uint64_t diff = x ^ y; diff != 0) {
          if constexpr (std::endian::native == std::endian::little)
            return n + static_cast<std::size_t>(std::countr_zero(diff)) / 8;
          else
            return n + static_cast<std::size_t>(std::countl_zero(diff)) / 8;
        }
      }
      while (n < limit && p[a + n] == p[b + n]) ++n;
      return n;
    };

    std::size_t i = 0;
    std::size_t literal_start = 0;
    auto flush_literals = [&](std::size_t end) {
      if (literal_start >= end) return;
      const std::size_t n = end - literal_start;
      put_varint(out, static_cast<std::uint64_t>(n) * 2);
      out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(literal_start),
                 in.begin() + static_cast<std::ptrdiff_t>(end));
      literal_start = end;
    };

    while (i + kMinMatch <= in.size()) {
      const std::uint32_t h = hash4(i);
      const std::uint32_t candidate = head[h];
      head[h] = static_cast<std::uint32_t>(i);

      std::size_t match_len = 0;
      if (candidate != 0xFFFFFFFFu && i - candidate <= kWindow)
        match_len = common_prefix(candidate, i, std::min(in.size() - i, kMaxMatch));
      if (match_len >= kMinMatch) {
        flush_literals(i);
        put_varint(out, static_cast<std::uint64_t>(match_len) * 2 + 1);
        put_varint(out, static_cast<std::uint64_t>(i - candidate));
        // Insert hashes inside the match so later data can reference it.
        const std::size_t end = std::min(i + match_len, in.size() - kMinMatch + 1);
        const std::size_t head_end = std::min(end, i + kHeadInserts);
        for (std::size_t j = i + 1; j < head_end; ++j)
          head[hash4(j)] = static_cast<std::uint32_t>(j);
        for (std::size_t j = std::max(head_end, end - std::min(end, kTailInserts));
             j < end; ++j)
          head[hash4(j)] = static_cast<std::uint32_t>(j);
        i += match_len;
        literal_start = i;
      } else {
        ++i;
      }
    }
    flush_literals(in.size());
    return out;
  }

  [[nodiscard]] std::vector<std::byte> decompress(
      std::span<const std::byte> in, std::size_t raw_size) const override {
    std::vector<std::byte> out;
    bounded_reserve(out, raw_size);
    std::size_t at = 0;
    while (at < in.size()) {
      const std::uint64_t control = get_varint(in, at);
      if (control % 2 == 0) {
        const std::uint64_t n = control / 2;
        check_output_fits(out, n, raw_size, "lzs");
        if (n > in.size() - at) throw ConfigError("lzs: truncated literals");
        out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(at),
                   in.begin() + static_cast<std::ptrdiff_t>(at + n));
        at += static_cast<std::size_t>(n);
      } else {
        const auto len = static_cast<std::size_t>((control - 1) / 2);
        check_output_fits(out, len, raw_size, "lzs");
        const auto dist = static_cast<std::size_t>(get_varint(in, at));
        if (dist == 0 || dist > out.size()) throw ConfigError("lzs: bad distance");
        const std::size_t start = out.size() - dist;
        for (std::size_t j = 0; j < len; ++j) out.push_back(out[start + j]);
      }
    }
    if (out.size() != raw_size) throw ConfigError("lzs: output size mismatch");
    return out;
  }
};

/// XOR-delta transform followed by LZ — the Damaris plugin default.
class XorLzsCodec final : public Codec {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "xor+lzs"; }

  [[nodiscard]] std::vector<std::byte> compress(
      std::span<const std::byte> in) const override {
    return lzs_.compress(XorDeltaCodec::transform(in));
  }

  [[nodiscard]] std::vector<std::byte> decompress(
      std::span<const std::byte> payload, std::size_t raw_size) const override {
    return XorDeltaCodec::untransform(lzs_.decompress(payload, raw_size));
  }

 private:
  LzsCodec lzs_;
};

const RleCodec g_rle;
const XorDeltaCodec g_xor;
const LzsCodec g_lzs;
const XorLzsCodec g_xor_lzs;

}  // namespace

const Codec* find_codec(CodecId id) noexcept {
  switch (id) {
    case CodecId::kNone: return nullptr;
    case CodecId::kRle: return &g_rle;
    case CodecId::kXorDelta: return &g_xor;
    case CodecId::kLzs: return &g_lzs;
    case CodecId::kXorLzs: return &g_xor_lzs;
  }
  return nullptr;
}

const Codec* find_codec(std::string_view name) noexcept {
  if (name == "rle") return &g_rle;
  if (name == "xor") return &g_xor;
  if (name == "lzs") return &g_lzs;
  if (name == "xor+lzs") return &g_xor_lzs;
  return nullptr;
}

CodecId codec_id(std::string_view name) {
  if (name.empty() || name == "none") return CodecId::kNone;
  if (name == "rle") return CodecId::kRle;
  if (name == "xor") return CodecId::kXorDelta;
  if (name == "lzs") return CodecId::kLzs;
  if (name == "xor+lzs") return CodecId::kXorLzs;
  throw ConfigError("unknown codec '" + std::string(name) + "'");
}

std::string_view codec_name(CodecId id) noexcept {
  const Codec* c = find_codec(id);
  return c ? c->name() : "none";
}

std::vector<std::byte> compress_frame(CodecId id, std::span<const std::byte> input) {
  std::vector<std::byte> frame;
  frame.push_back(static_cast<std::byte>(id));
  put_u32(frame, static_cast<std::uint32_t>(input.size()));
  if (const Codec* codec = find_codec(id)) {
    std::vector<std::byte> body = codec->compress(input);
    // Fall back to stored when compression does not pay (incompressible
    // data must never grow more than the 5-byte header).
    if (body.size() < input.size()) {
      frame.insert(frame.end(), body.begin(), body.end());
      return frame;
    }
  }
  frame[0] = static_cast<std::byte>(CodecId::kNone);
  frame.insert(frame.end(), input.begin(), input.end());
  return frame;
}

std::vector<std::byte> decompress_frame(std::span<const std::byte> frame) {
  if (frame.size() < 5) throw ConfigError("decompress_frame: truncated header");
  const auto id = static_cast<CodecId>(std::to_integer<std::uint8_t>(frame[0]));
  const std::size_t raw_size = get_u32(frame, 1);
  const auto body = frame.subspan(5);
  if (id == CodecId::kNone) {
    if (body.size() != raw_size) throw ConfigError("decompress_frame: stored size mismatch");
    return {body.begin(), body.end()};
  }
  const Codec* codec = find_codec(id);
  if (codec == nullptr) throw ConfigError("decompress_frame: unknown codec id");
  if (body.empty() && raw_size > 0)
    throw ConfigError("decompress_frame: empty payload with nonzero raw size");
  // Plausibility guard against decode bombs (same shape as h5lite's
  // chunk parser): no exact bound on a valid payload's expansion exists,
  // but a header claiming more than ~1000x the payload — never less than
  // 64 MiB — is corruption, not data.  The header is untrusted input; it
  // must not size an allocation by itself.
  const std::uint64_t cap = std::max<std::uint64_t>(
      64ull << 20, static_cast<std::uint64_t>(body.size()) << 10);
  if (raw_size > cap)
    throw ConfigError("decompress_frame: raw size implausible for payload");
  try {
    return codec->decompress(body, raw_size);
  } catch (const std::bad_alloc&) {
    throw ConfigError("decompress_frame: implausible allocation rejected");
  } catch (const std::length_error&) {
    throw ConfigError("decompress_frame: implausible allocation rejected");
  }
}

double compression_ratio(std::size_t raw, std::size_t compressed) noexcept {
  // Degenerate cases, defined rather than divided: an empty input stored
  // in zero bytes is the identity (1.0); a nonzero input claimed to fit
  // in zero bytes has no meaningful ratio — 0.0 is the "no ratio"
  // sentinel (it can never be mistaken for a real ratio, which is > 0).
  if (compressed == 0) return raw == 0 ? 1.0 : 0.0;
  return static_cast<double>(raw) / static_cast<double>(compressed);
}

}  // namespace dedicore::compress
