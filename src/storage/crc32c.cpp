#include "storage/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DEDICORE_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace dedicore::storage {

namespace {

// Table for the reflected Castagnoli polynomial, generated once at first
// use (constant-initialized would also work but constexpr loops of 256*8
// iterations cost compile time for no runtime benefit).
const std::array<std::uint32_t, 256>& table() noexcept {
  static const std::array<std::uint32_t, 256> t = [] {
    std::array<std::uint32_t, 256> out{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      out[i] = c;
    }
    return out;
  }();
  return t;
}

#ifdef DEDICORE_CRC32C_SSE42
// Eight bytes per `crc32` instruction, then the 0-7 byte tail one at a
// time.  Compiled for SSE4.2 regardless of the build's -march; only
// called once the CPU is known to have it.
__attribute__((target("sse4.2"))) std::uint32_t extend_sse42(
    std::uint32_t crc, std::span<const std::byte> bytes) noexcept {
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n)
    c32 = _mm_crc32_u8(c32, static_cast<std::uint8_t>(*p));
  return c32 ^ 0xFFFFFFFFu;
}
#endif

}  // namespace

std::uint32_t crc32c_extend_table(std::uint32_t crc,
                                  std::span<const std::byte> bytes) noexcept {
  const auto& t = table();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (const std::byte b : bytes)
    c = t[(c ^ static_cast<std::uint32_t>(b)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c_extend(std::uint32_t crc,
                            std::span<const std::byte> bytes) noexcept {
#ifdef DEDICORE_CRC32C_SSE42
  static const bool hardware = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  if (hardware) return extend_sse42(crc, bytes);
#endif
  return crc32c_extend_table(crc, bytes);
}

}  // namespace dedicore::storage
