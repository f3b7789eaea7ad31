// Tests for the compression codecs: round-trip properties on adversarial
// and realistic inputs, ratio expectations on smooth fields, framing, and
// the fuzz-style corruption table guarding the frame decoder (a corrupt
// frame must be rejected with ConfigError — never crash, over-read, or
// size an allocation from a hostile header).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "compress/codec.hpp"

namespace dedicore::compress {
namespace {

std::vector<std::byte> to_bytes(const std::vector<double>& values) {
  std::vector<std::byte> out(values.size() * sizeof(double));
  std::memcpy(out.data(), values.data(), out.size());
  return out;
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next_below(256));
  return out;
}

/// A smooth 1-D field resembling one pencil of a CM1 variable: a constant
/// base state with a smoothly varying active region.  Note the low
/// mantissa bits of a transcendental sequence are effectively random; it
/// is the constant/quiescent majority that makes simulation output
/// compressible, exactly as in real atmospheric fields.
std::vector<double> smooth_field(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n, 300.0);
  double phase = rng.uniform(0, 3.14);
  for (std::size_t i = 0; i < n / 5; ++i)
    out[i + n / 5] = 300.0 + 3.0 * std::sin(0.01 * static_cast<double>(i) + phase);
  return out;
}

class CodecRoundTripTest
    : public ::testing::TestWithParam<std::tuple<CodecId, std::size_t>> {};

TEST_P(CodecRoundTripTest, RandomDataRoundTrips) {
  const auto [id, size] = GetParam();
  const Codec* codec = find_codec(id);
  ASSERT_NE(codec, nullptr);
  const auto input = random_bytes(size, size ^ 0x5a5a);
  const auto packed = codec->compress(input);
  const auto restored = codec->decompress(packed, input.size());
  EXPECT_EQ(restored, input);
}

TEST_P(CodecRoundTripTest, SmoothFieldRoundTrips) {
  const auto [id, size] = GetParam();
  const Codec* codec = find_codec(id);
  ASSERT_NE(codec, nullptr);
  const auto input = to_bytes(smooth_field(size / 8 + 1, 42));
  const auto packed = codec->compress(input);
  const auto restored = codec->decompress(packed, input.size());
  EXPECT_EQ(restored, input);
}

TEST_P(CodecRoundTripTest, ConstantDataRoundTripsAndShrinks) {
  const auto [id, size] = GetParam();
  if (size == 0) GTEST_SKIP();
  const Codec* codec = find_codec(id);
  const std::vector<std::byte> input(size, std::byte{0x3C});
  const auto packed = codec->compress(input);
  EXPECT_EQ(codec->decompress(packed, size), input);
  if (size >= 64) {
    EXPECT_LT(packed.size(), input.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllSizes, CodecRoundTripTest,
    ::testing::Combine(::testing::Values(CodecId::kRle, CodecId::kXorDelta,
                                         CodecId::kLzs, CodecId::kXorLzs),
                       ::testing::Values(0, 1, 7, 8, 9, 15, 17, 63, 1024,
                                         65536, 65537, 65543, 131081)),
    [](const auto& info) {
      const CodecId id = std::get<0>(info.param);
      const std::size_t size = std::get<1>(info.param);
      const std::string base(codec_name(id));
      return (base == "xor+lzs" ? std::string("xorlzs") : base) + "_" +
             std::to_string(size);
    });

TEST(CodecTest, RepetitivePatternCompressesWithLzs) {
  std::vector<std::byte> input;
  const char* pattern = "dedicated-core-io:";
  for (int i = 0; i < 500; ++i)
    for (const char* p = pattern; *p; ++p)
      input.push_back(static_cast<std::byte>(*p));
  const Codec* lzs = find_codec(CodecId::kLzs);
  const auto packed = lzs->compress(input);
  EXPECT_LT(packed.size(), input.size() / 10);
  EXPECT_EQ(lzs->decompress(packed, input.size()), input);
}

TEST(CodecTest, SmoothFloatFieldReachesPaperLikeRatio) {
  // §IV.D reports a "600% compression ratio" on CM1 data.  A smooth field
  // under xor+lzs should land in that regime (>= 4x here).
  const auto input = to_bytes(smooth_field(64 * 1024, 7));
  const Codec* codec = find_codec(CodecId::kXorLzs);
  const auto packed = codec->compress(input);
  const double ratio = compression_ratio(input.size(), packed.size());
  EXPECT_GE(ratio, 4.0) << "got ratio " << ratio;
  EXPECT_EQ(codec->decompress(packed, input.size()), input);
}

// ---------------------------------------------------------------------------
// Stream compatibility: payloads written by an earlier encoder must decode.
// The encoder may change which matches it finds; the token grammar and the
// decoders may not, or images already on disk stop reading.
// ---------------------------------------------------------------------------

/// 2 KiB of float64: a constant base state, a staircase (each value four
/// times) and a sawtooth, all exactly representable so the input needs no
/// libm and is the same on every host.
std::vector<std::byte> golden_input() {
  std::vector<double> values(256, 300.0);
  for (int i = 64; i < 192; ++i) values[i] = 300.0 + 0.125 * ((i - 64) / 4);
  for (int i = 192; i < 224; ++i) values[i] = 301.5 + 0.25 * (i % 8);
  return to_bytes(values);
}

std::vector<std::byte> golden_payload(std::initializer_list<unsigned> bytes) {
  std::vector<std::byte> out;
  for (unsigned b : bytes) out.push_back(static_cast<std::byte>(b));
  return out;
}

// Made from golden_input() by the single-probe 3-byte-hash encoder that
// hashed every position inside a match.
const std::vector<std::byte> kGoldenLzs = golden_payload({
    0x02, 0x00, 0x09, 0x01, 0x08, 0xc0, 0x72, 0x40, 0x00, 0x09, 0x01, 0xb1,
    0x08, 0x08, 0x02, 0xc2, 0x3f, 0x08, 0x02, 0xc4, 0x3f, 0x08, 0x02, 0xc6,
    0x3f, 0x08, 0x02, 0xc8, 0x3f, 0x08, 0x02, 0xca, 0x3f, 0x08, 0x02, 0xcc,
    0x3f, 0x08, 0x02, 0xce, 0x3f, 0x08, 0x02, 0xd0, 0x3f, 0x08, 0x02, 0xd2,
    0x3f, 0x08, 0x02, 0xd4, 0x3f, 0x08, 0x02, 0xd6, 0x3f, 0x08, 0x02, 0xd8,
    0x3f, 0x08, 0x02, 0xda, 0x3f, 0x08, 0x02, 0xdc, 0x3f, 0x08, 0x02, 0xde,
    0x3f, 0x08, 0x02, 0xe0, 0x3f, 0x08, 0x02, 0xe2, 0x3f, 0x08, 0x02, 0xe4,
    0x3f, 0x08, 0x02, 0xe6, 0x3f, 0x08, 0x02, 0xe8, 0x3f, 0x08, 0x02, 0xea,
    0x3f, 0x08, 0x02, 0xec, 0x3f, 0x08, 0x02, 0xee, 0x3f, 0x08, 0x02, 0xf0,
    0x3f, 0x08, 0x02, 0xf2, 0x3f, 0x08, 0x02, 0xf4, 0x3f, 0x08, 0x02, 0xf6,
    0x3f, 0x08, 0x02, 0xf8, 0x3f, 0x08, 0x02, 0xfa, 0x3f, 0x08, 0x02, 0xfc,
    0x3f, 0x08, 0x02, 0xfe, 0x3f, 0x08, 0x11, 0xe8, 0x04, 0x11, 0xb0, 0x04,
    0x11, 0xf8, 0x03, 0x11, 0xc0, 0x03, 0x11, 0x88, 0x03, 0x11, 0xd0, 0x02,
    0x11, 0x98, 0x02, 0x11, 0xe0, 0x01, 0x81, 0x03, 0x40, 0x11, 0xe8, 0x09,
    0xe7, 0x03, 0x08});

const std::vector<std::byte> kGoldenXorLzs = golden_payload({
    0x02, 0x00, 0x09, 0x01, 0x08, 0xc0, 0x72, 0x40, 0x00, 0xb9, 0x08, 0x01,
    0x04, 0x02, 0x00, 0x3d, 0x01, 0x04, 0x06, 0x00, 0x3d, 0x01, 0x41, 0x40,
    0x04, 0x0e, 0x00, 0x3d, 0x01, 0x41, 0x40, 0x81, 0x01, 0x80, 0x01, 0x04,
    0x1e, 0x00, 0x3d, 0x01, 0x41, 0x40, 0x81, 0x01, 0x80, 0x01, 0x81, 0x02,
    0x80, 0x02, 0x04, 0x3e, 0x00, 0x3d, 0x01, 0x41, 0x40, 0x81, 0x01, 0x80,
    0x01, 0x81, 0x02, 0x80, 0x02, 0x81, 0x04, 0x80, 0x04, 0x04, 0x26, 0x00,
    0x0d, 0x01, 0x04, 0x04, 0x00, 0x0d, 0x01, 0x04, 0x3c, 0x00, 0x0d, 0x01,
    0x11, 0x10, 0x04, 0x0c, 0x00, 0x0d, 0x01, 0x11, 0x10, 0x04, 0x1c, 0x00,
    0x0d, 0x01, 0x11, 0x10, 0x04, 0x2c, 0x00, 0x0d, 0x01, 0x11, 0x10, 0xe1,
    0x02, 0x40, 0x04, 0x34, 0x00, 0xf3, 0x03, 0x01});

TEST(CodecCompatTest, EarlierEncoderPayloadsStillDecode) {
  const auto input = golden_input();
  ASSERT_EQ(input.size(), 2048u);
  EXPECT_EQ(find_codec(CodecId::kLzs)->decompress(kGoldenLzs, input.size()),
            input);
  EXPECT_EQ(
      find_codec(CodecId::kXorLzs)->decompress(kGoldenXorLzs, input.size()),
      input);
  // The current encoder's own payloads decode too and are no larger.
  for (const auto& [id, golden] :
       {std::pair{CodecId::kLzs, &kGoldenLzs},
        std::pair{CodecId::kXorLzs, &kGoldenXorLzs}}) {
    const auto packed = find_codec(id)->compress(input);
    EXPECT_EQ(find_codec(id)->decompress(packed, input.size()), input);
    EXPECT_LE(packed.size(), golden->size()) << codec_name(id);
  }
}

TEST(CodecTest, XorBeatsRleOnSmoothData) {
  const auto input = to_bytes(smooth_field(16 * 1024, 9));
  const auto rle = find_codec(CodecId::kRle)->compress(input);
  const auto xor_rle = find_codec(CodecId::kXorDelta)->compress(input);
  EXPECT_LT(xor_rle.size(), rle.size());
}

TEST(CodecTest, DecompressRejectsCorruptPayloads) {
  const Codec* lzs = find_codec(CodecId::kLzs);
  const auto input = random_bytes(1024, 3);
  auto packed = lzs->compress(input);
  // Wrong raw size must be detected.
  EXPECT_THROW((void)lzs->decompress(packed, input.size() + 1), ConfigError);
  // Truncation must be detected.
  packed.resize(packed.size() / 2);
  EXPECT_THROW((void)lzs->decompress(packed, input.size()), ConfigError);
}

TEST(CodecTest, RleRejectsBadDistanceEncoding) {
  // A match token with distance 0 is never produced by the compressor.
  std::vector<std::byte> bogus{std::byte{9}, std::byte{0}};  // match len 4, dist 0
  EXPECT_THROW((void)find_codec(CodecId::kLzs)->decompress(bogus, 4), ConfigError);
}

TEST(CodecTest, RegistryLookups) {
  EXPECT_EQ(find_codec("rle")->name(), "rle");
  EXPECT_EQ(find_codec("xor")->name(), "xor");
  EXPECT_EQ(find_codec("lzs")->name(), "lzs");
  EXPECT_EQ(find_codec("xor+lzs")->name(), "xor+lzs");
  EXPECT_EQ(find_codec("zstd"), nullptr);
  EXPECT_EQ(find_codec(CodecId::kNone), nullptr);
  EXPECT_EQ(codec_id("none"), CodecId::kNone);
  EXPECT_EQ(codec_id(""), CodecId::kNone);
  EXPECT_EQ(codec_id("xor+lzs"), CodecId::kXorLzs);
  EXPECT_THROW(codec_id("bogus"), ConfigError);
  EXPECT_EQ(codec_name(CodecId::kNone), "none");
}

TEST(CodecTest, FrameRoundTripsAllCodecs) {
  const auto input = to_bytes(smooth_field(4096, 11));
  for (CodecId id : {CodecId::kNone, CodecId::kRle, CodecId::kXorDelta,
                     CodecId::kLzs, CodecId::kXorLzs}) {
    const auto frame = compress_frame(id, input);
    EXPECT_EQ(decompress_frame(frame), input) << "codec " << codec_name(id);
  }
}

TEST(CodecTest, FrameFallsBackToStoredOnIncompressibleData) {
  const auto input = random_bytes(4096, 17);
  const auto frame = compress_frame(CodecId::kXorLzs, input);
  // Never grows more than the 5-byte header.
  EXPECT_LE(frame.size(), input.size() + 5);
  EXPECT_EQ(decompress_frame(frame), input);
}

TEST(CodecTest, FrameRejectsTruncatedHeader) {
  std::vector<std::byte> tiny{std::byte{1}, std::byte{2}};
  EXPECT_THROW(decompress_frame(tiny), ConfigError);
}

TEST(CodecTest, CompressionRatioHelper) {
  EXPECT_DOUBLE_EQ(compression_ratio(600, 100), 6.0);
  // Degenerate cases are defined, not divided: zero compressed bytes for
  // a nonzero input is the 0.0 "no ratio" sentinel; the empty input
  // stored in zero bytes is the identity.
  EXPECT_DOUBLE_EQ(compression_ratio(100, 0), 0.0);
  EXPECT_DOUBLE_EQ(compression_ratio(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(compression_ratio(0, 100), 0.0);
}

TEST(CodecTest, EmptyInputProducesEmptyOutput) {
  for (CodecId id : {CodecId::kRle, CodecId::kXorDelta, CodecId::kLzs,
                     CodecId::kXorLzs}) {
    const Codec* codec = find_codec(id);
    const auto packed = codec->compress({});
    EXPECT_TRUE(codec->decompress(packed, 0).empty());
  }
}

// ---------------------------------------------------------------------------
// Fuzz-style frame corruption table (mirrors h5lite_test's: every mutation
// of a valid frame must either decode cleanly or throw ConfigError)
// ---------------------------------------------------------------------------

void put_frame_u32(std::vector<std::byte>& frame, std::size_t at,
                   std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    frame[at + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((v >> (8 * i)) & 0xFF);
}

/// A frame over compressible data, so every codec id survives the
/// stored-fallback and the mutations hit real codec payloads.
std::vector<std::byte> corpus_frame(CodecId id) {
  return compress_frame(id, to_bytes(smooth_field(4096, 23)));
}

void expect_rejected_or_clean(const std::vector<std::byte>& frame) {
  try {
    const auto out = decompress_frame(frame);
    // A harmless mutation decodes to *something* bounded by the header's
    // (plausibility-capped) raw size; reaching here without a crash or a
    // giant allocation is the audited outcome.
    EXPECT_LE(out.size(),
              std::max<std::size_t>(64u << 20, frame.size() << 10));
  } catch (const ConfigError&) {
    // rejected with a precise error: the audited outcome
  }
}

struct FrameCorruptionCase {
  const char* name;
  void (*mutate)(std::vector<std::byte>&);
};

const FrameCorruptionCase kFrameCorruptionTable[] = {
    {"truncate_to_empty", [](std::vector<std::byte>& f) { f.clear(); }},
    {"truncate_inside_header", [](std::vector<std::byte>& f) { f.resize(3); }},
    {"truncate_to_header_only", [](std::vector<std::byte>& f) { f.resize(5); }},
    {"truncate_body_half",
     [](std::vector<std::byte>& f) { f.resize(5 + (f.size() - 5) / 2); }},
    {"raw_size_plus_one",
     [](std::vector<std::byte>& f) {
       put_frame_u32(f, 1, static_cast<std::uint32_t>(4096 * 8 + 1));
     }},
    {"raw_size_zero", [](std::vector<std::byte>& f) { put_frame_u32(f, 1, 0); }},
    // The decode bomb: a 4 GiB raw size over a few-KiB payload must be
    // rejected by the plausibility cap, not attempted.
    {"raw_size_decode_bomb",
     [](std::vector<std::byte>& f) { put_frame_u32(f, 1, 0xFFFFFFFFu); }},
    {"unknown_codec_id",
     [](std::vector<std::byte>& f) { f[0] = std::byte{0x7F}; }},
    {"codec_id_smashed_to_none",
     [](std::vector<std::byte>& f) { f[0] = std::byte{0}; }},
    {"first_body_byte_flipped",
     [](std::vector<std::byte>& f) {
       if (f.size() > 5) f[5] ^= std::byte{0xFF};
     }},
    {"last_body_byte_flipped",
     [](std::vector<std::byte>& f) { f.back() ^= std::byte{0xFF}; }},
};

class FrameCorruptionTest
    : public ::testing::TestWithParam<std::tuple<CodecId, FrameCorruptionCase>> {
};

TEST_P(FrameCorruptionTest, RejectedOrHarmless) {
  const auto [id, corruption] = GetParam();
  std::vector<std::byte> frame = corpus_frame(id);
  corruption.mutate(frame);
  expect_rejected_or_clean(frame);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, FrameCorruptionTest,
    ::testing::Combine(::testing::Values(CodecId::kNone, CodecId::kRle,
                                         CodecId::kXorDelta, CodecId::kLzs,
                                         CodecId::kXorLzs),
                       ::testing::ValuesIn(kFrameCorruptionTable)),
    [](const auto& info) {
      const std::string base(codec_name(std::get<0>(info.param)));
      return (base == "xor+lzs" ? std::string("xorlzs") : base) + "_" +
             std::get<1>(info.param).name;
    });

TEST(FrameCorruptionTest, EveryTruncationLengthIsRejectedOrClean) {
  const auto frame = corpus_frame(CodecId::kXorLzs);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    std::vector<std::byte> cut(frame.begin(),
                               frame.begin() + static_cast<std::ptrdiff_t>(len));
    expect_rejected_or_clean(cut);
  }
}

TEST(FrameCorruptionTest, RandomByteFlipsNeverEscapeConfigError) {
  const auto frame = corpus_frame(CodecId::kLzs);
  Rng rng(0xF00D);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::byte> mutated = frame;
    const std::size_t at = rng.next_below(mutated.size());
    mutated[at] ^= static_cast<std::byte>(1u << rng.next_below(8));
    expect_rejected_or_clean(mutated);
  }
}

TEST(FrameCorruptionTest, DecodeBombIsRejectedBeforeAllocating) {
  // Hand-crafted hostile frame: RLE codec id, a 4 GiB raw size, and a
  // payload whose single token claims an enormous repeat run.  Both
  // guards must hold: the frame-level plausibility cap, and (for the
  // direct codec API, where h5lite pre-validates sizes) the
  // check-before-materialize token bound.
  std::vector<std::byte> frame{std::byte{1}};  // kRle
  for (int i = 0; i < 4; ++i) frame.push_back(std::byte{0xFF});  // raw = 4 GiB-1
  // varint control for a repeat run of ~2^40 bytes (odd control).
  const std::uint64_t control = ((1ull << 40) * 2) + 1;
  std::uint64_t v = control;
  while (v >= 0x80) {
    frame.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  frame.push_back(static_cast<std::byte>(v));
  frame.push_back(std::byte{0x42});  // the byte to repeat
  EXPECT_THROW((void)decompress_frame(frame), ConfigError);

  // Same hostile token straight through the codec API with a small
  // declared raw size: the token bound must fire before any insert.
  const std::span<const std::byte> body(frame.data() + 5, frame.size() - 5);
  EXPECT_THROW((void)find_codec(CodecId::kRle)->decompress(body, 64),
               ConfigError);
}

TEST(FrameCorruptionTest, EmptyCodecBodyWithNonzeroRawSizeRejected) {
  std::vector<std::byte> frame{std::byte{3}};  // kLzs
  frame.push_back(std::byte{16});              // raw_size = 16
  frame.push_back(std::byte{0});
  frame.push_back(std::byte{0});
  frame.push_back(std::byte{0});
  EXPECT_THROW((void)decompress_frame(frame), ConfigError);
}

// The emit path runs codecs concurrently on server workers (one EmitStage
// per node, many servers): the stateless-codec claim is now load-bearing
// and runs under TSan in CI.
TEST(CodecTest, CodecsAreThreadSafeUnderConcurrentUse) {
  const auto smooth = to_bytes(smooth_field(16 * 1024, 31));
  const auto noisy = random_bytes(16 * 1024, 37);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const auto& input = (t % 2 == 0) ? smooth : noisy;
      for (CodecId id : {CodecId::kRle, CodecId::kXorDelta, CodecId::kLzs,
                         CodecId::kXorLzs}) {
        const Codec* codec = find_codec(id);
        const auto packed = codec->compress(input);
        ASSERT_EQ(codec->decompress(packed, input.size()), input);
        const auto frame = compress_frame(id, input);
        ASSERT_EQ(decompress_frame(frame), input);
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

}  // namespace
}  // namespace dedicore::compress
