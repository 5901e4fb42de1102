#include "util/compress.hpp"

#include <gtest/gtest.h>
#include <zlib.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace mlio::util {
namespace {

std::vector<std::byte> to_bytes(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

TEST(Compress, Roundtrip) {
  const auto input = to_bytes(std::string(10000, 'x') + "tail");
  const auto packed = zlib_compress(input);
  EXPECT_LT(packed.size(), input.size());
  const auto back = zlib_decompress(packed, input.size());
  EXPECT_EQ(back, input);
}

TEST(Compress, RoundtripIncompressibleData) {
  Rng rng(1);
  std::vector<std::byte> input(4096);
  for (auto& b : input) b = static_cast<std::byte>(rng.next() & 0xff);
  const auto packed = zlib_compress(input, 9);
  const auto back = zlib_decompress(packed, input.size());
  EXPECT_EQ(back, input);
}

TEST(Compress, EmptyInput) {
  const std::vector<std::byte> empty;
  const auto packed = zlib_compress(empty);
  EXPECT_TRUE(zlib_decompress(packed, 0).empty());
}

TEST(Compress, CorruptDataThrows) {
  auto packed = zlib_compress(to_bytes("hello world hello world"));
  packed[packed.size() / 2] ^= std::byte{0xff};
  EXPECT_THROW(zlib_decompress(packed, 23), FormatError);
}

TEST(Compress, WrongExpectedSizeThrows) {
  const auto packed = zlib_compress(to_bytes("abcdef"));
  EXPECT_THROW(zlib_decompress(packed, 3), FormatError);
}

// decompress_view returns exactly the frame's bytes from a buffer that only
// grows, for both engines, and rejects a wrong or >4 GiB expected size.
TEST(Compress, InflaterViewIsExactAcrossGrowAndShrink) {
  Inflater inflater;
  Rng rng(3);
  for (const InflateEngine engine : {InflateEngine::kFast, InflateEngine::kZlib}) {
    for (const std::size_t n : {std::size_t{5000}, std::size_t{40}, std::size_t{70000},
                                std::size_t{0}, std::size_t{300}}) {
      std::vector<std::byte> input(n);
      for (auto& b : input) b = static_cast<std::byte>(rng.next() % 7);
      const auto packed = zlib_compress(input);
      const std::span<const std::byte> view = inflater.decompress_view(packed, n, engine);
      ASSERT_EQ(view.size(), n);
      EXPECT_TRUE(std::equal(view.begin(), view.end(), input.begin(), input.end())) << n;
      if (n != 0) {
        EXPECT_THROW(inflater.decompress_view(packed, n - 1, engine), FormatError);
      }
      EXPECT_THROW(inflater.decompress_view(packed, n + 1, engine), FormatError);
    }
  }
  // A >4 GiB claim is refused before anything is allocated for it.
  const auto packed = zlib_compress(to_bytes("abc"));
  EXPECT_THROW(inflater.decompress_view(packed, std::size_t{5} << 30), FormatError);
}

TEST(Compress, InvalidLevelThrows) {
  EXPECT_THROW(zlib_compress(to_bytes("x"), 0), ConfigError);
  EXPECT_THROW(zlib_compress(to_bytes("x"), 10), ConfigError);
}

TEST(Compress, Crc32KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

std::uint32_t zlib_crc32(std::span<const std::byte> input) {
  return static_cast<std::uint32_t>(
      ::crc32(0L, reinterpret_cast<const Bytef*>(input.data()), static_cast<uInt>(input.size())));
}

// crc32 may take a carry-less-multiply path; its values must be zlib's for
// every length across the 64-byte dispatch threshold and the 16-byte fold
// granularity, at every load alignment.
TEST(Compress, Crc32MatchesZlibAtEveryLengthAndAlignment) {
  Rng rng(11);
  std::vector<std::byte> buf(1100 + 16);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next() & 0xff);
  for (std::size_t align = 0; align < 16; ++align) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::span<const std::byte> in(buf.data() + align, len);
      ASSERT_EQ(crc32(in), zlib_crc32(in)) << "len=" << len << " align=" << align;
    }
  }
}

TEST(Compress, Crc32MatchesZlibOnConstantBuffers) {
  for (const std::byte fill : {std::byte{0x00}, std::byte{0xff}}) {
    const std::vector<std::byte> buf(64 * 1024, fill);
    EXPECT_EQ(crc32(buf), zlib_crc32(buf)) << "fill=" << static_cast<int>(fill);
  }
}

TEST(Compress, Crc32ChunkedChainsLikeZlib) {
  Rng rng(12);
  std::vector<std::byte> buf(1024 * 1024);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next() & 0xff);
  const std::uint32_t want = zlib_crc32(buf);
  const std::size_t chunks[] = {1, 15, 16, 63, 64, 65, 4096};
  for (const std::size_t chunk : chunks) {
    EXPECT_EQ(crc32_chunked(buf, chunk), want) << "chunk=" << chunk;
  }
  EXPECT_EQ(crc32(buf), want);
}

}  // namespace
}  // namespace mlio::util
