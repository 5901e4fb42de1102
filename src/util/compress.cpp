#include "util/compress.hpp"

#include <zlib.h>

#include <algorithm>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/error.hpp"
#include "util/inflate_fast.hpp"

namespace mlio::util {

// A z_stream carries ~256 KB of window/state allocations made by
// deflateInit/inflateInit; both Impls initialize lazily on first use and
// afterwards only Reset, which keeps the allocations.

struct Deflater::Impl {
  z_stream zs{};
  int level = -1;  ///< level the stream was initialized with; -1 = none

  ~Impl() {
    if (level >= 0) deflateEnd(&zs);
  }
};

Deflater::Deflater() : impl_(std::make_unique<Impl>()) {}
Deflater::~Deflater() = default;
Deflater::Deflater(Deflater&&) noexcept = default;
Deflater& Deflater::operator=(Deflater&&) noexcept = default;

// Single-shot deflate/inflate hand zlib 32-bit avail_in/avail_out counts; a
// larger buffer would truncate silently.  Log frames are MBs at most, so the
// bound is a typed failure for corrupt/hostile sizes, not a real limit.
constexpr std::size_t kMaxZlibSingleShot = std::numeric_limits<uInt>::max();

void Deflater::compress(std::span<const std::byte> input, int level,
                        std::vector<std::byte>& out) {
  if (level < 1 || level > 9) throw ConfigError("zlib level must be in [1, 9]");
  if (input.size() > kMaxZlibSingleShot) {
    throw FormatError("deflate: input exceeds the 4 GiB single-shot bound");
  }
  if (impl_->level != level) {
    if (impl_->level >= 0) deflateEnd(&impl_->zs);
    impl_->zs = z_stream{};
    if (deflateInit(&impl_->zs, level) != Z_OK) {
      impl_->level = -1;
      throw FormatError("zlib deflateInit failed");
    }
    impl_->level = level;
  } else if (deflateReset(&impl_->zs) != Z_OK) {
    throw FormatError("zlib deflateReset failed");
  }

  z_stream& zs = impl_->zs;
  const uLong bound = deflateBound(&zs, static_cast<uLong>(input.size()));
  out.resize(bound);
  zs.next_in = const_cast<Bytef*>(reinterpret_cast<const Bytef*>(input.data()));
  zs.avail_in = static_cast<uInt>(input.size());
  zs.next_out = reinterpret_cast<Bytef*>(out.data());
  zs.avail_out = static_cast<uInt>(out.size());
  if (deflate(&zs, Z_FINISH) != Z_STREAM_END) {
    throw FormatError("zlib compression failed");
  }
  out.resize(zs.total_out);
}

struct Inflater::Impl {
  z_stream zs{};
  bool live = false;
  InflateScratch fast;  ///< Huffman-table storage for the kFast engine
  /// The decoded body: high-water size, never value-initialized.
  std::unique_ptr<std::byte[]> view;
  std::size_t view_capacity = 0;

  ~Impl() {
    if (live) inflateEnd(&zs);
  }

  void inflate(std::span<const std::byte> input, std::span<std::byte> out, InflateEngine engine,
               bool verify_checksum);
};

Inflater::Inflater() : impl_(std::make_unique<Impl>()) {}
Inflater::~Inflater() = default;
Inflater::Inflater(Inflater&&) noexcept = default;
Inflater& Inflater::operator=(Inflater&&) noexcept = default;

namespace {

void check_single_shot(std::span<const std::byte> input, std::size_t expected_size) {
  if (input.size() > kMaxZlibSingleShot || expected_size > kMaxZlibSingleShot) {
    // The kFast engine is size_t-clean, but a frame header claiming a >4 GiB
    // body is corrupt regardless of engine — reject before allocating it.
    throw FormatError("inflate: size exceeds the 4 GiB single-shot bound");
  }
}

}  // namespace

void Inflater::Impl::inflate(std::span<const std::byte> input, std::span<std::byte> out,
                             InflateEngine engine, bool verify_checksum) {
  if (out.empty() && input.empty()) return;
  if (engine == InflateEngine::kFast) {
    inflate_zlib(input, out, fast, verify_checksum);
    return;
  }
  if (!live) {
    if (inflateInit(&zs) != Z_OK) throw FormatError("zlib inflateInit failed");
    live = true;
  } else if (inflateReset(&zs) != Z_OK) {
    throw FormatError("zlib inflateReset failed");
  }

  zs.next_in = const_cast<Bytef*>(reinterpret_cast<const Bytef*>(input.data()));
  zs.avail_in = static_cast<uInt>(input.size());
  // inflate needs a non-empty output buffer even for an empty stream; hand
  // it a dummy byte and let the total_out check below reject real output.
  Bytef dummy;
  zs.next_out = !out.empty() ? reinterpret_cast<Bytef*>(out.data()) : &dummy;
  zs.avail_out = !out.empty() ? static_cast<uInt>(out.size()) : 1;
  const int rc = ::inflate(&zs, Z_FINISH);
  if (rc != Z_STREAM_END) throw FormatError("zlib decompression failed");
  if (zs.total_out != out.size()) throw FormatError("decompressed size mismatch");
}

std::span<const std::byte> Inflater::decompress_view(std::span<const std::byte> input,
                                                     std::size_t expected_size,
                                                     InflateEngine engine, bool verify_checksum) {
  check_single_shot(input, expected_size);
  if (expected_size > impl_->view_capacity) {
    impl_->view = std::make_unique_for_overwrite<std::byte[]>(expected_size);
    impl_->view_capacity = expected_size;
  }
  const std::span<std::byte> out(impl_->view.get(), expected_size);
  impl_->inflate(input, out, engine, verify_checksum);
  return out;
}

std::vector<std::byte> zlib_compress(std::span<const std::byte> input, int level) {
  Deflater deflater;
  std::vector<std::byte> out;
  deflater.compress(input, level, out);
  return out;
}

std::vector<std::byte> zlib_decompress(std::span<const std::byte> input,
                                       std::size_t expected_size) {
  Inflater inflater;
  const std::span<const std::byte> body = inflater.decompress_view(input, expected_size);
  return {body.begin(), body.end()};
}

namespace {

// CRC-32 by carry-less multiplication (Intel, "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", 2009), in the
// bit-reflected domain of zlib's polynomial 0xEDB88320.  Four 128-bit lanes
// fold 64 bytes per step, collapse to one lane, then to 64 bits, and a
// Barrett reduction yields the 32-bit remainder — the same value zlib's
// table CRC computes, so every stored checksum is unchanged.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MLIO_CRC32_CLMUL 1

constexpr std::size_t kClmulMinBytes = 64;  ///< one full 4-lane block

// clmul_fold(x, k) = x.lo*k.lo ^ x.hi*k.hi: carries a 128-bit lane forward by
// the distance k encodes (512 bits with k1k2, 128 with k3k4).  A lambda
// would not inherit the target attribute, hence a function.
__attribute__((target("pclmul,sse4.1"))) inline __m128i clmul_fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11));
}

inline __m128i load16(const std::byte* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds `len` bytes (a multiple of 16, at least kClmulMinBytes) into the
/// running CRC register `crc` (pre-inverted, zlib's internal form).
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_clmul(const std::byte* buf,
                                                                    std::size_t len,
                                                                    std::uint32_t crc) {
  // Intel's bit-reflected constants for 0xEDB88320: k1,k2 fold a lane
  // 512 bits, k3,k4 fold 128 bits, k5 folds 96 -> 64 bits, and (P', mu)
  // drive the Barrett reduction.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load16(buf), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load16(buf + 16);
  __m128i x3 = load16(buf + 32);
  __m128i x4 = load16(buf + 48);
  buf += 64;
  len -= 64;
  while (len >= 64) {
    x1 = _mm_xor_si128(clmul_fold(x1, k1k2), load16(buf));
    x2 = _mm_xor_si128(clmul_fold(x2, k1k2), load16(buf + 16));
    x3 = _mm_xor_si128(clmul_fold(x3, k1k2), load16(buf + 32));
    x4 = _mm_xor_si128(clmul_fold(x4, k1k2), load16(buf + 48));
    buf += 64;
    len -= 64;
  }
  x1 = _mm_xor_si128(clmul_fold(x1, k3k4), x2);
  x1 = _mm_xor_si128(clmul_fold(x1, k3k4), x3);
  x1 = _mm_xor_si128(clmul_fold(x1, k3k4), x4);
  while (len >= 16) {
    x1 = _mm_xor_si128(clmul_fold(x1, k3k4), load16(buf));
    buf += 16;
    len -= 16;
  }

  // 128 -> 64 bits, then 64 -> 32 + Barrett.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool have_clmul() {
  static const bool ok = __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return ok;
}
#endif

/// Continue the CRC `c` over `n` bytes — one zlib crc32() call's contract.
/// Inputs under 64 bytes, the sub-16-byte tail, and hosts without PCLMUL
/// take zlib's table path.
uLong crc32_update(uLong c, const std::byte* p, std::size_t n) {
#ifdef MLIO_CRC32_CLMUL
  if (n >= kClmulMinBytes && have_clmul()) {
    const std::size_t body = n & ~std::size_t{15};
    c = ~crc32_clmul(p, body, ~static_cast<std::uint32_t>(c));
    p += body;
    n -= body;
    if (n == 0) return c;
  }
#endif
  return ::crc32(c, reinterpret_cast<const Bytef*>(p), static_cast<uInt>(n));
}

}  // namespace

std::uint32_t crc32_chunked(std::span<const std::byte> input, std::size_t chunk_bytes) {
  MLIO_ASSERT(chunk_bytes >= 1);
  uLong c = ::crc32(0L, nullptr, 0);
  std::size_t off = 0;
  while (off < input.size()) {
    const std::size_t n = std::min(chunk_bytes, input.size() - off);
    c = crc32_update(c, input.data() + off, n);
    off += n;
  }
  return static_cast<std::uint32_t>(c);
}

std::uint32_t crc32(std::span<const std::byte> input) {
  // zlib's crc32 takes a 32-bit length; a single call on a >4 GiB segment
  // would silently truncate.  1 GiB chunks keep every call well inside uInt.
  return crc32_chunked(input, std::size_t{1} << 30);
}

}  // namespace mlio::util
