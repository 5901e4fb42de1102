// zlib (DEFLATE) helpers used by the Darshan log format.
//
// The free functions are one-shot conveniences.  Deflater / Inflater own a
// reusable z_stream plus its internal window state, so hot loops (the
// pipeline's log roundtrip path serializes millions of logs) pay the zlib
// allocation cost once per worker instead of once per log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace mlio::util {

/// Reusable DEFLATE stream.  compress() resets the stream, so one instance
/// serves any number of independent buffers; not thread-safe.
class Deflater {
 public:
  Deflater();
  ~Deflater();
  Deflater(Deflater&&) noexcept;
  Deflater& operator=(Deflater&&) noexcept;

  /// Deflate `input` at `level` (1..9) into `out` (cleared first; capacity is
  /// reused).  Throws ConfigError on a bad level, FormatError on failure.
  void compress(std::span<const std::byte> input, int level, std::vector<std::byte>& out);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Which decoder backs Inflater::decompress_view.  kFast is the whole-buffer
/// decoder in util/inflate_fast.hpp (same strictness, ~2x throughput, skips
/// the Adler-32 when the caller CRCs the output itself); kZlib is the
/// original streaming zlib path, kept as the honest seed-compat baseline.
enum class InflateEngine {
  kFast,
  kZlib,
};

/// Reusable INFLATE stream; the mirror of Deflater.
class Inflater {
 public:
  Inflater();
  ~Inflater();
  Inflater(Inflater&&) noexcept;
  Inflater& operator=(Inflater&&) noexcept;

  /// Inflate `input` into storage the Inflater owns and return a view of
  /// exactly `expected_size` (the decompressed size recorded in the frame
  /// header), valid until the next call.  The storage keeps its high-water
  /// size and its growth is never zero-filled (the decoder writes every byte
  /// it returns), so a reader that decodes frame after frame pays neither a
  /// fill nor a reallocation per frame.  Throws FormatError on corrupt data,
  /// a size mismatch or a size past the 4 GiB bound (checked before any
  /// allocation).  With kFast the stream's Adler-32 trailer is verified only
  /// when `verify_checksum` is set; callers that CRC the output afterwards
  /// skip the redundant pass.  The kZlib engine always verifies (that is
  /// zlib's contract).
  std::span<const std::byte> decompress_view(std::span<const std::byte> input,
                                             std::size_t expected_size,
                                             InflateEngine engine = InflateEngine::kFast,
                                             bool verify_checksum = true);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Deflate `input` at the given zlib level (1..9; 6 is the format default).
std::vector<std::byte> zlib_compress(std::span<const std::byte> input, int level = 6);

/// Inflate `input`; `expected_size` is the exact decompressed size recorded
/// in the log header.  Throws FormatError on corrupt data or size mismatch.
std::vector<std::byte> zlib_decompress(std::span<const std::byte> input,
                                       std::size_t expected_size);

/// CRC-32 (zlib polynomial) of `input`.  Safe for buffers past zlib's 32-bit
/// single-call bound: the input is fed in chunks (segment files on the scale
/// path can exceed 4 GiB, and a truncated-length CRC would silently pass the
/// wrong checksum into the manifest).
std::uint32_t crc32(std::span<const std::byte> input);

/// Chunked CRC seam: identical result to crc32() for any `chunk_bytes >= 1`.
/// Exposed so tests can prove chunking invariance without a 4 GiB buffer.
std::uint32_t crc32_chunked(std::span<const std::byte> input, std::size_t chunk_bytes);

}  // namespace mlio::util
