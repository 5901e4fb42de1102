// Fast whole-buffer zlib-stream (RFC 1950/1951) decoder.
//
// The archive cold scan is inflate-bound: zlib's streaming inflate pays for
// generality the log reader never uses (incremental input, unknown output
// size, dictionary support).  This decoder exploits what the log format
// guarantees — the whole compressed payload is in memory and the exact
// decompressed size is recorded in the frame header — to run a
// libdeflate-class fast loop: a 64-bit bit buffer with branchless refills,
// table entries that consume code and extra bits in one shift, the next
// lookup issued before the current literal or match is written, and
// word-at-a-time match copies inside hoisted bounds margins.
//
// Strictness matches the zlib path it replaces: any malformation (bad
// header, oversubscribed/incomplete code sets, invalid symbols, distances
// before the output start, truncated input, wrong output size) throws
// util::FormatError.  The optional Adler-32 verification exists for callers
// whose payload has no other integrity check; the log reader skips it
// because the frame's CRC-32 of the body is verified immediately after.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace mlio::util {

/// Huffman decode-table storage, reused across blocks and streams so the
/// dynamic table builds never allocate.  Fixed arrays sized by zlib's ENOUGH
/// bounds for the decoder's root widths (litlen root 11, distance root 8,
/// precode root 7): no code the format admits needs more.  One instance per
/// worker thread; contents are scratch.
struct InflateScratch {
  static constexpr std::size_t kLitlenEnough = 2342;  ///< zlib `enough 288 11 15`
  static constexpr std::size_t kDistEnough = 402;     ///< zlib `enough 32 8 15`
  static constexpr std::size_t kPrecodeSize = 128;    ///< 7-bit root, no sub-tables
  std::array<std::uint32_t, kLitlenEnough> litlen{};  ///< literal/length (root + subs)
  std::array<std::uint32_t, kDistEnough> dist{};      ///< distance (root + subs)
  std::array<std::uint32_t, kPrecodeSize> precode{};  ///< code-length code
};

/// Decompress the complete zlib stream `input` into `out`, which must be
/// sized to the exact expected decompressed size.  Throws FormatError if the
/// stream is malformed, truncated, or decodes to a different size.  When
/// `verify_checksum` is set the trailing Adler-32 is recomputed and checked;
/// callers that CRC the output themselves can skip it.
void inflate_zlib(std::span<const std::byte> input, std::span<std::byte> out,
                  InflateScratch& scratch, bool verify_checksum = true);

/// One-shot convenience (owns a temporary InflateScratch).
void inflate_zlib(std::span<const std::byte> input, std::span<std::byte> out,
                  bool verify_checksum = true);

}  // namespace mlio::util
