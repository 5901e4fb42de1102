#include "util/inflate_fast.hpp"

#include <zlib.h>

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/error.hpp"

namespace mlio::util {
namespace {

// ---------------------------------------------------------------------------
// Decode-table entries.  One u32 per slot:
//
//   [0:7]   bits to consume: code length + extra bits (for a sub-table
//           pointer: the root bits)
//   [8:11]  code length alone (for a pointer: the sub-table's index bits)
//   [13]    kEndOfBlock
//   [14]    kSubtable
//   [15]    kExceptional — end of block, sub-table pointer or invalid code
//   [16:30] value: literal byte / length base / distance base /
//           precode symbol / sub-table offset
//   [31]    kLiteral (litlen table only)
//
// `bitsleft -= entry` consumes code and extra bits in one subtraction (only
// the low byte of `bitsleft` is meaningful), and the extra bits come out of
// a copy of the bit buffer taken before the shift:
// `(saved & mask(entry[0:7])) >> entry[8:11]`.  An entry with only
// kExceptional set is an invalid code; it appears only in root tables (the
// unused half of a single 1-bit code, an empty distance code, the fixed
// code's litlen 286/287 and distance 30/31), never in a sub-table.

using u8 = std::uint8_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

constexpr u32 kLiteral = 0x80000000u;
constexpr u32 kExceptional = 0x8000u;
constexpr u32 kSubtable = 0x4000u;
constexpr u32 kEndOfBlock = 0x2000u;
constexpr u32 kInvalid = kExceptional;

constexpr unsigned kMaxCodeBits = 15;
constexpr unsigned kLitlenTableBits = 11;  // root; shrinks to the longest code
constexpr unsigned kDistTableBits = 8;
constexpr unsigned kPrecodeTableBits = 7;  // = the longest precode, no sub-tables
constexpr unsigned kNumLitlenSyms = 288;

static_assert(InflateScratch::kLitlenEnough == 2342);  // zlib `enough 288 11 15`
static_assert(InflateScratch::kDistEnough == 402);     // zlib `enough 32 8 15`
static_assert(InflateScratch::kPrecodeSize == 1u << kPrecodeTableBits);

// Bit budget.  A refill leaves 56..63 bits counted, and in the fast loop
// all 64 bits of the buffer are real stream bits, so a lookup may peek past
// the counted bits as long as a refill comes before the consume.
constexpr unsigned kRefillBits = 56;
constexpr unsigned kLengthMaxBits = 15 + 5;  // litlen code + length extra
constexpr unsigned kDistMaxBits = 15 + 13;   // dist code + distance extra
// Three root literals plus the next root peek fit one refill...
static_assert(3 * kLitlenTableBits + kLitlenTableBits <= kRefillBits);
// ...and so does a length (after two literals) plus the distance root peek.
static_assert(2 * kLitlenTableBits + kLengthMaxBits + kDistTableBits <= 64);
// The conditional refill before the distance leaves room for the whole
// distance and the next litlen peek.
constexpr unsigned kDistRefillBelow = kDistMaxBits + kLitlenTableBits;
static_assert(kDistRefillBelow <= kRefillBits);
// The generic loop refills once per symbol: a length and a distance fit.
static_assert(kLengthMaxBits + kDistMaxBits <= kRefillBits);

// Fastloop margins.  The margin is tested after the refill that ends the
// previous iteration (or the one before the loop), so one iteration makes at
// most two more branchless refills: the conditional one before a distance
// and the one after a match.  Each reads 8 bytes, the second at most 7 bytes
// further on.  Output per iteration is at most three literals, or two
// literals and a 258-byte match whose word copy may write 39 bytes past its
// end.
constexpr std::ptrdiff_t kFastInBytes = 7 + 8;
constexpr std::ptrdiff_t kFastOutBytes = 2 + 258 + 40;

// RFC 1951 §3.2.5 length/distance code tables.
constexpr std::uint16_t kLenBase[29] = {3,  4,  5,  6,  7,  8,  9,  10, 11,  13,
                                        15, 17, 19, 23, 27, 31, 35, 43, 51,  59,
                                        67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::uint8_t kLenExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
                                        2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};
constexpr std::uint16_t kDistBase[30] = {1,    2,    3,    4,    5,    7,    9,    13,
                                         17,   25,   33,   49,   65,   97,   129,  193,
                                         257,  385,  513,  769,  1025, 1537, 2049, 3073,
                                         4097, 6145, 8193, 12289, 16385, 24577};
constexpr std::uint8_t kDistExtra[30] = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                         4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                         9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

// Per-symbol decode results: an entry minus its code-length fields, which
// the table build adds.  Symbols that are invalid in every stream
// (litlen 286/287, dist 30/31) still take part in the canonical code, as in
// zlib, but decode to kInvalid.
constexpr std::array<u32, kNumLitlenSyms> make_litlen_results() {
  std::array<u32, kNumLitlenSyms> r{};
  for (u32 s = 0; s < 256; ++s) r[s] = kLiteral | (s << 16);
  r[256] = kExceptional | kEndOfBlock;
  for (u32 s = 257; s <= 285; ++s) r[s] = (u32{kLenBase[s - 257]} << 16) | kLenExtra[s - 257];
  r[286] = r[287] = kInvalid;
  return r;
}
constexpr std::array<u32, 32> make_dist_results() {
  std::array<u32, 32> r{};
  for (u32 s = 0; s < 30; ++s) r[s] = (u32{kDistBase[s]} << 16) | kDistExtra[s];
  r[30] = r[31] = kInvalid;
  return r;
}
constexpr std::array<u32, 19> make_precode_results() {
  std::array<u32, 19> r{};
  for (u32 s = 0; s < 19; ++s) r[s] = s << 16;
  return r;
}
constexpr auto kLitlenResults = make_litlen_results();
constexpr auto kDistResults = make_dist_results();
constexpr auto kPrecodeResults = make_precode_results();

constexpr u64 mask(unsigned n) { return (u64{1} << n) - 1; }

[[noreturn]] void fail() { throw FormatError("zlib decompression failed"); }
[[noreturn]] void size_mismatch() { throw FormatError("decompressed size mismatch"); }

enum class CodeSet { kPrecode, kLitlen, kDist };

// Build a decode table from canonical code lengths and return its root
// bits (the litlen root shrinks to the longest code, so small codes fill
// small tables).  Symbols are counting-sorted by code length; each root
// entry is written once at its bit-reversed code while the table is still
// 2^len wide, and the filled prefix is doubled with memcpy on every length
// step.  Codes longer than the root go to sub-tables appended after it.
// Throws on an oversubscribed set; an incomplete set is allowed only where
// zlib allows it: a single 1-bit code (its other code is invalid) or an
// empty distance code, never for the precode.
unsigned build_table(u32* table, std::size_t capacity, const u8* lens, unsigned num_syms,
                     const u32* results, unsigned table_bits, CodeSet set) {
  unsigned counts[kMaxCodeBits + 1] = {};
  for (unsigned s = 0; s < num_syms; ++s) counts[lens[s]]++;
  unsigned max_len = kMaxCodeBits;
  while (max_len > 1 && counts[max_len] == 0) --max_len;
  if (set == CodeSet::kLitlen) table_bits = std::min(table_bits, max_len);

  // Counting sort by length (ties by symbol = canonical code order), and the
  // Kraft sum scaled to 2^max_len.
  unsigned offsets[kMaxCodeBits + 1];
  offsets[0] = 0;
  offsets[1] = counts[0];
  u32 codespace = 0;
  for (unsigned len = 1; len < max_len; ++len) {
    offsets[len + 1] = offsets[len] + counts[len];
    codespace = (codespace << 1) + counts[len];
  }
  codespace = (codespace << 1) + counts[max_len];
  std::uint16_t sorted[kNumLitlenSyms];
  for (unsigned s = 0; s < num_syms; ++s) {
    sorted[offsets[lens[s]]++] = static_cast<std::uint16_t>(s);
  }
  const std::uint16_t* sym = sorted + offsets[0];  // skip unused symbols

  const std::size_t root_size = std::size_t{1} << table_bits;
  if (codespace > (u32{1} << max_len)) fail();  // oversubscribed
  if (codespace < (u32{1} << max_len)) {        // incomplete
    if (set == CodeSet::kPrecode) fail();
    if (codespace == 0) {
      if (set != CodeSet::kDist) fail();
      std::fill_n(table, root_size, kInvalid);  // no matches may follow
      return table_bits;
    }
    if (max_len != 1 || counts[1] != 1) fail();
    // One 1-bit code: zlib assigns it code 0 and rejects code 1.
    const u32 e = results[*sym] + (1u << 8) + 1;
    for (std::size_t i = 0; i < root_size; i += 2) {
      table[i] = e;
      table[i + 1] = kInvalid;
    }
    return table_bits;
  }

  // Root codes.  `codeword` is the bit-reversed canonical code; the next
  // code in canonical order sets its highest clear bit below `len` and
  // clears every bit above it.
  unsigned codeword = 0;
  unsigned len = 1;
  unsigned count = 0;
  while ((count = counts[len]) == 0) ++len;
  std::size_t cur_end = std::size_t{1} << len;
  while (len <= table_bits) {
    do {
      table[codeword] = results[*sym++] + (len << 8) + len;
      if (codeword == cur_end - 1) {  // all ones: the last code
        for (; len < table_bits; ++len) {
          std::memcpy(table + cur_end, table, cur_end * sizeof(u32));
          cur_end <<= 1;
        }
        return table_bits;
      }
      const auto all_ones = static_cast<unsigned>(cur_end - 1);
      const unsigned bit = 1u << (std::bit_width(codeword ^ all_ones) - 1);
      codeword = (codeword & (bit - 1)) | bit;
    } while (--count != 0);
    do {
      if (++len <= table_bits) {
        std::memcpy(table + cur_end, table, cur_end * sizeof(u32));
        cur_end <<= 1;
      }
    } while ((count = counts[len]) == 0);
  }

  // Sub-tables for codes longer than the root.  Codes sharing a root prefix
  // are consecutive in canonical order; a sub-table is as wide as its
  // longest code needs to exactly fill it.
  cur_end = root_size;
  std::size_t sub_start = 0;
  unsigned prefix = ~0u;
  for (;;) {
    if ((codeword & (root_size - 1)) != prefix) {
      prefix = codeword & static_cast<unsigned>(root_size - 1);
      sub_start = cur_end;
      unsigned sub_bits = len - table_bits;
      u32 used = count;
      while (used < (u32{1} << sub_bits)) {
        ++sub_bits;
        used = (used << 1) + counts[table_bits + sub_bits];
      }
      cur_end = sub_start + (std::size_t{1} << sub_bits);
      MLIO_ASSERT(cur_end <= capacity);  // zlib's ENOUGH bound
      table[prefix] = (static_cast<u32>(sub_start) << 16) | kExceptional | kSubtable |
                      (sub_bits << 8) | table_bits;
    }
    const unsigned sub_len = len - table_bits;
    const u32 e = results[*sym++] + (sub_len << 8) + sub_len;
    for (std::size_t i = sub_start + (codeword >> table_bits); i < cur_end;
         i += std::size_t{1} << sub_len) {
      table[i] = e;
    }
    if (codeword == (1u << len) - 1) return table_bits;
    const unsigned bit = 1u << (std::bit_width(codeword ^ ((1u << len) - 1)) - 1);
    codeword = (codeword & (bit - 1)) | bit;
    --count;
    while (count == 0) count = counts[++len];
  }
}

struct Tables {
  const u32* litlen;
  unsigned litlen_bits;
  const u32* dist;
};

struct FixedTables {
  u32 litlen[1u << 9];  // the fixed litlen code's longest code is 9 bits
  u32 dist[1u << kDistTableBits];
  unsigned litlen_bits;
};

const FixedTables& fixed_tables() {
  static const FixedTables tables = [] {
    FixedTables t;
    u8 ll[kNumLitlenSyms];
    std::fill(ll, ll + 144, u8{8});
    std::fill(ll + 144, ll + 256, u8{9});
    std::fill(ll + 256, ll + 280, u8{7});
    std::fill(ll + 280, ll + 288, u8{8});
    t.litlen_bits = build_table(t.litlen, std::size(t.litlen), ll, kNumLitlenSyms,
                                kLitlenResults.data(), kLitlenTableBits, CodeSet::kLitlen);
    u8 dd[32];
    std::fill(dd, dd + 32, u8{5});
    build_table(t.dist, std::size(t.dist), dd, 32, kDistResults.data(), kDistTableBits,
                CodeSet::kDist);
    return t;
  }();
  return tables;
}

inline u64 load_le64(const unsigned char* p) {
  u64 v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

inline void copy8(unsigned char* dst, const unsigned char* src) {
  u64 v;
  std::memcpy(&v, src, 8);
  std::memcpy(dst, &v, 8);
}

// ---------------------------------------------------------------------------
// Bit reader: an LSB-first 64-bit buffer whose low (u8)left bits are
// counted.  Bits above them are either zero or the low bits of the byte at
// `in` (the branchless refill loads 8 bytes but counts only whole ones), so
// ORing those bytes in again is idempotent.  Past the end of the input the
// refill feeds zero bytes and counts them in `overread`: a stream that
// consumed any of them was truncated, which align_and_rewind detects, and
// more than 8 of them fail at once.

struct BitReader {
  const unsigned char* in;
  const unsigned char* end;
  u64 buf = 0;
  u32 left = 0;  // only the low byte is meaningful: `left -= entry` is a consume
  u32 overread = 0;

  // Requires end - in >= 8.  Counts 56..63 bits; all 64 are stream bits.
  void refill_fast() {
    buf |= load_le64(in) << static_cast<u8>(left);
    in += 7 - ((left >> 3) & 7);
    left |= kRefillBits;
  }

  // Counts at least 56 bits.
  void refill() {
    if (end - in >= 8) {
      refill_fast();
      return;
    }
    while (static_cast<u8>(left) < kRefillBits) {
      if (in != end) {
        buf |= u64{*in++} << static_cast<u8>(left);
      } else if (++overread > 8) {
        fail();
      }
      left += 8;
    }
  }

  u32 bits(unsigned n) const { return static_cast<u32>(buf & mask(n)); }

  void consume(unsigned n) {
    buf >>= n;
    left -= n;
  }

  // Consume a table entry's code and extra bits; returns the buffer as it
  // was, for extra_bits().
  u64 take(u32 entry) {
    const u64 saved = buf;
    buf >>= static_cast<u8>(entry);
    left -= entry;
    return saved;
  }

  // Drop bits to the byte boundary and hand the counted whole bytes back to
  // `in`, so the caller reads the input directly.  Fails if any counted byte
  // was a zero fed past the end.
  void align_and_rewind() {
    consume(static_cast<u8>(left) & 7u);
    const unsigned held = static_cast<u8>(left) >> 3;
    if (overread > held) fail();
    in -= held - overread;
    buf = 0;
    left = 0;
    overread = 0;
  }
};

// The length or distance extra bits of `entry`, from the buffer `saved`
// before the entry was taken.
inline u32 extra_bits(u64 saved, u32 entry) {
  return static_cast<u32>((saved & mask(static_cast<u8>(entry))) >> static_cast<u8>(entry >> 8));
}

// Sub-table entry for the pointer `entry`, indexed by the bits after the root.
inline u32 subtable_entry(const u32* table, u32 entry, u64 buf) {
  return table[(entry >> 16) + (buf & mask((entry >> 8) & 0xf))];
}

struct Decoder {
  BitReader br;
  unsigned char* const out_begin;
  unsigned char* out;
  unsigned char* const out_end;

  void stored_block() {
    br.align_and_rewind();
    const unsigned char* in = br.in;
    if (br.end - in < 4) fail();
    const u32 len = in[0] | (u32{in[1]} << 8);
    const u32 nlen = in[2] | (u32{in[3]} << 8);
    in += 4;
    if (len != (~nlen & 0xffffu)) fail();
    if (len > static_cast<std::size_t>(out_end - out)) size_mismatch();
    if (len > static_cast<std::size_t>(br.end - in)) fail();
    if (len != 0) std::memcpy(out, in, len);  // `out` may be null for an empty body
    br.in = in + len;
    out += len;
  }

  Tables dynamic_tables(InflateScratch& scratch);
  void huffman_block(const Tables& t);
};

Tables Decoder::dynamic_tables(InflateScratch& scratch) {
  // The 3-bit block header was taken from a refill of >= 56 bits.
  const unsigned hlit = br.bits(5) + 257;
  const unsigned hdist = (br.bits(10) >> 5) + 1;
  const unsigned hclen = (br.bits(14) >> 10) + 4;
  br.consume(14);
  if (hlit > 286 || hdist > 30) fail();  // zlib: too many symbols
  static constexpr u8 kOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                    11, 4,  12, 3, 13, 2, 14, 1, 15};
  u8 pre_lens[19] = {};
  for (unsigned i = 0; i < hclen; ++i) {
    if (static_cast<u8>(br.left) < 3) br.refill();
    pre_lens[kOrder[i]] = static_cast<u8>(br.bits(3));
    br.consume(3);
  }
  build_table(scratch.precode.data(), scratch.precode.size(), pre_lens, 19,
              kPrecodeResults.data(), kPrecodeTableBits, CodeSet::kPrecode);

  // Code lengths: the refill is branchless while 8 input bytes remain.
  u8 lens[286 + 30];
  const unsigned total = hlit + hdist;
  unsigned i = 0;
  while (i < total) {
    if (static_cast<u8>(br.left) < 7 + 7) br.refill();  // longest precode + repeat bits
    const u32 entry = scratch.precode[br.buf & mask(kPrecodeTableBits)];
    br.take(entry);
    const u32 sym = entry >> 16;
    if (sym < 16) {
      lens[i++] = static_cast<u8>(sym);
      continue;
    }
    u8 value = 0;
    unsigned rep;
    if (sym == 16) {
      if (i == 0) fail();  // repeat with no previous length
      value = lens[i - 1];
      rep = 3 + br.bits(2);
      br.consume(2);
    } else if (sym == 17) {
      rep = 3 + br.bits(3);
      br.consume(3);
    } else {
      rep = 11 + br.bits(7);
      br.consume(7);
    }
    if (i + rep > total) fail();
    std::memset(lens + i, value, rep);
    i += rep;
  }
  if (lens[256] == 0) fail();  // no end-of-block code
  Tables t;
  t.litlen_bits = build_table(scratch.litlen.data(), scratch.litlen.size(), lens, hlit,
                              kLitlenResults.data(), kLitlenTableBits, CodeSet::kLitlen);
  build_table(scratch.dist.data(), scratch.dist.size(), lens + hlit, hdist, kDistResults.data(),
              kDistTableBits, CodeSet::kDist);
  t.litlen = scratch.litlen.data();
  t.dist = scratch.dist.data();
  return t;
}

// Decode one Huffman block (fixed or dynamic tables) up to and including
// its end-of-block code.
void Decoder::huffman_block(const Tables& t) {
  const u32* const litlen = t.litlen;
  const u32* const dist = t.dist;
  const u64 litlen_mask = mask(t.litlen_bits);
  constexpr u64 dist_mask = mask(kDistTableBits);

  // The hot state lives in locals; `*this` is written back on exit.
  BitReader b = br;
  unsigned char* out_p = out;
  unsigned char* const out_first = out_begin;
  unsigned char* const out_last = out_end;
  const unsigned char* const in_fast_end =
      b.end - b.in > kFastInBytes ? b.end - kFastInBytes : b.in;
  unsigned char* const out_fast_end =
      out_last - out_first > kFastOutBytes ? out_last - kFastOutBytes : out_first;
  u32 entry = 0;
  u64 saved = 0;

  // Fast loop: no per-symbol bounds checks (the margins cover a whole
  // iteration), and the next litlen entry is looked up before the current
  // literal is stored or match copied, overlapping the table latency.
  if (b.in < in_fast_end && out_p < out_fast_end) {
    b.refill_fast();
    entry = litlen[b.buf & litlen_mask];
    // The refill may have advanced `in` past the margin: test it again.
    while (b.in < in_fast_end && out_p < out_fast_end) {
      saved = b.take(entry);
      if (entry & kLiteral) {
        // Up to two more literals share this refill (see the bit budget).
        u32 lit = entry >> 16;
        entry = litlen[b.buf & litlen_mask];
        saved = b.take(entry);
        *out_p++ = static_cast<unsigned char>(lit);
        if (entry & kLiteral) {
          lit = entry >> 16;
          entry = litlen[b.buf & litlen_mask];
          saved = b.take(entry);
          *out_p++ = static_cast<unsigned char>(lit);
          if (entry & kLiteral) {
            lit = entry >> 16;
            entry = litlen[b.buf & litlen_mask];
            b.refill_fast();
            *out_p++ = static_cast<unsigned char>(lit);
            continue;
          }
        }
      }
      if (entry & kExceptional) [[unlikely]] {
        if (entry & kEndOfBlock) goto block_done;
        if (!(entry & kSubtable)) fail();  // invalid code
        entry = subtable_entry(litlen, entry, b.buf);
        saved = b.take(entry);
        if (entry & kLiteral) {
          const u32 lit = entry >> 16;
          entry = litlen[b.buf & litlen_mask];
          b.refill_fast();
          *out_p++ = static_cast<unsigned char>(lit);
          continue;
        }
        if (entry & kEndOfBlock) goto block_done;
      }
      {
        const u32 length = (entry >> 16) + extra_bits(saved, entry);
        entry = dist[b.buf & dist_mask];
        if (static_cast<u8>(b.left) < kDistRefillBelow) b.refill_fast();
        if (entry & kExceptional) [[unlikely]] {
          if (!(entry & kSubtable)) fail();  // invalid or absent distance code
          b.consume(kDistTableBits);
          entry = subtable_entry(dist, entry, b.buf);
        }
        saved = b.take(entry);
        const std::size_t offset = (entry >> 16) + extra_bits(saved, entry);
        if (offset > static_cast<std::size_t>(out_p - out_first)) fail();
        const unsigned char* src = out_p - offset;
        unsigned char* dst = out_p;
        out_p += length;
        entry = litlen[b.buf & litlen_mask];
        b.refill_fast();

        // Word copies may run up to 39 bytes past the match (the margin
        // covers it); later output overwrites the excess.
        if (offset >= 8) {
          copy8(dst, src);
          copy8(dst + 8, src + 8);
          copy8(dst + 16, src + 16);
          copy8(dst + 24, src + 24);
          copy8(dst + 32, src + 32);
          while (dst + 40 < out_p) {
            dst += 40;
            src += 40;
            copy8(dst, src);
            copy8(dst + 8, src + 8);
            copy8(dst + 16, src + 16);
            copy8(dst + 24, src + 24);
            copy8(dst + 32, src + 32);
          }
        } else if (offset == 1) {
          const u64 v = u64{0x0101010101010101} * *src;
          do {
            std::memcpy(dst, &v, 8);
            std::memcpy(dst + 8, &v, 8);
            std::memcpy(dst + 16, &v, 8);
            std::memcpy(dst + 24, &v, 8);
            dst += 32;
          } while (dst < out_p);
        } else {
          // Each 8-byte step makes `offset` more bytes final.
          do {
            copy8(dst, src);
            dst += offset;
            src += offset;
          } while (dst < out_p);
        }
      }
    }
  }

  // Generic loop: one refill per symbol covers a length and its distance,
  // and every bound is checked.
  for (;;) {
    b.refill();
    entry = litlen[b.buf & litlen_mask];
    saved = b.take(entry);
    if (entry & kExceptional) {
      if (entry & kEndOfBlock) break;
      if (!(entry & kSubtable)) fail();
      entry = subtable_entry(litlen, entry, b.buf);
      saved = b.take(entry);
      if (entry & kEndOfBlock) break;
    }
    if (entry & kLiteral) {
      if (out_p == out_last) size_mismatch();
      *out_p++ = static_cast<unsigned char>(entry >> 16);
      continue;
    }
    const u32 length = (entry >> 16) + extra_bits(saved, entry);
    if (length > static_cast<std::size_t>(out_last - out_p)) size_mismatch();
    entry = dist[b.buf & dist_mask];
    if (entry & kExceptional) {
      if (!(entry & kSubtable)) fail();
      b.consume(kDistTableBits);
      entry = subtable_entry(dist, entry, b.buf);
    }
    saved = b.take(entry);
    const std::size_t offset = (entry >> 16) + extra_bits(saved, entry);
    if (offset > static_cast<std::size_t>(out_p - out_first)) fail();
    const unsigned char* src = out_p - offset;
    for (u32 k = 0; k < length; ++k) *out_p++ = *src++;
  }

block_done:
  br = b;
  out = out_p;
}

}  // namespace

void inflate_zlib(std::span<const std::byte> input, std::span<std::byte> out,
                  InflateScratch& scratch, bool verify_checksum) {
  const auto* in = reinterpret_cast<const unsigned char*>(input.data());
  const auto* const in_end = in + input.size();
  if (input.size() < 2) fail();
  const unsigned cmf = in[0], flg = in[1];
  if ((cmf & 0x0f) != 8) fail();           // not DEFLATE
  if ((cmf >> 4) > 7) fail();              // window larger than 32 KiB
  if (((cmf << 8) | flg) % 31 != 0) fail();  // header check bits
  if (flg & 0x20) fail();                  // preset dictionary: never written

  auto* const out_begin = reinterpret_cast<unsigned char*>(out.data());
  Decoder dec{BitReader{in + 2, in_end}, out_begin, out_begin, out_begin + out.size()};

  for (;;) {
    dec.br.refill();
    const u32 hdr = dec.br.bits(3);
    dec.br.consume(3);
    switch (hdr >> 1) {
      case 0:
        dec.stored_block();
        break;
      case 1: {
        const FixedTables& f = fixed_tables();
        dec.huffman_block(Tables{f.litlen, f.litlen_bits, f.dist});
        break;
      }
      case 2:
        dec.huffman_block(dec.dynamic_tables(scratch));
        break;
      default:
        fail();  // reserved block type
    }
    if (hdr & 1) break;  // final block
  }

  if (dec.out != dec.out_end) size_mismatch();
  dec.br.align_and_rewind();
  const unsigned char* const trailer = dec.br.in;
  if (in_end - trailer < 4) fail();
  const u32 stored_adler = (u32{trailer[0]} << 24) | (u32{trailer[1]} << 16) |
                           (u32{trailer[2]} << 8) | trailer[3];  // big-endian
  if (verify_checksum) {
    const uLong computed = ::adler32(::adler32(0L, nullptr, 0),
                                     reinterpret_cast<const Bytef*>(out.data()),
                                     static_cast<uInt>(out.size()));
    if (static_cast<u32>(computed) != stored_adler) fail();
  }
}

void inflate_zlib(std::span<const std::byte> input, std::span<std::byte> out,
                  bool verify_checksum) {
  InflateScratch scratch;
  inflate_zlib(input, out, scratch, verify_checksum);
}

}  // namespace mlio::util
