// Differential and adversarial coverage for the fast zlib-stream decoder
// behind the archive cold scan.  Reference encoder and oracle are zlib
// itself: every stream zlib produces — stored, static-Huffman, and dynamic
// blocks at all levels — must decode to the identical bytes, and every
// malformed variant (truncation, corruption, hostile Huffman headers) must
// throw util::FormatError, never crash, loop, or return quietly.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>
#include <zlib.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "archive/ingest.hpp"
#include "darshan/log_format.hpp"
#include "util/byte_io.hpp"
#include "util/compress.hpp"
#include "util/error.hpp"
#include "util/inflate_fast.hpp"
#include "util/vfs.hpp"
#include "workload/generator.hpp"

namespace mlio::util {
namespace {

using Bytes = std::vector<std::byte>;

Bytes deflate_with(const Bytes& raw, int level, int strategy) {
  z_stream zs{};
  EXPECT_EQ(deflateInit2(&zs, level, Z_DEFLATED, 15, 8, strategy), Z_OK);
  Bytes out(deflateBound(&zs, static_cast<uLong>(raw.size())) + 16);
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<std::byte*>(raw.data()));
  zs.avail_in = static_cast<uInt>(raw.size());
  zs.next_out = reinterpret_cast<Bytef*>(out.data());
  zs.avail_out = static_cast<uInt>(out.size());
  EXPECT_EQ(deflate(&zs, Z_FINISH), Z_STREAM_END);
  out.resize(out.size() - zs.avail_out);
  deflateEnd(&zs);
  return out;
}

// Data shapes that exercise different deflate block structures: stored-ish
// incompressible noise, all-one-byte runs (long matches, distance 1),
// repeated text (matches at many distances), and byte ramps.
Bytes make_payload(int mode, std::size_t n, std::uint64_t seed) {
  Bytes b(n);
  std::mt19937_64 rng(seed);
  switch (mode) {
    case 0:
      for (auto& x : b) x = static_cast<std::byte>(rng());
      break;
    case 1:
      if (n != 0) std::memset(b.data(), 0x55, n);
      break;
    case 2: {
      const std::string phrase = "posix_bytes_read=4096 /gpfs/alpine/run/output.h5 ";
      for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::byte>(phrase[i % phrase.size()]);
      break;
    }
    default:
      for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::byte>(i * 7);
      break;
  }
  return b;
}

void expect_roundtrip(const Bytes& raw, const Bytes& stream, InflateScratch& scratch) {
  Bytes out(raw.size());
  inflate_zlib(stream, out, scratch, /*verify_checksum=*/true);
  EXPECT_EQ(out, raw);
  // And with the checksum skipped, as the log reader calls it.
  Bytes out2(raw.size());
  inflate_zlib(stream, out2, scratch, /*verify_checksum=*/false);
  EXPECT_EQ(out2, raw);
}

TEST(InflateFast, MatchesZlibAcrossLevelsStrategiesAndShapes) {
  InflateScratch scratch;  // shared: recycling across streams is the hot path
  const std::size_t sizes[] = {0, 1, 2, 15, 64, 255, 300, 4096, 70000};
  for (int mode = 0; mode < 4; ++mode) {
    for (const std::size_t n : sizes) {
      const Bytes raw = make_payload(mode, n, 1000 + static_cast<std::uint64_t>(mode) + n);
      // Level 0 emits stored blocks, level 1 favors static blocks,
      // levels 6/9 emit dynamic blocks; Z_FIXED forces static Huffman even
      // where dynamic would win.
      for (const int level : {0, 1, 6, 9}) {
        SCOPED_TRACE("mode=" + std::to_string(mode) + " n=" + std::to_string(n) +
                     " level=" + std::to_string(level));
        expect_roundtrip(raw, deflate_with(raw, level, Z_DEFAULT_STRATEGY), scratch);
      }
      SCOPED_TRACE("mode=" + std::to_string(mode) + " n=" + std::to_string(n) + " Z_FIXED");
      expect_roundtrip(raw, deflate_with(raw, 6, Z_FIXED), scratch);
    }
  }
}

TEST(InflateFast, EveryTruncationThrows) {
  const Bytes raw = make_payload(2, 3000, 42);
  for (const int level : {0, 6}) {
    const Bytes stream = deflate_with(raw, level, Z_DEFAULT_STRATEGY);
    InflateScratch scratch;
    for (std::size_t cut = 0; cut < stream.size(); ++cut) {
      const Bytes truncated(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(cut));
      Bytes out(raw.size());
      EXPECT_THROW(inflate_zlib(truncated, out, scratch), FormatError)
          << "level " << level << " cut " << cut;
    }
  }
}

TEST(InflateFast, SingleByteCorruptionNeverCrashes) {
  // Flip every byte of a small stream (and a sample of a larger one); each
  // variant must either throw FormatError or produce output — UB and hangs
  // are the failure modes under test.  Corruptions that survive the Huffman
  // decode are caught by the Adler-32 when verification is on, except the
  // flips confined to the header/trailer bits that don't affect the bytes.
  const Bytes raw = make_payload(3, 2000, 7);
  const Bytes stream = deflate_with(raw, 6, Z_DEFAULT_STRATEGY);
  InflateScratch scratch;
  for (std::size_t pos = 0; pos < stream.size(); ++pos) {
    for (const unsigned flip : {0x01u, 0x80u, 0xFFu}) {
      Bytes bad = stream;
      bad[pos] ^= static_cast<std::byte>(flip);
      Bytes out(raw.size());
      try {
        inflate_zlib(bad, out, scratch, /*verify_checksum=*/true);
      } catch (const FormatError&) {
        // expected for most flips
      }
    }
  }
}

TEST(InflateFast, WrongOutputSizeThrows) {
  const Bytes raw = make_payload(0, 500, 9);
  const Bytes stream = deflate_with(raw, 6, Z_DEFAULT_STRATEGY);
  InflateScratch scratch;
  Bytes small(raw.size() - 1);
  EXPECT_THROW(inflate_zlib(stream, small, scratch), FormatError);
  Bytes big(raw.size() + 1);
  EXPECT_THROW(inflate_zlib(stream, big, scratch), FormatError);
}

TEST(InflateFast, RejectsBadZlibHeaders) {
  const Bytes raw = make_payload(1, 100, 3);
  const Bytes good = deflate_with(raw, 6, Z_DEFAULT_STRATEGY);
  InflateScratch scratch;
  Bytes out(raw.size());

  Bytes bad_cm = good;
  bad_cm[0] = std::byte{0x79};  // CM=9 is not deflate
  EXPECT_THROW(inflate_zlib(bad_cm, out, scratch), FormatError);

  Bytes bad_cinfo = good;
  bad_cinfo[0] = std::byte{0x88};  // CINFO=8: window > 32 KB
  EXPECT_THROW(inflate_zlib(bad_cinfo, out, scratch), FormatError);

  Bytes bad_check = good;
  bad_check[1] ^= std::byte{0x01};  // breaks the %31 header checksum
  EXPECT_THROW(inflate_zlib(bad_check, out, scratch), FormatError);

  Bytes fdict = good;
  // Set FDICT and repair the %31 check: a preset dictionary is never valid
  // for the log format.
  fdict[1] = std::byte{0x20};
  const unsigned hdr = (static_cast<unsigned>(fdict[0]) << 8) | static_cast<unsigned>(fdict[1]);
  fdict[1] = static_cast<std::byte>(static_cast<unsigned>(fdict[1]) + (31 - hdr % 31) % 31);
  EXPECT_THROW(inflate_zlib(fdict, out, scratch), FormatError);
}

// Hand-built deflate streams with hostile Huffman headers.  A tiny LSB-first
// bit writer produces exactly the header bits we want to test.
class BitWriter {
 public:
  void bits(unsigned value, unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      if (bit_ == 0) out_.push_back(std::byte{0});
      if ((value >> i) & 1u) out_.back() |= static_cast<std::byte>(1u << bit_);
      bit_ = (bit_ + 1) % 8;
    }
  }
  /// Pad to the byte boundary (stored blocks start there).
  void align() { bit_ = 0; }
  void byte(unsigned v) {
    align();
    out_.push_back(static_cast<std::byte>(v));
  }
  const Bytes& raw() const { return out_; }
  /// The deflate data in a zlib wrapper with the given Adler-32 trailer.
  Bytes zlib_stream(std::uint32_t adler = 0) const {
    Bytes s(2 + out_.size() + 4);
    s[0] = std::byte{0x78};  // CM=8, CINFO=7
    s[1] = std::byte{0x01};  // FLG making the header %31 == 0
    std::copy(out_.begin(), out_.end(), s.begin() + 2);
    for (std::size_t i = 0; i < 4; ++i) {
      s[2 + out_.size() + i] = static_cast<std::byte>(adler >> (24 - 8 * i));
    }
    return s;
  }

 private:
  Bytes out_;
  unsigned bit_ = 0;
};

// Canonical Huffman code (RFC 1951 §3.2.2) from code lengths, for writing
// hand-built blocks.  Huffman codes go on the wire most significant bit
// first.
class Huffman {
 public:
  explicit Huffman(std::vector<unsigned> lens) : len_(std::move(lens)), code_(len_.size()) {
    unsigned count[16] = {}, next[16] = {};
    for (const unsigned l : len_) count[l]++;
    count[0] = 0;
    for (unsigned l = 1, c = 0; l < 16; ++l) {
      c = (c + count[l - 1]) << 1;
      next[l] = c;
    }
    for (std::size_t s = 0; s < len_.size(); ++s) {
      if (len_[s] != 0) code_[s] = next[len_[s]]++;
    }
  }
  void put(BitWriter& w, unsigned sym) const {
    ASSERT_LT(sym, len_.size());
    ASSERT_NE(len_[sym], 0u) << "symbol " << sym << " has no code";
    for (unsigned i = len_[sym]; i-- > 0;) w.bits((code_[sym] >> i) & 1u, 1);
  }
  const std::vector<unsigned>& lens() const { return len_; }

 private:
  std::vector<unsigned> len_;
  std::vector<unsigned> code_;
};

Huffman fixed_litlen() {
  std::vector<unsigned> l(288);
  std::fill(l.begin(), l.begin() + 144, 8u);
  std::fill(l.begin() + 144, l.begin() + 256, 9u);
  std::fill(l.begin() + 256, l.begin() + 280, 7u);
  std::fill(l.begin() + 280, l.end(), 8u);
  return Huffman(l);
}
Huffman fixed_dist() { return Huffman(std::vector<unsigned>(30, 5u)); }

constexpr unsigned kLenBase[29] = {3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
                                   31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr unsigned kLenExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
                                    2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};
constexpr unsigned kDistBase[30] = {1,    2,    3,    4,    5,    7,     9,     13,    17,  25,
                                    33,   49,   65,   97,   129,  193,   257,   385,   513, 769,
                                    1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577};
constexpr unsigned kDistExtra[30] = {0, 0, 0, 0, 1, 1, 2, 2,  3,  3,  4,  4,  5,  5,  6,
                                     6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

/// A match of `length` at `dist`, as the encoder's smallest symbol for each.
void put_match(BitWriter& w, const Huffman& ll, const Huffman& dd, unsigned length,
               unsigned dist) {
  unsigned ls = 28;
  while (kLenBase[ls] > length) --ls;
  ll.put(w, 257 + ls);
  w.bits(length - kLenBase[ls], kLenExtra[ls]);
  unsigned ds = 29;
  while (kDistBase[ds] > dist) --ds;
  dd.put(w, ds);
  w.bits(dist - kDistBase[ds], kDistExtra[ds]);
}

/// Header of a dynamic block.  Every code length goes out as its own
/// precode symbol (no repeat codes) through a fixed complete precode:
/// symbols 0-12 get 4 bits, 13-18 get 5.
void dynamic_header(BitWriter& w, bool final, const Huffman& ll, const Huffman& dd) {
  static constexpr unsigned kOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                          11, 4,  12, 3, 13, 2, 14, 1, 15};
  w.bits(final ? 1 : 0, 1);
  w.bits(2, 2);
  w.bits(static_cast<unsigned>(ll.lens().size() - 257), 5);
  w.bits(static_cast<unsigned>(dd.lens().size() - 1), 5);
  w.bits(19 - 4, 4);
  std::vector<unsigned> pre(19);
  for (unsigned s = 0; s < 19; ++s) pre[s] = s < 13 ? 4 : 5;
  for (const unsigned s : kOrder) w.bits(pre[s], 3);
  const Huffman pc(pre);
  for (const unsigned l : ll.lens()) pc.put(w, l);
  for (const unsigned l : dd.lens()) pc.put(w, l);
}

void stored_block(BitWriter& w, bool final, const Bytes& data) {
  w.bits(final ? 1 : 0, 1);
  w.bits(0, 2);
  w.align();
  const auto n = static_cast<unsigned>(data.size());
  w.byte(n & 0xff);
  w.byte(n >> 8);
  w.byte(~n & 0xff);
  w.byte((~n >> 8) & 0xff);
  for (const std::byte b : data) w.byte(static_cast<unsigned>(b));
}

/// zlib's raw inflate of `deflate` (no wrapper): the oracle.  Returns
/// false if zlib rejects the data or it decodes past `cap` bytes.
bool zlib_raw_inflate(const Bytes& deflate, std::size_t cap, Bytes& out) {
  z_stream zs{};
  if (inflateInit2(&zs, -15) != Z_OK) return false;
  out.assign(cap, std::byte{0});
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<std::byte*>(deflate.data()));
  zs.avail_in = static_cast<uInt>(deflate.size());
  zs.next_out = reinterpret_cast<Bytef*>(out.data());
  zs.avail_out = static_cast<uInt>(out.size());
  const int rc = inflate(&zs, Z_FINISH);
  out.resize(zs.total_out);
  inflateEnd(&zs);
  return rc == Z_STREAM_END;
}

/// zlib's decode of the hand-built data into `expect`, and the data in a
/// zlib wrapper whose Adler-32 matches it.
Bytes oracle_stream(const BitWriter& w, Bytes& expect) {
  EXPECT_TRUE(zlib_raw_inflate(w.raw(), std::size_t{1} << 20, expect)) << "zlib rejected it";
  return w.zlib_stream(static_cast<std::uint32_t>(
      ::adler32(::adler32(0L, nullptr, 0), reinterpret_cast<const Bytef*>(expect.data()),
                static_cast<uInt>(expect.size()))));
}

/// A copy of `data` whose last byte sits just before a PROT_NONE page, so a
/// read past the end faults.  ASan alone can miss such a read: an unaligned
/// 8-byte load that only partly overlaps the redzone.
class GuardedCopy {
 public:
  explicit GuardedCopy(const Bytes& data) {
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t data_pages = (data.size() + page - 1) / page;
    map_size_ = (data_pages + 1) * page;
    void* p = ::mmap(nullptr, map_size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap failed");
    map_ = static_cast<std::byte*>(p);
    std::byte* const guard = map_ + data_pages * page;
    if (::mprotect(guard, page, PROT_NONE) != 0) throw std::runtime_error("mprotect failed");
    data_ = std::span<const std::byte>(guard - data.size(), data.size());
    if (!data.empty()) std::memcpy(guard - data.size(), data.data(), data.size());
  }
  ~GuardedCopy() { ::munmap(map_, map_size_); }
  GuardedCopy(const GuardedCopy&) = delete;
  GuardedCopy& operator=(const GuardedCopy&) = delete;

  std::span<const std::byte> span() const { return data_; }

 private:
  std::byte* map_ = nullptr;
  std::size_t map_size_ = 0;
  std::span<const std::byte> data_;
};

/// The hand-built data must decode under zlib, and inflate_zlib must give
/// the same bytes with the Adler-32 verified, reading nothing past the end
/// of the stream.
void expect_same_as_zlib(const BitWriter& w, InflateScratch& scratch) {
  Bytes expect;
  const GuardedCopy stream(oracle_stream(w, expect));
  Bytes out(expect.size());
  inflate_zlib(stream.span(), out, scratch, /*verify_checksum=*/true);
  EXPECT_EQ(out, expect);
}

/// zlib must reject the data, and so must inflate_zlib when handed the
/// output size the stream would have had were the bad code valid.
void expect_both_reject(const BitWriter& w, std::size_t out_size, InflateScratch& scratch) {
  Bytes ignored;
  EXPECT_FALSE(zlib_raw_inflate(w.raw(), std::size_t{1} << 20, ignored));
  Bytes out(out_size);
  EXPECT_THROW(inflate_zlib(w.zlib_stream(), out, scratch, false), FormatError);
}

// A complete litlen code whose 12-15-bit codes (beyond the 11-bit root) are
// a literal, two length symbols and end-of-block, and a complete distance
// code whose symbols 0-7 (distances 1-16) have 9-15-bit codes (beyond the
// 8-bit root).  Both are "chains": one code of each length 1..15, plus a
// second 15-bit one.
Huffman long_litlen() {
  std::vector<unsigned> l(286, 0);
  for (unsigned k = 0; k < 11; ++k) l['a' + k] = k + 1;  // 'a'..'k': 1..11 bits
  l['x'] = 12;
  l[257] = 13;  // length 3
  l[284] = 14;  // lengths 227..257
  l[256] = 15;  // end of block
  l[285] = 15;  // length 258
  return Huffman(l);
}
Huffman long_dist() {
  std::vector<unsigned> l(16);
  l[0] = 15;
  for (unsigned k = 1; k < 16; ++k) l[k] = 16 - k;
  return Huffman(l);
}

/// A dynamic block on the long codes: random literals and matches whose
/// symbols and extra bits cover every code of both tables.
void long_code_block(BitWriter& w, bool final, std::uint64_t seed) {
  const Huffman ll = long_litlen();
  const Huffman dd = long_dist();
  dynamic_header(w, final, ll, dd);
  std::mt19937_64 rng(seed);
  const unsigned lits[12] = {'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'x'};
  std::size_t produced = 0;
  for (int i = 0; i < 3000; ++i) {
    if (produced < 300 || rng() % 2 == 0) {
      ll.put(w, lits[rng() % 12]);
      ++produced;
      continue;
    }
    const unsigned pick = static_cast<unsigned>(rng() % 3);
    const unsigned length =
        pick == 0 ? 3 : pick == 1 ? 227 + static_cast<unsigned>(rng() % 31) : 258;
    const unsigned ds = static_cast<unsigned>(rng() % 16);
    const unsigned dist = kDistBase[ds] + static_cast<unsigned>(rng() % (1u << kDistExtra[ds]));
    put_match(w, ll, dd, length, dist);
    produced += length;
  }
  ll.put(w, 256);
}

TEST(InflateFast, LongCodesResolveThroughSubtables) {
  InflateScratch scratch;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    BitWriter w;
    long_code_block(w, true, seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same_as_zlib(w, scratch);
  }
}

TEST(InflateFast, MixesStoredFixedAndDynamicBlocksWithMaxLengthAtMaxDistance) {
  const Huffman fl = fixed_litlen();
  const Huffman fd = fixed_dist();
  BitWriter w;
  stored_block(w, false, make_payload(0, 32768, 5));  // fills the 32 KiB window
  w.bits(0, 1);                                    // fixed, not final
  w.bits(1, 2);
  put_match(w, fl, fd, 258, 32768);  // sym 285 and dist sym 29 + 13 one-bits
  put_match(w, fl, fd, 258, 32768);
  fl.put(w, 'z');
  put_match(w, fl, fd, 3, 1);
  fl.put(w, 256);
  long_code_block(w, false, 9);
  stored_block(w, true, make_payload(0, 7, 6));
  InflateScratch scratch;
  expect_same_as_zlib(w, scratch);
}

// Every distance 1..16 — all of them overlap their own output for most
// lengths — at lengths around the 8-byte word and 40-byte copy steps, once
// with 400 literals after them (fast loop) and once at the end of the
// output (generic loop).
TEST(InflateFast, EveryShortDistanceWithOverlappingCopies) {
  const Huffman fl = fixed_litlen();
  const Huffman fd = fixed_dist();
  const unsigned lengths[] = {3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 39, 40, 41, 100, 257, 258};
  InflateScratch scratch;
  for (const bool tail : {true, false}) {
    std::mt19937_64 rng(tail ? 21 : 22);
    BitWriter w;
    w.bits(1, 1);
    w.bits(1, 2);
    for (int i = 0; i < 64; ++i) fl.put(w, static_cast<unsigned>(rng() % 256));
    for (unsigned d = 1; d <= 16; ++d) {
      for (const unsigned len : lengths) {
        put_match(w, fl, fd, len, d);
        fl.put(w, static_cast<unsigned>(rng() % 256));
      }
    }
    if (tail) {
      for (int i = 0; i < 400; ++i) fl.put(w, static_cast<unsigned>(rng() % 256));
    }
    fl.put(w, 256);
    SCOPED_TRACE(tail ? "then 400 literals" : "at the end");
    expect_same_as_zlib(w, scratch);
  }
}

// One distance symbol with a 1-bit code is legal (zlib gives it code 0 and
// rejects code 1); so is an empty distance code in a block with no matches.
// Each block runs with a 400-literal lead and tail so the fast loop sees
// the match too.
TEST(InflateFast, SingleOneBitDistanceCodeAndEmptyDistanceCode) {
  std::vector<unsigned> ll_lens(257, 0);
  ll_lens['a'] = 1;
  ll_lens['b'] = 2;
  ll_lens[256] = 3;
  ll_lens.push_back(3);  // symbol 257: length 3
  const Huffman ll(ll_lens);
  InflateScratch scratch;
  for (const unsigned pad : {0u, 400u}) {
    SCOPED_TRACE("pad " + std::to_string(pad));
    const auto body = [&](BitWriter& w, const Huffman& dd, int match_code) {
      dynamic_header(w, true, ll, dd);
      for (unsigned i = 0; i < pad + 2; ++i) ll.put(w, i % 3 == 0 ? 'b' : 'a');
      if (match_code >= 0) {
        ll.put(w, 257);
        w.bits(static_cast<unsigned>(match_code), 1);  // the distance code's one bit
      }
      for (unsigned i = 0; i < pad; ++i) ll.put(w, 'a');
      ll.put(w, 256);
    };
    const Huffman one_bit(std::vector<unsigned>{1});
    const Huffman empty(std::vector<unsigned>{0});
    {
      BitWriter w;
      body(w, one_bit, 0);  // distance 1
      expect_same_as_zlib(w, scratch);
    }
    {
      BitWriter w;
      body(w, one_bit, 1);  // the unassigned code
      expect_both_reject(w, 2 * pad + 2 + 3, scratch);
    }
    {
      BitWriter w;
      body(w, empty, -1);  // literals only
      expect_same_as_zlib(w, scratch);
    }
    {
      BitWriter w;
      body(w, empty, 0);  // a match with no distance code to decode
      expect_both_reject(w, 2 * pad + 2 + 3, scratch);
    }
  }
}

// The fast loop runs while more than 300 output bytes and 15 input bytes
// remain.  A 400-literal block is followed by K more literals and its end
// of block, then by a final block that leaves either
//   - 285..315 output bytes (a stored block): the end of block lands on
//     both sides of the output margin;
//   - 0..10 units of (literal, literal, 258-byte match) worth 1-41 input
//     bytes: the two-refill iterations run up to the input margin with
//     output to spare;
//   - a literal, a 258-byte match and 0..50 literals: the match's word
//     copy, which overruns its end, starts on both sides of the margin.
// Under ASan an output margin set too small writes past the buffer; an
// input margin set too small reads into the guard page after the stream.
TEST(InflateFast, EndOfBlockAroundTheFastLoopMargins) {
  const Huffman fl = fixed_litlen();
  const Huffman fd = fixed_dist();
  InflateScratch scratch;
  std::mt19937_64 rng(77);
  const auto literal = [&](BitWriter& w) { fl.put(w, static_cast<unsigned>(rng() % 256)); };
  for (unsigned k = 0; k <= 40; ++k) {
    for (unsigned tail = 0; tail < 93; ++tail) {
      BitWriter w;
      w.bits(0, 1);
      w.bits(1, 2);
      for (unsigned i = 0; i < 400 + k; ++i) literal(w);
      fl.put(w, 256);
      if (tail < 31) {
        stored_block(w, true, make_payload(0, 285 + tail, tail));
      } else {
        w.bits(1, 1);
        w.bits(1, 2);
        if (tail < 42) {
          for (unsigned u = 0; u < tail - 31; ++u) {
            literal(w);
            literal(w);
            put_match(w, fl, fd, 258, 1 + u);
          }
        } else {
          literal(w);
          put_match(w, fl, fd, 258, 1);
          for (unsigned t = 0; t < tail - 42; ++t) literal(w);
        }
        fl.put(w, 256);
      }
      SCOPED_TRACE("k " + std::to_string(k) + " tail " + std::to_string(tail));
      expect_same_as_zlib(w, scratch);
      if (HasFailure()) return;
    }
  }
}

// A fixed block starts the fast loop with at least 53 bits counted; a
// dynamic block can start it with almost none, because the code-length
// loop refills only when it runs low.  So the fast loop's first iteration
// may refill three times: before the loop, before a distance, after a
// match.  Here a short dynamic block on the long codes opens with two
// 10-11-bit literals and a 14-15-bit length (with extra bits), the most
// bits an iteration takes before its distance, and ends at every input
// offset around the margin.  Its header's length and bit alignment vary
// so that every count of bits left over is met, and the stream ends just
// before a guard page.
TEST(InflateFast, DynamicBlockEndingNearTheInputMarginReadsNothingPastIt) {
  const Huffman fl = fixed_litlen();
  const Huffman ll = long_litlen();
  InflateScratch scratch;
  const unsigned lits[12] = {'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'x'};
  for (unsigned align = 0; align < 8; ++align) {
    for (unsigned extra_dist = 0; extra_dist <= 14; ++extra_dist) {
      // Trailing zero lengths lengthen the header by 4 bits each.
      std::vector<unsigned> dist_lens = long_dist().lens();
      dist_lens.resize(dist_lens.size() + extra_dist, 0);
      const Huffman dd(dist_lens);
      for (unsigned n = 0; n <= 12; ++n) {
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
          std::mt19937_64 rng(((align * 16 + extra_dist) * 16 + n) * 4 + seed);
          BitWriter w;
          // A fixed block of `align` 9-bit literals shifts the bit
          // alignment of the dynamic header by one bit per literal.
          w.bits(0, 1);
          w.bits(1, 2);
          for (unsigned i = 0; i < align; ++i) fl.put(w, 200);
          fl.put(w, 256);
          dynamic_header(w, true, ll, dd);
          ll.put(w, rng() % 2 ? 'j' : 'k');
          ll.put(w, rng() % 2 ? 'j' : 'k');
          // Two long matches: the block enters the fast loop with more
          // than its output margin to go.
          put_match(w, ll, dd, 227 + static_cast<unsigned>(rng() % 32), 1);
          put_match(w, ll, dd, 227 + static_cast<unsigned>(rng() % 32),
                    1 + static_cast<unsigned>(rng() % 200));
          for (unsigned i = 0; i < n; ++i) {
            if (rng() % 3 == 0) {
              ll.put(w, lits[rng() % 12]);
            } else {
              const unsigned ds = static_cast<unsigned>(rng() % 16);
              const unsigned dist =
                  kDistBase[ds] + static_cast<unsigned>(rng() % (1u << kDistExtra[ds]));
              put_match(w, ll, dd, 227 + static_cast<unsigned>(rng() % 32), dist);
            }
          }
          ll.put(w, 256);
          SCOPED_TRACE("align " + std::to_string(align) + " extra_dist " +
                       std::to_string(extra_dist) + " n " + std::to_string(n) + " seed " +
                       std::to_string(seed));
          expect_same_as_zlib(w, scratch);
          if (HasFailure()) return;
        }
      }
    }
  }
}

// One scratch across streams whose tables differ in root width and
// sub-table layout: a stale entry from an earlier build would misdecode.
TEST(InflateFast, ScratchReusedAcrossDifferentTables) {
  std::vector<std::pair<Bytes, Bytes>> streams;  // (zlib stream, payload)
  for (const int mode : {2, 3, 0}) {
    const Bytes raw = make_payload(mode, 50000, 300 + static_cast<std::uint64_t>(mode));
    streams.emplace_back(deflate_with(raw, 9, Z_DEFAULT_STRATEGY), raw);
  }
  for (std::uint64_t seed = 40; seed < 42; ++seed) {
    BitWriter w;
    long_code_block(w, true, seed);
    Bytes expect;
    Bytes stream = oracle_stream(w, expect);
    streams.emplace_back(std::move(stream), std::move(expect));
  }
  InflateScratch scratch;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const std::size_t pick = (i * 3 + static_cast<std::size_t>(round)) % streams.size();
      const auto& [stream, raw] = streams[pick];
      Bytes out(raw.size());
      inflate_zlib(stream, out, scratch, /*verify_checksum=*/true);
      EXPECT_EQ(out, raw) << "round " << round << " stream " << i;
    }
  }
}

// Every frame of a generated archive — the corpus the cold scan decodes —
// inflates byte-identical to zlib, through inflate_zlib and through the
// Inflater's high-water view.
TEST(InflateFast, EveryArchiveFrameMatchesZlib) {
  // Per-process name: two test runs on one host must not share the archive.
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("mlio_test_inflate_fast_corpus_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  wl::GeneratorConfig cfg;
  cfg.seed = 11;
  cfg.n_jobs = 24;
  cfg.logs_per_job_scale = 0.25;
  cfg.files_per_log_scale = 0.25;
  const wl::WorkloadGenerator gen(wl::SystemProfile::cori_2019(), cfg);
  archive::Archive ar = archive::Archive::create(dir);
  archive::IngestOptions io;
  io.batches = 3;
  io.include_huge = true;
  io.write_snapshots = false;
  archive::ingest_generated(ar, gen, io);

  InflateScratch scratch;
  Inflater inflater;
  std::size_t frames = 0;
  for (const archive::PartitionInfo& p : ar.manifest().partitions) {
    const Bytes segment = real_vfs().read_file(ar.segment_path(p.id));
    for (const archive::IndexEntry& e :
         archive::read_index_bytes(real_vfs().read_file(ar.index_path(p.id)), p.id)) {
      ByteReader r(std::span<const std::byte>(segment).subspan(e.offset, e.size));
      ASSERT_EQ(r.u32(), darshan::kLogMagic);
      r.u16();  // version
      const std::uint16_t flags = r.u16();
      r.u32();  // CRC of the body
      const std::uint64_t body_size = r.u64();
      const std::uint64_t stored_size = r.u64();
      const std::span<const std::byte> stored = r.bytes(static_cast<std::size_t>(stored_size));
      ASSERT_TRUE(flags & darshan::kFlagCompressed);
      Bytes expect(static_cast<std::size_t>(body_size));
      uLongf n = static_cast<uLongf>(expect.size());
      ASSERT_EQ(::uncompress(reinterpret_cast<Bytef*>(expect.data()), &n,
                             reinterpret_cast<const Bytef*>(stored.data()),
                             static_cast<uLong>(stored.size())),
                Z_OK);
      Bytes out(expect.size());
      inflate_zlib(stored, out, scratch, /*verify_checksum=*/true);
      EXPECT_EQ(out, expect) << "partition " << p.id << " offset " << e.offset;
      const std::span<const std::byte> view =
          inflater.decompress_view(stored, expect.size(), InflateEngine::kFast, true);
      EXPECT_TRUE(std::equal(view.begin(), view.end(), expect.begin(), expect.end()));
      ++frames;
    }
  }
  std::filesystem::remove_all(dir);
  EXPECT_GT(frames, 200u);
  EXPECT_GT(gen.huge_job_count(), 0u);
}

TEST(InflateFast, RejectsHostileDynamicHeaders) {
  InflateScratch scratch;
  Bytes out(16);

  {  // HLIT beyond 286 literal/length codes.
    BitWriter w;
    w.bits(1, 1);   // final block
    w.bits(2, 2);   // dynamic
    w.bits(30, 5);  // HLIT = 287+30 > 286
    w.bits(0, 5);
    w.bits(0, 4);
    EXPECT_THROW(inflate_zlib(w.zlib_stream(), out, scratch, false), FormatError);
  }
  {  // Oversubscribed code-length code: all 19 symbols at length 1.
    BitWriter w;
    w.bits(1, 1);
    w.bits(2, 2);
    w.bits(0, 5);   // HLIT = 257
    w.bits(0, 5);   // HDIST = 1
    w.bits(15, 4);  // HCLEN = 19
    for (int i = 0; i < 19; ++i) w.bits(1, 3);
    EXPECT_THROW(inflate_zlib(w.zlib_stream(), out, scratch, false), FormatError);
  }
  {  // Incomplete code-length code: a single symbol of length 2 (Kraft < 1).
    BitWriter w;
    w.bits(1, 1);
    w.bits(2, 2);
    w.bits(0, 5);
    w.bits(0, 5);
    w.bits(15, 4);
    w.bits(2, 3);  // symbol 16 gets length 2
    for (int i = 0; i < 18; ++i) w.bits(0, 3);
    EXPECT_THROW(inflate_zlib(w.zlib_stream(), out, scratch, false), FormatError);
  }
  {  // Invalid fixed-Huffman literal: codes 286/287 exist in no valid stream.
    BitWriter w;
    w.bits(1, 1);  // final
    w.bits(1, 2);  // static Huffman
    // Length code 286: 8-bit code 0b11000110 (reversed on the wire).
    w.bits(0x63, 8);
    EXPECT_THROW(inflate_zlib(w.zlib_stream(), out, scratch, false), FormatError);
  }
  {  // Stored block whose LEN/NLEN don't complement.
    BitWriter w;
    w.bits(1, 1);
    w.bits(0, 2);  // stored
    w.bits(0, 5);  // pad to the byte boundary
    w.bits(4, 16);
    w.bits(0xFFFF, 16);  // NLEN should be ~4
    EXPECT_THROW(inflate_zlib(w.zlib_stream(), out, scratch, false), FormatError);
  }
  {  // Distance reaching before the start of the output: the first symbol
     // is a match (len 3, dist 1) with no bytes emitted yet.
    BitWriter w;
    w.bits(1, 1);
    w.bits(1, 2);     // static Huffman
    w.bits(0x40, 7);  // length code 257 (7-bit code 0000001, bit-reversed)
    w.bits(0x00, 5);  // distance code 0 -> distance 1
    EXPECT_THROW(inflate_zlib(w.zlib_stream(), out, scratch, false), FormatError);
  }
}

TEST(InflateFast, BadAdlerCaughtOnlyWhenVerifying) {
  const Bytes raw = make_payload(2, 400, 11);
  Bytes stream = deflate_with(raw, 6, Z_DEFAULT_STRATEGY);
  stream[stream.size() - 1] ^= std::byte{0x5A};
  InflateScratch scratch;
  Bytes out(raw.size());
  EXPECT_THROW(inflate_zlib(stream, out, scratch, /*verify_checksum=*/true), FormatError);
  inflate_zlib(stream, out, scratch, /*verify_checksum=*/false);  // body still decodes
  EXPECT_EQ(out, raw);
}

}  // namespace
}  // namespace mlio::util
