#include "util/bits.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/bit_stream.h"

namespace plg {
namespace {

TEST(Bits, BitWidth) {
  EXPECT_EQ(bit_width_u64(0), 0);
  EXPECT_EQ(bit_width_u64(1), 1);
  EXPECT_EQ(bit_width_u64(2), 2);
  EXPECT_EQ(bit_width_u64(255), 8);
  EXPECT_EQ(bit_width_u64(256), 9);
  EXPECT_EQ(bit_width_u64(~std::uint64_t{0}), 64);
}

TEST(Bits, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(4), 2);
  EXPECT_EQ(floor_log2(std::uint64_t{1} << 63), 63);
}

TEST(Bits, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2((std::uint64_t{1} << 40) + 1), 41);
}

TEST(Bits, FloorCeilRelation) {
  for (std::uint64_t x = 1; x < 10000; ++x) {
    const bool pow2 = (x & (x - 1)) == 0;
    if (pow2) {
      EXPECT_EQ(floor_log2(x), ceil_log2(x)) << x;
    } else {
      EXPECT_EQ(floor_log2(x) + 1, ceil_log2(x)) << x;
    }
  }
}

TEST(Bits, IdWidthHoldsAllIds) {
  for (std::uint64_t n = 1; n < 5000; n = n * 3 / 2 + 1) {
    const int w = id_width(n);
    ASSERT_GE(w, 1);
    // Every id in [0, n) fits in w bits.
    EXPECT_LT(n - 1, std::uint64_t{1} << w) << n;
    // And w is tight (except the n == 1 floor of one bit).
    if (n > 2) {
      EXPECT_GE(n - 1, std::uint64_t{1} << (w - 1)) << n;
    }
  }
}

TEST(Bits, WordsForBits) {
  EXPECT_EQ(words_for_bits(0), 0u);
  EXPECT_EQ(words_for_bits(1), 1u);
  EXPECT_EQ(words_for_bits(64), 1u);
  EXPECT_EQ(words_for_bits(65), 2u);
  EXPECT_EQ(words_for_bits(128), 2u);
  EXPECT_EQ(words_for_bits(129), 3u);
}

// --- decode-plan primitives (random-access word extraction) ------------

TEST(Bits, ExtractBitsMatchesReferenceAtEveryOffsetAndWidth) {
  // Fixed pseudo-random words; reference implementation reads bit by bit.
  const std::uint64_t words[4] = {0x0123456789abcdefULL, 0xfedcba9876543210ULL,
                                  0xdeadbeefcafef00dULL, 0x5555aaaa33339999ULL};
  const auto ref_bit = [&](std::uint64_t pos) {
    return (words[pos >> 6] >> (pos & 63)) & 1u;
  };
  for (int width = 1; width <= 64; ++width) {
    for (std::uint64_t pos = 0; pos + width <= 256; pos += 7) {
      std::uint64_t expect = 0;
      for (int b = 0; b < width; ++b) {
        expect |= ref_bit(pos + static_cast<std::uint64_t>(b)) << b;
      }
      ASSERT_EQ(extract_bits(words, pos, width), expect)
          << "pos " << pos << " width " << width;
    }
  }
}

TEST(Bits, DepositBitsOverwritesOnlyItsField) {
  // Every width and many offsets, including fields that straddle a word
  // boundary: the field reads back as the value, every other bit keeps
  // its old state.
  const std::uint64_t base[4] = {0x0123456789abcdefULL, 0xfedcba9876543210ULL,
                                 0xdeadbeefcafef00dULL, 0x5555aaaa33339999ULL};
  const std::uint64_t value = 0xa5c3f00f96e1b44bULL;
  for (int width = 1; width <= 64; ++width) {
    for (std::uint64_t pos = 0; pos + width <= 256; pos += 5) {
      std::uint64_t words[4] = {base[0], base[1], base[2], base[3]};
      deposit_bits(words, pos, width, value);
      const std::uint64_t mask =
          width < 64 ? (std::uint64_t{1} << width) - 1 : ~std::uint64_t{0};
      ASSERT_EQ(extract_bits(words, pos, width), value & mask)
          << "pos " << pos << " width " << width;
      for (std::uint64_t b = 0; b < 256; ++b) {
        if (b >= pos && b < pos + static_cast<std::uint64_t>(width)) continue;
        ASSERT_EQ((words[b >> 6] >> (b & 63)) & 1u,
                  (base[b >> 6] >> (b & 63)) & 1u)
            << "bit " << b << " moved; pos " << pos << " width " << width;
      }
    }
  }
}

TEST(Bits, AppendBitsCopiesMasksAndTouchesOnlyItsWords) {
  // Every destination offset in a word and every length up to three
  // words, from a source whose bits past `bits` are not zero: the field
  // reads back as the source, bits below it keep their old state, the
  // rest of the last touched word is zero, and later words are untouched.
  const std::uint64_t src[3] = {0x0123456789abcdefULL, 0xfedcba9876543210ULL,
                                0xdeadbeefcafef00dULL};
  const std::uint64_t fill = 0x5555aaaa33339999ULL;
  for (std::uint64_t pos = 0; pos < 128; pos += 3) {
    for (std::uint64_t bits = 0; bits <= 192; ++bits) {
      std::uint64_t dst[6] = {fill, fill, fill, fill, fill, fill};
      append_bits(dst, pos, src, bits);
      const std::uint64_t end = pos + bits;
      const std::uint64_t touched_end = bits == 0 ? pos : (end + 63) / 64 * 64;
      for (std::uint64_t b = 0; b < 6 * 64; ++b) {
        const std::uint64_t got = (dst[b >> 6] >> (b & 63)) & 1u;
        std::uint64_t want = (fill >> (b & 63)) & 1u;
        if (b >= pos && b < end) {
          want = (src[(b - pos) >> 6] >> ((b - pos) & 63)) & 1u;
        } else if (b >= end && b < touched_end) {
          want = 0;
        }
        ASSERT_EQ(got, want) << "bit " << b << "; pos " << pos << " bits "
                             << bits;
      }
    }
  }
}

TEST(Bits, AppendBitsBackToBackMatchesBitWriter) {
  // Labels packed back to back with append_bits give the words a
  // BitWriter reading each label field by field would.
  const std::uint64_t src[3] = {0x0123456789abcdefULL, 0xfedcba9876543210ULL,
                                0xdeadbeefcafef00dULL};
  const std::uint64_t lengths[] = {0, 1, 63, 64, 65, 7, 128, 0, 130, 33};
  std::uint64_t total = 0;
  for (const std::uint64_t len : lengths) total += len;
  std::vector<std::uint64_t> packed(words_for_bits(total), ~std::uint64_t{0});
  BitWriter want;
  std::uint64_t pos = 0;
  for (const std::uint64_t len : lengths) {
    append_bits(packed.data(), pos, src, len);
    pos += len;
    BitReader r(src, len);
    for (std::uint64_t left = len; left > 0;) {
      const int chunk = static_cast<int>(left < 64 ? left : 64);
      want.write_bits(r.read_bits(chunk), chunk);
      left -= static_cast<std::uint64_t>(chunk);
    }
  }
  EXPECT_EQ(packed, want.words());
}

TEST(Bits, FindSetBitScansAndRespectsEnd) {
  std::uint64_t words[3] = {0, 0, 0};
  EXPECT_EQ(find_set_bit(words, 0, 192), 192u);  // all zeros -> end
  words[1] = std::uint64_t{1} << 17;             // absolute bit 81
  EXPECT_EQ(find_set_bit(words, 0, 192), 81u);
  EXPECT_EQ(find_set_bit(words, 81, 192), 81u);   // inclusive at pos
  EXPECT_EQ(find_set_bit(words, 82, 192), 192u);  // strictly after
  EXPECT_EQ(find_set_bit(words, 0, 81), 81u);     // end excludes the bit
  // A set bit beyond `end` inside the same word must not count.
  EXPECT_EQ(find_set_bit(words, 64, 80), 80u);
  // Empty range.
  EXPECT_EQ(find_set_bit(words, 50, 50), 50u);
}

TEST(Bits, ContainsIdMatchesLinearScan) {
  // Pack fields of every width 1..36 at an awkward bit offset and compare
  // the SWAR/word-parallel answer against a plain linear scan, probing
  // present values, absent values, and out-of-range targets.
  for (int width = 1; width <= 36; ++width) {
    const std::uint64_t uw = static_cast<std::uint64_t>(width);
    const std::uint64_t mask =
        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << uw) - 1;
    const std::uint64_t count = 23;
    const std::uint64_t base = 13;  // unaligned payload start
    std::uint64_t words[32] = {};
    std::uint64_t fields[23];
    std::uint64_t state = 0x9a7ec0deULL + static_cast<std::uint64_t>(width);
    for (std::uint64_t i = 0; i < count; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      fields[i] = (state >> 20) & mask;
      const std::uint64_t pos = base + i * uw;
      words[pos >> 6] |= (fields[i] & mask) << (pos & 63);
      if (((pos & 63) + uw) > 64) {
        words[(pos >> 6) + 1] |= fields[i] >> (64 - (pos & 63));
      }
    }
    const auto linear = [&](std::uint64_t target) {
      for (std::uint64_t i = 0; i < count; ++i) {
        if (fields[i] == target) return true;
      }
      return false;
    };
    for (std::uint64_t i = 0; i < count; ++i) {
      ASSERT_TRUE(contains_id(words, base, width, count, fields[i]))
          << "width " << width << " field " << i;
    }
    for (std::uint64_t probe = 0; probe <= mask && probe < 300; ++probe) {
      ASSERT_EQ(contains_id(words, base, width, count, probe), linear(probe))
          << "width " << width << " probe " << probe;
    }
    // Out-of-range target can never match (and must not wrap the SWAR
    // pattern); zero count matches nothing.
    if (width < 64) {
      EXPECT_FALSE(contains_id(words, base, width, count, mask + 1));
    }
    EXPECT_FALSE(contains_id(words, base, width, 0, fields[0]));
    // Prefix counts: membership of the last field flips exactly when the
    // count crosses it (tail-mask correctness).
    const std::uint64_t last = fields[count - 1];
    if (!linear(last) || fields[count - 1] != fields[0]) {
      bool seen = false;
      for (std::uint64_t c = 0; c <= count; ++c) {
        for (std::uint64_t i = 0; i < c; ++i) {
          if (fields[i] == last) seen = true;
        }
        ASSERT_EQ(contains_id(words, base, width, c, last), seen)
            << "width " << width << " prefix " << c;
        if (seen) break;
      }
    }
  }
}

}  // namespace
}  // namespace plg
