// Small bit-arithmetic helpers used throughout the library.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace plg {

/// Number of bits needed to represent `x` (0 -> 0, 1 -> 1, 255 -> 8).
constexpr int bit_width_u64(std::uint64_t x) noexcept {
  return static_cast<int>(std::bit_width(x));
}

/// floor(log2(x)) for x >= 1.
constexpr int floor_log2(std::uint64_t x) noexcept {
  return static_cast<int>(std::bit_width(x)) - 1;
}

/// ceil(log2(x)) for x >= 1 (log2(1) == 0).
constexpr int ceil_log2(std::uint64_t x) noexcept {
  return x <= 1 ? 0 : static_cast<int>(std::bit_width(x - 1));
}

/// Width in bits of an identifier field able to hold values in [0, n).
/// This is the `log n` of the paper's label layouts, made concrete:
/// ceil(log2(n)) bits, and at least 1 so that n == 1 still has a field.
constexpr int id_width(std::uint64_t n) noexcept {
  const int w = ceil_log2(n);
  return w == 0 ? 1 : w;
}

/// Round `bits` up to whole 64-bit words.
constexpr std::size_t words_for_bits(std::size_t bits) noexcept {
  return (bits + 63) / 64;
}

// ---------------------------------------------------------------------------
// Random-access word extraction — the decode-plan primitives.
//
// BitReader is a *sequential* cursor: every field costs a bounds check and
// cursor bookkeeping, which is the right contract for parsing untrusted
// headers but wasteful for the fixed-width payloads behind them. The
// helpers below are the random-access counterpart used by LabelView
// (core/label_view.h): the caller proves the extent once, then reads any
// field position directly. None of them bounds-check — they touch only
// the words containing the requested bits, so the caller's extent check
// is the whole safety argument.

/// Reads the `width`-bit field starting at absolute bit `pos` of `words`
/// (little-endian-within-word, the BitWriter layout). 1 <= width <= 64.
/// Touches words[pos/64] and, only when the field spans a boundary,
/// words[pos/64 + 1] — never beyond the words holding [pos, pos+width).
inline std::uint64_t extract_bits(const std::uint64_t* words,
                                  std::uint64_t pos, int width) noexcept {
  const std::uint64_t word = pos >> 6;
  const int offset = static_cast<int>(pos & 63);
  std::uint64_t value = words[word] >> offset;
  if (offset + width > 64) {
    value |= words[word + 1] << (64 - offset);
  }
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;
  return value;
}

/// Overwrites the `width`-bit field starting at absolute bit `pos` of
/// `words` with the low `width` bits of `value`: the in-place inverse of
/// extract_bits, touching the same one or two words and no others.
/// 1 <= width <= 64. Encoders use it to patch fields of a label already
/// laid out by BitWriter.
inline void deposit_bits(std::uint64_t* words, std::uint64_t pos, int width,
                         std::uint64_t value) noexcept {
  const std::uint64_t mask =
      width < 64 ? (std::uint64_t{1} << width) - 1 : ~std::uint64_t{0};
  value &= mask;
  const std::uint64_t word = pos >> 6;
  const int offset = static_cast<int>(pos & 63);
  words[word] = (words[word] & ~(mask << offset)) | (value << offset);
  if (offset + width > 64) {
    const int placed = 64 - offset;  // 1..63: the low bits written above
    words[word + 1] =
        (words[word + 1] & ~(mask >> placed)) | (value >> placed);
  }
}

/// Copies the `bits`-bit string `src` (BitWriter layout) to absolute bit
/// `pos` of the word array at `dst`, a word at a time with a funnel
/// shift: the word-level append writers use to pack labels back to back.
/// Bits of `src` past `bits` are masked off, so a source with stale tail
/// bits packs exactly like a clean one. Bits of word pos/64 below `pos`
/// are kept; every bit of the touched words after pos + bits comes out
/// zero. Touches words pos/64 .. (pos+bits-1)/64 of dst and
/// src[0 .. (bits-1)/64] only. dst's words are loaded and stored with
/// memcpy, so it may be any byte buffer — a serialized blob, say —
/// with no alignment or type requirement.
inline void append_bits(void* dst, std::uint64_t pos, const std::uint64_t* src,
                        std::uint64_t bits) noexcept {
  if (bits == 0) return;
  auto* out = static_cast<unsigned char*>(dst) + (pos >> 6) * 8;
  const auto store = [&out](std::uint64_t i, std::uint64_t w) {
    std::memcpy(out + i * 8, &w, sizeof(w));
  };
  const int offset = static_cast<int>(pos & 63);
  const std::uint64_t n = (bits + 63) >> 6;
  const int tail = static_cast<int>(bits & 63);
  const std::uint64_t last =
      tail == 0 ? src[n - 1] : src[n - 1] & ((std::uint64_t{1} << tail) - 1);
  // (w >> 1) >> (63 - offset) is w >> (64 - offset), and 0 at offset 0.
  std::uint64_t carry = 0;
  std::memcpy(&carry, out, sizeof(carry));
  carry &= (std::uint64_t{1} << offset) - 1;
  for (std::uint64_t i = 0; i + 1 < n; ++i) {
    store(i, carry | (src[i] << offset));
    carry = (src[i] >> 1) >> (63 - offset);
  }
  store(n - 1, carry | (last << offset));
  if (static_cast<std::uint64_t>(offset) + bits > n * 64) {
    store(n, (last >> 1) >> (63 - offset));
  }
}

/// Absolute index of the first 1-bit in [pos, end) of `words`, or `end`
/// when the range is all zeros. Scans word-at-a-time (one load + ctz per
/// 64 bits) instead of bit-at-a-time; bits at/after `end` inside the last
/// word are ignored, so trailing padding never counts as a hit.
inline std::uint64_t find_set_bit(const std::uint64_t* words,
                                  std::uint64_t pos,
                                  std::uint64_t end) noexcept {
  while (pos < end) {
    const std::uint64_t offset = pos & 63;
    const std::uint64_t avail0 = 64 - offset;
    const std::uint64_t left = end - pos;
    const std::uint64_t avail = avail0 < left ? avail0 : left;
    const std::uint64_t window = words[pos >> 6] >> offset;
    if (window != 0) {
      const std::uint64_t tz =
          static_cast<std::uint64_t>(std::countr_zero(window));
      if (tz < avail) return pos + tz;
    }
    pos += avail;
  }
  return end;
}

/// True iff any of the `count` consecutive `width`-bit fields packed at
/// absolute bit `pos` of `words` equals `target`. Word-parallel when
/// width <= 32: each probe extracts floor(64/width) fields in one
/// unaligned load and tests them simultaneously with the SWAR zero-field
/// trick — x = chunk XOR pattern has a zero field iff
/// (x - lows) & ~x & highs is nonzero, where `lows` has a 1 in each
/// field's LSB and `highs` in each field's MSB. (The intermediate value
/// can flag fields *above* a genuine zero too, borrow pollution, but as
/// an any-zero predicate it is exact — which is all membership needs.)
/// Falls back to one extract per field for width > 32. No bounds checks:
/// the caller guarantees [pos, pos + count*width) lies inside `words`.
inline bool contains_id(const std::uint64_t* words, std::uint64_t pos,
                        int width, std::uint64_t count,
                        std::uint64_t target) noexcept {
  if (count == 0) return false;
  const std::uint64_t uwidth = static_cast<std::uint64_t>(width);
  // A target that does not fit in `width` bits can never match a field
  // (and would corrupt the SWAR pattern below).
  if (width < 64 && (target >> uwidth) != 0) return false;
  if (width > 32) {
    for (std::uint64_t i = 0; i < count; ++i) {
      if (extract_bits(words, pos + i * uwidth, width) == target) return true;
    }
    return false;
  }
  const std::uint64_t per = 64 / uwidth;  // fields per probe (>= 2)
  std::uint64_t lows = 0;                 // 1 in each field's LSB
  for (std::uint64_t i = 0; i < per; ++i) {
    lows |= std::uint64_t{1} << (i * uwidth);
  }
  const std::uint64_t pattern = lows * target;  // target in every field
  const std::uint64_t highs = lows << (uwidth - 1);
  std::uint64_t i = 0;
  for (; i + per <= count; i += per) {
    const std::uint64_t chunk =
        extract_bits(words, pos + i * uwidth, static_cast<int>(per * uwidth));
    const std::uint64_t x = chunk ^ pattern;
    if ((x - lows) & ~x & highs) return true;
  }
  if (i < count) {  // tail: t < per fields, masks rebuilt for t
    const std::uint64_t t = count - i;
    const std::uint64_t tail_lows = lows & ((std::uint64_t{1} << (t * uwidth)) - 1);
    const std::uint64_t chunk =
        extract_bits(words, pos + i * uwidth, static_cast<int>(t * uwidth));
    const std::uint64_t x = chunk ^ (tail_lows * target);
    if ((x - tail_lows) & ~x & (tail_lows << (uwidth - 1))) return true;
  }
  return false;
}

}  // namespace plg
