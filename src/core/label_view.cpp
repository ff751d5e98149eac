#include "core/label_view.h"

#include "core/bit_cursor.h"
#include "util/bits.h"
#include "util/errors.h"

namespace plg {

LabelView LabelView::parse(const std::uint64_t* words, std::uint64_t base_bits,
                           std::uint64_t size_bits) {
  BitCursor c{words, base_bits, base_bits + size_bits};
  // Header walk — field for field what thin_fat_parse_header reads, with
  // the identical rejection conditions.
  const std::uint64_t width64 = c.read_gamma();
  if (width64 > 32) throw DecodeError("thin_fat: absurd id width");
  LabelView v;
  v.words_ = words;
  v.end_ = base_bits + size_bits;
  v.width_ = static_cast<std::uint8_t>(width64);
  v.fat_ = c.read_bits(1) != 0;
  v.id_ = c.read_bits(static_cast<int>(width64));
  v.count_ = c.read_gamma() - 1;
  v.payload_ = c.pos;

  // Everything below is precomputation, not validation: a label whose
  // payload is short or unsorted still parses (the oracle parses it
  // too); it just loses the fast search and is answered by the
  // oracle-identical fallback in thin_contains / label_view_adjacent.
  const std::uint64_t room = v.end_ - v.payload_;
  if (v.fat_) {
    v.complete_ = v.count_ <= room;
    v.sorted_ = true;  // unused for fat labels
  } else {
    // count_ * width would overflow for adversarial gamma values; the
    // divided form cannot (width_ >= 1 whenever parse succeeds).
    v.complete_ = v.count_ <= room / width64;
    v.sorted_ = false;
    if (v.complete_) {
      bool nondecreasing = true;
      std::uint64_t prev = 0;
      std::uint64_t p = v.payload_;
      for (std::uint64_t i = 0; i < v.count_; ++i, p += width64) {
        const std::uint64_t nb =
            extract_bits(words, p, static_cast<int>(width64));
        if (i > 0 && nb < prev) {
          nondecreasing = false;
          break;
        }
        prev = nb;
      }
      v.sorted_ = nondecreasing;
    }
  }
  return v;
}

// plglint: noexcept-hot-path
bool LabelView::thin_contains(std::uint64_t target) const {
  const std::uint64_t uw = width_;
  if (complete_ && sorted_) {
    // Lower-bound binary search on the fixed-width sorted ids, narrowing
    // to a window small enough that a couple of word-parallel probes
    // finish it. Invariant: every id before lo is < target, every id at
    // or after hi is >= target — so the first occurrence of target, if
    // any, lies in [lo, hi].
    std::uint64_t lo = 0;
    std::uint64_t hi = count_;
    constexpr std::uint64_t kWindow = 16;
    while (hi - lo > kWindow) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (extract_bits(words_, payload_ + mid * uw,
                       static_cast<int>(uw)) < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const std::uint64_t scan_end = hi < count_ ? hi + 1 : count_;
    return contains_id(words_, payload_ + lo * uw, static_cast<int>(uw),
                       scan_end - lo, target);
  }
  // Fallback for short or unsorted payloads (only corrupt labels get
  // here): replicate the oracle's sequential scan read for read — same
  // early exit on the first id past the target, same throw at the same
  // position when the declared list runs off the label.
  std::uint64_t p = payload_;
  for (std::uint64_t i = 0; i < count_; ++i, p += uw) {
    if (p + uw > end_) {
      // plglint-disable(hot-path-throw): corrupt-label rejection is the
      // decoder's documented failure contract (callers catch it).
      throw DecodeError("BitReader: read past end of stream");
    }
    const std::uint64_t nb = extract_bits(words_, p, static_cast<int>(uw));
    if (nb == target) return true;
    if (nb > target) return false;  // list is sorted (oracle's assumption)
  }
  return false;
}

// plglint: noexcept-hot-path
bool label_view_adjacent(const LabelView& a, const LabelView& b) {
  if (a.width_ != b.width_) {
    // plglint-disable(hot-path-throw): DecodeError on mismatched labels
    // is the decoder's documented failure contract (callers catch it).
    throw DecodeError("thin_fat: labels come from different graphs");
  }
  if (a.id_ == b.id_) return false;  // same vertex

  // Both fat: one bit of a's row answers the query.
  if (a.fat_ && b.fat_) {
    if (b.id_ >= a.count_) {
      // plglint-disable(hot-path-throw): corrupt-label rejection is the
      // decoder's documented failure contract (callers catch it).
      throw DecodeError("thin_fat: fat id out of row range");
    }
    const std::uint64_t bit = a.payload_ + b.id_;
    if (bit >= a.end_) {
      // plglint-disable(hot-path-throw): corrupt-label rejection is the
      // decoder's documented failure contract (callers catch it).
      throw DecodeError("BitReader: read past end of stream");
    }
    return ((a.words_[bit >> 6] >> (bit & 63)) & 1) != 0;
  }

  // At least one endpoint is thin: search its neighbor list for the
  // other identifier (a's list when a is thin, matching the oracle's
  // operand choice exactly).
  const LabelView& thin = a.fat_ ? b : a;
  const std::uint64_t other_id = a.fat_ ? a.id_ : b.id_;
  return thin.thin_contains(other_id);
}

}  // namespace plg
