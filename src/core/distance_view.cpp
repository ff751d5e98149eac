#include "core/distance_view.h"

#include <algorithm>

#include "core/bit_cursor.h"
#include "core/distance_scheme.h"
#include "util/bits.h"
#include "util/errors.h"

namespace plg {

namespace {

/// Per-field "value <= j" over fields whose bit b sits in planes[b] at
/// the field's lowest bit: one bit per lane of `lanes`, set where the
/// field is at most j. An MSB-first compare against the constant j.
std::uint64_t le_mask(const std::uint64_t* planes, int dw,
                      std::uint64_t lanes, std::uint64_t j) noexcept {
  std::uint64_t lt = 0;
  std::uint64_t eq = lanes;
  for (int b = dw - 1; b >= 0; --b) {
    if (((j >> b) & 1) != 0) {
      lt |= eq & ~planes[b];
      eq &= planes[b];
    } else {
      eq &= ~planes[b];
    }
  }
  return lt | eq;
}

/// min(far, min over ranks r with du, dv < far of du + dv) for two
/// complete fat tables of k dw-bit fields at absolute bit offsets ta
/// and tb. Word-parallel: each step loads floor(64 / dw) fields of both
/// tables and looks for the smallest t below the best so far for which
/// some field has du <= j and dv <= t - j (that is, du + dv <= t; both
/// are then <= f < far, so the oracle's "< far" filter holds too).
/// Requires f <= kPlaneJoinMaxF, so dw <= 4 and t < far <= 8.
std::uint64_t join_planes(const std::uint64_t* wa, std::uint64_t ta,
                          const std::uint64_t* wb, std::uint64_t tb,
                          std::uint64_t k, int dw,
                          std::uint64_t far) noexcept {
  const auto udw = static_cast<std::uint64_t>(dw);
  const std::uint64_t per = 64 / udw;
  std::uint64_t lows = 0;  // 1 at each field's lowest bit
  for (std::uint64_t i = 0; i < per; ++i) {
    lows |= std::uint64_t{1} << (i * udw);
  }
  std::uint64_t best = far;
  for (std::uint64_t r = 0; r < k && best > 0; r += per) {
    const std::uint64_t fields = std::min(per, k - r);
    const int bits = static_cast<int>(fields * udw);
    const std::uint64_t lanes =
        bits == 64 ? lows : lows & ((std::uint64_t{1} << bits) - 1);
    const std::uint64_t ca = extract_bits(wa, ta + r * udw, bits);
    const std::uint64_t cb = extract_bits(wb, tb + r * udw, bits);
    std::uint64_t pa[4];
    std::uint64_t pb[4];
    for (int b = 0; b < dw; ++b) {
      pa[b] = (ca >> b) & lanes;
      pb[b] = (cb >> b) & lanes;
    }
    std::uint64_t la[8];
    std::uint64_t lb[8];
    for (std::uint64_t j = 0; j < best; ++j) {
      la[j] = le_mask(pa, dw, lanes, j);
      lb[j] = le_mask(pb, dw, lanes, j);
    }
    for (std::uint64_t t = 0; t < best; ++t) {
      std::uint64_t hit = 0;
      for (std::uint64_t j = 0; j <= t; ++j) hit |= la[j] & lb[t - j];
      if (hit != 0) {
        best = t;
        break;
      }
    }
  }
  return best;
}

}  // namespace

DistanceView DistanceView::parse(const std::uint64_t* words,
                                 std::uint64_t base_bits,
                                 std::uint64_t size_bits) {
  BitCursor c{words, base_bits, base_bits + size_bits};
  // Header walk — field for field what distance_scheme.cpp's parse()
  // reads, with the identical rejection conditions.
  const std::uint64_t width = c.read_gamma();
  if (width > 32) throw DecodeError("distance: absurd id width");
  DistanceView v;
  v.f_ = c.read_gamma0();
  if (v.f_ > kMaxHopBound) throw DecodeError("distance: hop bound f > 254");
  v.k_ = c.read_gamma0();
  v.fat_ = c.read_bits(1) != 0;
  v.id_ = c.read_bits(static_cast<int>(width));
  if (v.fat_) v.rank_ = c.read_gamma0();
  v.words_ = words;
  v.width_ = static_cast<std::uint8_t>(width);
  v.dist_width_ = static_cast<std::uint8_t>(id_width(v.f_ + 2));
  v.table_ = c.pos;

  // Everything below is precomputation, not validation: the oracle
  // parses these labels too and fails (or not) only when it reads past
  // the end. The divided forms cannot overflow on forged counts.
  if (v.f_ > kPlaneJoinMaxF) return v;  // outside the join's range
  const std::uint64_t dw = v.dist_width_;
  if (v.k_ > (c.end - v.table_) / dw) return v;  // table overruns the label
  if (v.fat_) {
    v.complete_ = v.rank_ < v.k_;
    return v;
  }
  c.pos = v.table_ + v.k_ * dw;
  try {
    v.ball_count_ = c.read_gamma0();
  } catch (const DecodeError&) {
    return v;  // the oracle throws here; leave the pair to it
  }
  v.ball_ = c.pos;
  v.complete_ = v.ball_count_ <= (c.end - v.ball_) / (width + dw);
  return v;
}

// plglint: noexcept-hot-path
std::uint64_t DistanceView::scan_ball(std::uint64_t needle,
                                      std::uint64_t far) const noexcept {
  // The oracle's scan_thin, read for read: it stops at the target or at
  // the first id past it (the encoder sorts balls by id).
  const int entry_width = width_ + dist_width_;
  const std::uint64_t id_mask = (std::uint64_t{1} << width_) - 1;
  std::uint64_t p = ball_;
  for (std::uint64_t i = 0; i < ball_count_;
       ++i, p += static_cast<std::uint64_t>(entry_width)) {
    const std::uint64_t entry = extract_bits(words_, p, entry_width);
    const std::uint64_t id = entry & id_mask;
    if (id == needle) return entry >> width_;
    if (id > needle) return far;
  }
  return far;
}

// plglint: noexcept-hot-path
std::optional<std::uint32_t> distance_view(const DistanceView& a,
                                           const DistanceView& b) {
  if (a.width_ != b.width_ || a.f_ != b.f_ || a.k_ != b.k_) {
    // plglint-disable(hot-path-throw): DecodeError on mismatched labels
    // is the decoder's documented failure contract (callers catch it).
    throw DecodeError("distance: labels come from different encodings");
  }
  if (a.id_ == b.id_) return 0;
  const std::uint64_t far = a.f_ + 1;
  const int dw = a.dist_width_;
  std::uint64_t best = far;
  if (a.fat_ || b.fat_) {
    // The fat endpoint's distance, read from the other label's table
    // (a's rank when both are fat, as the oracle reads it).
    const DistanceView& fat_side = a.fat_ ? a : b;
    const DistanceView& other = a.fat_ ? b : a;
    best = std::min(best, extract_bits(other.words_,
                                       other.table_ + fat_side.rank_ *
                                           static_cast<std::uint64_t>(dw),
                                       dw));
  } else {
    best = join_planes(a.words_, a.table_, b.words_, b.table_, a.k_, dw,
                       far);
    best = std::min(best, a.scan_ball(b.id_, far));
    best = std::min(best, b.scan_ball(a.id_, far));
  }
  if (best > a.f_) return std::nullopt;
  return static_cast<std::uint32_t>(best);
}

}  // namespace plg
