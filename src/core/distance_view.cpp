#include "core/distance_view.h"

#include <algorithm>

#include "core/bit_cursor.h"
#include "core/distance_scheme.h"
#include "util/bits.h"
#include "util/errors.h"

namespace plg {

namespace {

/// min(far, min over ranks r with du, dv < far of du + dv) for two
/// complete fat tables of k dw-bit fields at absolute bit offsets ta
/// and tb, by lane sums. Each step loads floor(64 / dw) fields of both
/// tables and splits each load into its even and odd fields, one per
/// lane of 2 * dw bits; adding the two tables' lanes gives every du + dv
/// without a carry out of its lane (the sums are below 2^(dw + 1)). The
/// best so far then steps down while some valid lane is below it. A sum
/// with a field >= far is >= far >= best, so the oracle's "< far" filter
/// needs no test of its own. Exact for every dw <= 8, that is every
/// f <= kMaxHopBound (see below()).
std::uint64_t join_tables(const std::uint64_t* wa, std::uint64_t ta,
                          const std::uint64_t* wb, std::uint64_t tb,
                          std::uint64_t k, int dw,
                          std::uint64_t far) noexcept {
  const auto udw = static_cast<std::uint64_t>(dw);
  const std::uint64_t lane = 2 * udw;
  const std::uint64_t per = 64 / udw;  // fields per load
  std::uint64_t ones = 0;  // 1 at the bottom of each lane
  for (std::uint64_t at = 0; at < 64; at += lane) {
    ones |= std::uint64_t{1} << at;
  }
  const std::uint64_t fields_mask = ones * ((std::uint64_t{1} << udw) - 1);
  // The top bits of the first `lanes` lanes. At dw = 3 and dw = 7 the
  // word cuts the last lane short; bit 63 still leaves it dw + 1 bits,
  // room for any sum.
  const auto tops = [lane](std::uint64_t lanes) {
    std::uint64_t h = 0;
    for (std::uint64_t j = 0; j < lanes; ++j) {
      h |= std::uint64_t{1} << std::min<std::uint64_t>((j + 1) * lane - 1, 63);
    }
    return h;
  };
  // Nonzero iff some lane of x with its top bit in h is below n (the
  // has-less test). For n <= 2^(lane bits - 1) the lowest lane below n
  // borrows into its top bit, which is clear in x; a lane >= n borrows
  // nothing and sets its top bit only where x has it set. Lanes above
  // the lowest borrowing one may read wrong, which leaves "some" exact.
  // Here n <= far < 2^dw, and even a cut lane has dw + 1 bits.
  const auto below = [ones](std::uint64_t x, std::uint64_t n,
                             std::uint64_t h) {
    return (x - ones * n) & ~x & h;
  };
  std::uint64_t best = far;
  const auto fold = [&](std::uint64_t r, std::uint64_t fields,
                        std::uint64_t h_even, std::uint64_t h_odd) {
    const int bits = static_cast<int>(fields * udw);
    const std::uint64_t ca = extract_bits(wa, ta + r * udw, bits);
    const std::uint64_t cb = extract_bits(wb, tb + r * udw, bits);
    const std::uint64_t even = (ca & fields_mask) + (cb & fields_mask);
    const std::uint64_t odd =
        ((ca >> udw) & fields_mask) + ((cb >> udw) & fields_mask);
    while (best > 0 &&
           (below(even, best, h_even) | below(odd, best, h_odd)) != 0) {
      --best;
    }
  };
  const std::uint64_t h_even = tops((per + 1) / 2);
  const std::uint64_t h_odd = tops(per / 2);
  std::uint64_t r = 0;
  for (; r + per <= k && best > 0; r += per) fold(r, per, h_even, h_odd);
  if (r < k && best > 0) {
    // The partial last load: lanes past its fields read 0 and are masked.
    const std::uint64_t fields = k - r;
    fold(r, fields, tops((fields + 1) / 2), tops(fields / 2));
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
    best = join_tables(a.words_, a.table_, b.words_, b.table_, a.k_, dw,
                       far);
    best = std::min(best, a.scan_ball(b.id_, far));
    best = std::min(best, b.scan_ball(a.id_, far));
  }
  if (best > a.f_) return std::nullopt;
  return static_cast<std::uint32_t>(best);
}

}  // namespace plg
