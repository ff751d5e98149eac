// DistanceView: a zero-copy decode plan for one Lemma 7 distance label
// (core/distance_scheme.h) — what LabelView is for thin/fat adjacency.
//
// DistanceScheme::distance takes two materialized Labels (a copy out of
// the store each) and walks them with a BitReader one field at a time: a
// thin x thin query reads all 2k fat-table entries serially, and a
// fat x any query skips to one entry 64 bits at a time. The layout is
// fixed-width after the header, so a view parses only the header, in
// place, and answers from absolute offsets:
//
//   parse (per query, straight from the store's packed bits):
//     walk the header exactly as distance_scheme.cpp's parse() does —
//     gamma width (rejecting > 32), gamma0 f (rejecting > kMaxHopBound),
//     gamma0 k, fat bit, id, gamma0 rank when fat — and record where the
//     fat table starts. A thin label's ball count is read too (a failure
//     there is not a rejection; it only clears `complete`).
//
//   query:
//     fat x any  — one extract_bits at table + rank * dw in the other
//       label's table;
//     thin x thin — a word-parallel join of the two fat tables: each
//       load covers floor(64 / dw) fields of each table, its even and
//       odd fields go to lanes of 2 * dw bits, one add per word forms
//       every du + dv at once, and a has-less test per word lowers the
//       best sum found so far. The two thin balls are then scanned like
//       the oracle's scan_thin, with its early exit on the first id past
//       the target, so an unsorted ball answers as the oracle does.
//
// Equivalence contract (differentially fuzzed in
// tests/test_distance_view.cpp): parse() throws DecodeError exactly when
// the oracle's header parse throws, with the same message, and for two
// complete() views distance_view() returns exactly what
// DistanceScheme::distance returns on the same bits, or throws what it
// throws. A view is complete when its fat table and (thin) ball fit
// inside the label and (fat) its rank indexes the table: exactly the
// conditions under which the oracle's reads cannot run off the label.
// The join is exact for every hop bound the header admits (f <=
// kMaxHopBound, so fields of at most 8 bits), so encoder output is
// always complete; callers answer pairs with an incomplete view — a
// corrupt label — through the oracle.
//
// Ownership: like LabelView, a DistanceView aliases the words it was
// parsed from and owns nothing; it is a POD that any number of threads
// may read concurrently.
#pragma once

#include <cstdint>
#include <optional>

#include "core/label.h"
#include "util/lifetime.h"

namespace plg {

// A borrow: views alias the buffer they were parsed from and must be
// stored next to something that owns it (util/lifetime.h).
class PLG_POINTS_INTO(store, mapped, words, labels, label) DistanceView {
 public:
  DistanceView() = default;

  /// Parses the Lemma 7 label occupying bits [base_bits, base_bits +
  /// size_bits) of `words`. Throws DecodeError under exactly the
  /// conditions the oracle's header parse does. The view aliases `words`.
  static DistanceView parse(const std::uint64_t* words PLG_LIFETIME_BOUND,
                            std::uint64_t base_bits, std::uint64_t size_bits);

  /// Convenience: a view over a materialized Label, which must outlive it.
  static DistanceView parse(const Label& l PLG_LIFETIME_BOUND) {
    return parse(l.words().data(), 0, l.size_bits());
  }

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] std::uint64_t f() const noexcept { return f_; }
  [[nodiscard]] std::uint64_t k() const noexcept { return k_; }
  [[nodiscard]] bool fat() const noexcept { return fat_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  /// Fat rank; 0 for thin labels.
  [[nodiscard]] std::uint64_t rank() const noexcept { return rank_; }
  /// True when distance_view may answer from this view (see above).
  [[nodiscard]] bool complete() const noexcept { return complete_; }

 private:
  friend std::optional<std::uint32_t> distance_view(const DistanceView& a,
                                                    const DistanceView& b);

  /// The oracle's scan_thin over this view's ball: the distance stored
  /// for `needle`, or `far` when the scan stops without finding it.
  [[nodiscard]] std::uint64_t scan_ball(std::uint64_t needle,
                                        std::uint64_t far) const noexcept;

  const std::uint64_t* words_ = nullptr;  ///< aliased storage (not owned)
  std::uint64_t table_ = 0;   ///< absolute bit offset of the fat table
  std::uint64_t ball_ = 0;    ///< absolute bit offset of the first ball entry
  std::uint64_t ball_count_ = 0;
  std::uint64_t f_ = 0;
  std::uint64_t k_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t rank_ = 0;
  std::uint8_t width_ = 0;       ///< id field width
  std::uint8_t dist_width_ = 0;  ///< table field width, id_width(f + 2) <= 8
  bool fat_ = false;
  bool complete_ = false;
};

/// d(u, v) when it is at most f, else nullopt — semantically identical to
/// DistanceScheme::distance on the underlying labels. Precondition: both
/// views are complete() and alive. Throws DecodeError when the labels
/// come from different encodings.
[[nodiscard]] std::optional<std::uint32_t> distance_view(const DistanceView& a,
                                                         const DistanceView& b);

}  // namespace plg
