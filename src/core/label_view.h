// LabelView: a zero-copy, pre-parsed "decode plan" for one thin/fat label.
//
// thin_fat_adjacent re-parses both labels on every query: a stateful
// BitReader walks the gamma-coded header bit-by-bit, then linearly scans
// the thin neighbor list one bounds-checked read_bits() at a time — O(deg)
// decoder round-trips per query. The label bits, however, are immutable,
// and a serving snapshot answers millions of queries against the same
// label set. LabelView splits the work accordingly:
//
//   parse (once per label, at snapshot admission):
//     walk the header exactly as thin_fat_parse_header does — gamma
//     width (rejecting > 32), fat bit, id, gamma-coded degree/k — and
//     record a POD plan: {words, payload bit offset, end offset, width,
//     fat, id, count} plus two precomputed facts about the payload:
//     whether its full extent fits inside the label (`complete`) and, for
//     thin labels, whether the neighbor list is nondecreasing (`sorted`).
//
//   query (millions of times, branch-free word extraction):
//     thin x any — binary-search the fixed-width sorted neighbor ids with
//       direct extract_bits(words, payload + i*width, width) loads, then
//       finish the final window word-parallel with contains_id (which
//       compares floor(64/width) packed ids per 64-bit probe when
//       width <= 32);
//     fat x fat — one single-bit probe of the row at payload + id.
//
// Rejection contract (enforced by the differential fuzz suite in
// tests/test_label_view.cpp): parse() throws DecodeError exactly when
// thin_fat_parse_header throws, and label_view_adjacent agrees with
// thin_fat_adjacent on every label pair whose views construct — answer
// for answer, throw for throw. Corrupt-but-parseable labels are where
// that bites: a bit-flipped thin list may be unsorted or truncated, and
// the oracle's linear scan early-exits at the first id greater than the
// target. The fast search is only equivalent to that scan when the list
// is complete and sorted — which is why parse() precomputes both flags
// and adjacent falls back to an oracle-identical sequential scan (same
// reads, same throws) whenever either fails. Healthy encoder output is
// always complete and sorted, so the fallback never runs on clean data.
//
// Ownership: a LabelView does NOT own its words — it points into the
// buffer it was parsed from (a LabelStore's packed bit section, or a
// Label's word vector). The holder must keep that buffer alive; in the
// service, Snapshot shards store their view vectors next to the
// shared_ptr of the LabelStore the views point into, so both share one
// lifetime. Views are immutable PODs after parse: any number of threads
// may query one concurrently without synchronization.
#pragma once

#include <cstdint>

#include "core/label.h"
#include "util/lifetime.h"

namespace plg {

// A borrow: views alias the buffer they were parsed from and must be
// stored next to something that owns it (util/lifetime.h).
class PLG_POINTS_INTO(store, mapped, words, labels, label) LabelView {
 public:
  /// Invalid view: valid() is false, adjacency must not be called.
  /// Exists so view tables can hold placeholders for labels that failed
  /// plan construction (callers fall back to the BitReader path).
  LabelView() = default;

  /// Parses the label occupying bits [base_bits, base_bits + size_bits)
  /// of `words`. Throws DecodeError under exactly the conditions
  /// thin_fat_parse_header does (truncated/malformed header, id width
  /// > 32). The returned view aliases `words`.
  static LabelView parse(const std::uint64_t* words PLG_LIFETIME_BOUND,
                         std::uint64_t base_bits, std::uint64_t size_bits);

  /// Convenience: a view over a materialized Label. The Label must
  /// outlive the view.
  static LabelView parse(const Label& l PLG_LIFETIME_BOUND) {
    return parse(l.words().data(), 0, l.size_bits());
  }

  [[nodiscard]] bool valid() const noexcept { return width_ != 0; }
  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] bool fat() const noexcept { return fat_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  /// Thin: degree (neighbor-list length). Fat: k (row length in bits).
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// True when the payload's declared extent fits inside the label.
  [[nodiscard]] bool complete() const noexcept { return complete_; }
  /// Thin: neighbor list verified nondecreasing at parse. Fat: true.
  [[nodiscard]] bool sorted() const noexcept { return sorted_; }

  /// True when the two plans decode identically: every parsed field
  /// agrees except the storage pointer (two views over different copies
  /// of the same bits — e.g. serial vs parallel admission, or in-memory
  /// vs mmap'd v3 shards — compare equal). Invalid views compare equal to
  /// each other.
  [[nodiscard]] bool plan_equals(const LabelView& o) const noexcept {
    return payload_ == o.payload_ && end_ == o.end_ && id_ == o.id_ &&
           count_ == o.count_ && width_ == o.width_ && fat_ == o.fat_ &&
           complete_ == o.complete_ && sorted_ == o.sorted_;
  }

 private:
  friend bool label_view_adjacent(const LabelView& a, const LabelView& b);

  /// Thin-side membership: is `target` in this view's neighbor list?
  /// Fast path (complete + sorted): binary search to a small window,
  /// word-parallel finish. Fallback: oracle-identical sequential scan —
  /// same early exit, same DecodeError at the same read.
  [[nodiscard]] bool thin_contains(std::uint64_t target) const;

  const std::uint64_t* words_ = nullptr;  ///< aliased storage (not owned)
  std::uint64_t payload_ = 0;  ///< absolute bit offset of the payload
  std::uint64_t end_ = 0;      ///< absolute bit offset one past the label
  std::uint64_t id_ = 0;
  std::uint64_t count_ = 0;
  std::uint8_t width_ = 0;     ///< id field width; 0 marks an invalid view
  bool fat_ = false;
  bool complete_ = false;
  bool sorted_ = false;
};

/// Adjacency from two decode plans; semantically identical to
/// thin_fat_adjacent on the underlying labels (differentially tested,
/// including corrupt inputs). Both views must be valid() and alive.
[[nodiscard]] bool label_view_adjacent(const LabelView& a, const LabelView& b);

}  // namespace plg
