// Differential suite for the Lemma 7 decode plan (core/distance_view.h).
//
// The contract under test: DistanceView is an equivalent decoder. For
// every label — healthy or corrupted —
//
//   * DistanceView::parse throws DecodeError exactly when the oracle's
//     header parse (inside DistanceScheme::distance) throws, with the
//     same message;
//   * for two complete() views, distance_view returns exactly what
//     DistanceScheme::distance returns on the same labels, or throws
//     exactly what it throws;
//   * a pair with an incomplete view goes to the oracle, as the engine
//     sends it — so the served answer always equals the oracle's.
//
// Healthy labels exercise the fast paths (one extract for fat x any, the
// lane-sum join plus ball scans for thin x thin). Corrupted labels —
// bit flips and truncations from the fault-injection FaultPlan — reach
// the rejections and the corrupt-but-complete labels whose tables hold
// values the encoder never writes. Under ASan/UBSan the suite shows the
// join's unchecked word loads never leave a label's words.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance_scheme.h"
#include "core/distance_view.h"
#include "core/label.h"
#include "gen/chung_lu.h"
#include "graph/algorithms.h"
#include "graph/graph.h"
#include "util/bit_stream.h"
#include "util/bits.h"
#include "util/errors.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace {

using namespace plg;

/// Label bits, LSB-first, as a byte buffer corrupt_buffer can chew on.
std::vector<std::uint8_t> label_to_bytes(const Label& l) {
  const std::size_t nbytes = (l.size_bits() + 7) / 8;
  std::vector<std::uint8_t> bytes(nbytes, 0);
  for (std::size_t i = 0; i < nbytes; ++i) {
    bytes[i] = static_cast<std::uint8_t>(l.words()[i / 8] >> (8 * (i % 8)));
  }
  return bytes;
}

/// Rebuilds a Label from (possibly truncated) bytes: truncation yields a
/// genuinely shorter bit string.
Label label_from_bytes(const std::vector<std::uint8_t>& bytes,
                       std::size_t size_bits) {
  size_bits = std::min(size_bits, bytes.size() * 8);
  BitWriter w;
  w.reserve_bits(size_bits);
  for (std::size_t b = 0; b < size_bits; ++b) {
    w.write_bit(((bytes[b / 8] >> (b % 8)) & 1u) != 0);
  }
  return Label::from_writer(std::move(w));
}

Label corrupt(const Label& l, const fault::FaultPlan& plan) {
  std::vector<std::uint8_t> bytes = label_to_bytes(l);
  fault::corrupt_buffer(bytes, plan);
  return label_from_bytes(bytes, l.size_bits());
}

/// Outcome of a decode attempt: a distance (or "beyond f"), or the
/// DecodeError text.
struct Outcome {
  bool threw = false;
  std::optional<std::uint32_t> answer;
  std::string what;

  bool operator==(const Outcome&) const = default;
};

template <typename Fn>
Outcome outcome_of(Fn&& fn) {
  Outcome o;
  try {
    o.answer = fn();
  } catch (const DecodeError& e) {
    o.threw = true;
    o.what = e.what();
  }
  return o;
}

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  if (o.threw) return os << "throw(" << o.what << ")";
  if (!o.answer) return os << "beyond-f";
  return os << "d=" << *o.answer;
}

Outcome oracle_distance(const Label& a, const Label& b) {
  return outcome_of([&] { return DistanceScheme::distance(a, b); });
}

/// The view path as the engine runs it: parse both labels, answer from
/// the views when both are complete, else hand the pair to the oracle.
/// `fast` reports which of the two answered.
Outcome view_distance(const Label& a, const Label& b, bool* fast = nullptr) {
  if (fast != nullptr) *fast = false;
  return outcome_of([&] {
    const DistanceView va = DistanceView::parse(a);
    const DistanceView vb = DistanceView::parse(b);
    if (!va.complete() || !vb.complete()) {
      return DistanceScheme::distance(a, b);
    }
    if (fast != nullptr) *fast = true;
    return distance_view(va, vb);
  });
}

/// The oracle's header parse alone: distance(l, l) parses l twice and
/// returns 0 at the id check, before reading any table.
Outcome oracle_parse(const Label& l) {
  return outcome_of([&] { return DistanceScheme::distance(l, l); });
}

Outcome view_parse(const Label& l) {
  return outcome_of([&]() -> std::optional<std::uint32_t> {
    (void)DistanceView::parse(l);
    return 0;
  });
}

struct Workload {
  Graph g;
  DistanceEncoding enc;
};

Workload make_workload(std::size_t n, double avg_deg, std::uint64_t f,
                       std::uint64_t seed) {
  Rng rng(seed);
  Workload w{chung_lu_power_law(n, 2.5, avg_deg, rng), {}};
  w.enc = DistanceScheme(f, 2.5).encode(w.g);
  return w;
}

/// A hand-built Lemma 7 label, field for field what the encoder writes:
/// k = table.size(), and id_width(f + 2)-bit distance fields.
struct Spec {
  int width = 8;
  bool fat = false;
  std::uint64_t id = 0;
  std::uint64_t f = 2;
  std::uint64_t rank = 0;
  std::vector<std::uint64_t> table = {};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ball = {};
};

Label build(const Spec& s) {
  const int dw = id_width(s.f + 2);
  BitWriter w;
  w.write_gamma(static_cast<std::uint64_t>(s.width));
  w.write_gamma0(s.f);
  w.write_gamma0(s.table.size());
  w.write_bit(s.fat);
  w.write_bits(s.id, s.width);
  if (s.fat) w.write_gamma0(s.rank);
  for (const std::uint64_t d : s.table) w.write_bits(d, dw);
  if (!s.fat) {
    w.write_gamma0(s.ball.size());
    for (const auto& [id, d] : s.ball) {
      w.write_bits(id, s.width);
      w.write_bits(d, dw);
    }
  }
  return Label::from_writer(std::move(w));
}

TEST(DistanceView, ParseExposesHeaderFields) {
  const Workload w = make_workload(800, 6.0, 2, 0xd157a);
  ASSERT_GT(w.enc.num_fat, 0u);
  std::uint64_t fat = 0;
  for (Vertex v = 0; v < w.g.num_vertices(); ++v) {
    const DistanceView dv = DistanceView::parse(w.enc.labeling[v]);
    EXPECT_EQ(dv.width(), id_width(w.g.num_vertices()));
    EXPECT_EQ(dv.f(), 2u);
    EXPECT_EQ(dv.k(), w.enc.num_fat);
    EXPECT_EQ(dv.id(), v);
    EXPECT_EQ(dv.fat(), w.g.degree(v) >= w.enc.threshold);
    if (dv.fat()) {
      EXPECT_EQ(dv.rank(), fat++);
    }
    // Healthy encoder output is always complete: the views, not the
    // oracle, serve every clean query.
    EXPECT_TRUE(dv.complete());
  }
  EXPECT_EQ(fat, w.enc.num_fat);
}

TEST(DistanceView, CleanLabelsAgreeWithOracleAndBfs) {
  for (const std::uint64_t f : {1u, 2u, 3u}) {
    const Workload w = make_workload(1500, 6.0, f, 0xc1ea0 + f);
    const std::size_t n = w.g.num_vertices();
    std::vector<DistanceView> views;
    views.reserve(n);
    for (Vertex v = 0; v < n; ++v) {
      views.push_back(DistanceView::parse(w.enc.labeling[v]));
    }
    Rng rng(stream_rng(0xc1ea0, f));
    for (int s = 0; s < 40; ++s) {
      // Targets near u (its neighbors' neighbors) and uniform ones, so
      // answers span 0..f and beyond-f.
      const auto u = static_cast<Vertex>(rng.next_below(n));
      const auto dist = bfs_distances(w.g, u);
      std::vector<Vertex> targets;
      for (const Vertex x : w.g.neighbors(u)) {
        targets.push_back(x);
        for (const Vertex y : w.g.neighbors(x)) targets.push_back(y);
      }
      for (int i = 0; i < 50; ++i) {
        targets.push_back(static_cast<Vertex>(rng.next_below(n)));
      }
      for (const Vertex v : targets) {
        const auto got = distance_view(views[u], views[v]);
        ASSERT_EQ(got, DistanceScheme::distance(w.enc.labeling[u],
                                                w.enc.labeling[v]))
            << "f=" << f << " pair (" << u << "," << v << ")";
        if (dist[v] != kInfDist && dist[v] <= f) {
          ASSERT_EQ(got, std::optional<std::uint32_t>(dist[v]));
        } else {
          ASSERT_FALSE(got.has_value());
        }
      }
    }
  }
}

// The load-bearing test: > 10k corrupted labels through both decoders,
// at f = 1, 2 (2-bit table fields) and f = 3 (3-bit fields).
TEST(DistanceView, DifferentialFuzzCorruptLabels) {
  const Workload workloads[] = {
      make_workload(1024, 6.0, 1, 0xf0d1),
      make_workload(1024, 5.0, 2, 0xf0d2),
      make_workload(1536, 4.0, 3, 0xf0d3),
  };

  std::size_t corrupted = 0;
  std::size_t parse_rejected = 0;
  std::size_t distance_threw = 0;
  std::size_t corrupt_fast = 0;
  std::size_t corrupt_fallback = 0;
  Rng rng(stream_rng(0xf0d4, 0));

  for (const Workload& w : workloads) {
    const std::size_t n = w.g.num_vertices();
    for (Vertex v = 0; v < n; ++v) {
      const Label& healthy = w.enc.labeling[v];

      fault::FaultPlan plans[3];
      plans[0].bit_flips = 1;
      plans[0].seed = rng.next_below(1u << 30) + 1;
      plans[1].bit_flips = 1 + static_cast<std::uint32_t>(rng.next_below(7));
      plans[1].seed = rng.next_below(1u << 30) + 1;
      plans[2].truncate_at =
          rng.next_below((healthy.size_bits() + 7) / 8 + 1);

      for (const fault::FaultPlan& plan : plans) {
        const Label bad = corrupt(healthy, plan);
        ++corrupted;

        // (1) parse rejection parity, message for message.
        const Outcome po = oracle_parse(bad);
        ASSERT_EQ(view_parse(bad), po) << "parse divergence, vertex " << v;
        if (po.threw) {
          ++parse_rejected;
          continue;  // a distance over an unparseable label is moot
        }

        // (2) answer/throw parity against a healthy partner...
        const Label& partner = w.enc.labeling[rng.next_below(n)];
        bool fast = false;
        Outcome oracle = oracle_distance(bad, partner);
        ASSERT_EQ(view_distance(bad, partner, &fast), oracle)
            << "corrupt x healthy divergence, vertex " << v;
        if (oracle.threw) ++distance_threw;
        ++(fast ? corrupt_fast : corrupt_fallback);

        // ...with the corrupt label on either side...
        oracle = oracle_distance(partner, bad);
        ASSERT_EQ(view_distance(partner, bad), oracle)
            << "healthy x corrupt divergence, vertex " << v;

        // ...and corrupt x corrupt (previous vertex's damage pattern).
        const Label bad2 =
            corrupt(w.enc.labeling[v > 0 ? v - 1 : n - 1], plan);
        if (!oracle_parse(bad2).threw) {
          oracle = oracle_distance(bad, bad2);
          ASSERT_EQ(view_distance(bad, bad2), oracle)
              << "corrupt x corrupt divergence, vertex " << v;
        }
      }
    }
  }

  // The suite only means something if it covered the space: enough
  // labels, rejections and survivals both seen, and corrupt labels both
  // answered by the views and handed to the oracle.
  EXPECT_GE(corrupted, 10000u);
  EXPECT_GT(parse_rejected, 0u);
  EXPECT_GT(distance_threw, 0u);
  EXPECT_GT(corrupt_fast, 0u);
  EXPECT_GT(corrupt_fallback, 0u);
}

// A thin ball written out of order: the views scan it the way the
// oracle does, early exit on the first id past the target included.
TEST(DistanceView, UnsortedBallMatchesOracleEarlyExit) {
  Spec s;
  s.id = 77;
  s.table = {3, 3, 3};
  s.ball = {{40, 1}, {10, 2}, {30, 1}, {10, 1}, {200, 2}};
  const Label thin = build(s);
  ASSERT_TRUE(DistanceView::parse(thin).complete());

  for (const std::uint64_t target : {10u, 20u, 30u, 40u, 200u, 0u, 255u}) {
    Spec p;
    p.id = target;
    p.table = {3, 3, 3};
    const Label partner = build(p);
    bool fast = false;
    ASSERT_EQ(view_distance(thin, partner, &fast),
              oracle_distance(thin, partner))
        << "target " << target;
    EXPECT_TRUE(fast);
    ASSERT_EQ(view_distance(partner, thin), oracle_distance(partner, thin))
        << "target " << target;
  }
  // Found before the first id past the target, or not found at all.
  EXPECT_EQ(view_distance(thin, build(Spec{.id = 40, .table = {3, 3, 3}})),
            (Outcome{false, 1u, ""}));
  EXPECT_EQ(view_distance(thin, build(Spec{.id = 10, .table = {3, 3, 3}})),
            (Outcome{false, std::nullopt, ""}));
}

// A fat rank at or past k: the view is incomplete, so the pair goes to
// the oracle, whose skip then walks past the table into whatever
// follows. Both rank sides, and fat x fat where only b's rank is bad
// (the oracle never reads it).
TEST(DistanceView, RankPastTableFallsBackToOracle) {
  for (const std::uint64_t rank : {5u, 6u, 8u, 40u, 1000u}) {
    const Label fat = build(Spec{.fat = true, .id = 9, .rank = rank,
                                 .table = {0, 1, 2, 1, 2}});
    const DistanceView fv = DistanceView::parse(fat);
    EXPECT_FALSE(fv.complete()) << "rank " << rank;
    const Label thin = build(Spec{.id = 3, .table = {1, 2, 1, 1, 2},
                                  .ball = {{4, 1}, {200, 2}}});
    const Label good_fat =
        build(Spec{.fat = true, .id = 5, .rank = 2, .table = {2, 1, 0, 1, 1}});
    ASSERT_TRUE(DistanceView::parse(good_fat).complete());
    for (const auto& [a, b] : {std::pair{&fat, &thin}, std::pair{&thin, &fat},
                               std::pair{&fat, &good_fat},
                               std::pair{&good_fat, &fat}}) {
      bool fast = true;
      ASSERT_EQ(view_distance(*a, *b, &fast), oracle_distance(*a, *b))
          << "rank " << rank;
      EXPECT_FALSE(fast);
    }
  }
}

// Table lengths that leave a partial last word (and a few that do not),
// at every join width: 1-bit fields (f = 0, never encoded but parseable),
// 2 (f = 2), 3 (f = 3), 4 (f = 7, f = 9), 5 (f = 15), 6 (f = 40), 7
// (f = 100) and 8 (f = 254, kMaxHopBound). The views answer every one.
// The only pair within f is placed in the last field, so a join that
// drops the tail answers wrong.
TEST(DistanceView, PartialTailWordJoin) {
  struct Case {
    std::uint64_t f;
    std::vector<std::uint64_t> ks;
  };
  const Case cases[] = {
      {0, {1, 63, 64, 65, 70, 128, 129}},
      {2, {1, 2, 31, 32, 33, 37, 64, 65, 97}},
      {3, {1, 20, 21, 22, 25, 42, 43, 64}},
      {7, {1, 15, 16, 17, 33}},
      {9, {1, 16, 17, 40}},
      {15, {1, 11, 12, 13, 25}},
      {40, {1, 9, 10, 11, 21}},
      {100, {1, 8, 9, 10, 19}},
      {254, {1, 7, 8, 9, 23}},
  };
  Rng rng(stream_rng(0x7a11, 0));
  for (const Case& c : cases) {
    const std::uint64_t far = c.f + 1;
    for (const std::uint64_t k : c.ks) {
      // Deterministic tail hit: every field far except the last, which
      // sums to min(f, 1) + 0.
      Spec a{.id = 1, .f = c.f, .table = std::vector<std::uint64_t>(k, far)};
      Spec b{.id = 2, .f = c.f, .table = std::vector<std::uint64_t>(k, far)};
      a.table.back() = c.f >= 1 ? 1 : 0;
      b.table.back() = 0;
      bool fast = false;
      const Outcome got = view_distance(build(a), build(b), &fast);
      EXPECT_TRUE(fast) << "f=" << c.f;
      ASSERT_EQ(got, oracle_distance(build(a), build(b)))
          << "f=" << c.f << " k=" << k;
      ASSERT_EQ(got.answer, std::optional<std::uint32_t>(a.table.back()))
          << "f=" << c.f << " k=" << k;

      // Random tables over the whole field range, values above far too.
      const int dw = id_width(c.f + 2);
      for (int rep = 0; rep < 200; ++rep) {
        for (Spec* s : {&a, &b}) {
          for (std::uint64_t& d : s->table) {
            // Mostly values near the small end so answers <= f occur.
            d = rng.next_below(4) == 0 ? rng.next_below(1u << dw)
                                       : rng.next_below(std::min<std::uint64_t>(
                                             far + 1, 1u << dw));
          }
        }
        const Label la = build(a);
        const Label lb = build(b);
        ASSERT_EQ(view_distance(la, lb), oracle_distance(la, lb))
            << "f=" << c.f << " k=" << k << " rep " << rep;
      }
    }
  }
}

// The thin x thin join against a naive per-field min, at every field
// width dw = 1..8 (f from 0 to kMaxHopBound): random id widths put the
// tables at every bit offset, k runs from 1 past three loads (so most k
// are no multiple of the lane count), and fields take every value the
// width holds, those above far included. The balls are empty, so the
// answer is the join's alone.
TEST(DistanceView, LaneSumJoinMatchesNaiveMin) {
  Rng rng(stream_rng(0x5a3a, 0));
  std::size_t hits = 0;
  std::size_t misses = 0;
  for (int dw = 1; dw <= 8; ++dw) {
    // The hop bounds whose fields are dw bits wide: id_width(f + 2) == dw.
    const std::uint64_t f_hi = (std::uint64_t{1} << dw) - 2;
    const std::uint64_t f_lo = (std::uint64_t{1} << (dw - 1)) - 1;
    const std::uint64_t per = 64 / static_cast<std::uint64_t>(dw);
    for (int rep = 0; rep < 600; ++rep) {
      const std::uint64_t f =
          rep % 3 == 0 ? f_hi : f_lo + rng.next_below(f_hi - f_lo + 1);
      ASSERT_EQ(id_width(f + 2), dw);
      const std::uint64_t far = f + 1;
      const std::uint64_t k =
          rep % 7 == 0 ? 1 : 1 + rng.next_below(3 * per + 2);
      const int width = 1 + static_cast<int>(rng.next_below(32));
      const std::uint64_t top = (std::uint64_t{1} << dw) - 1;
      Spec a{.width = width, .id = 0, .f = f};
      Spec b{.width = width, .id = 1, .f = f};
      // Mostly far or above, with a few small values so sums below far
      // land anywhere in the table, tail word included.
      const std::uint64_t small = 1 + rng.next_below(3);
      for (Spec* s : {&a, &b}) {
        s->table.resize(k);
        for (std::uint64_t& d : s->table) {
          const std::uint64_t pick = rng.next_below(8);
          d = pick < small ? rng.next_below(far)
                           : far + rng.next_below(top - far + 1);
        }
      }
      std::uint64_t best = far;
      for (std::uint64_t r = 0; r < k; ++r) {
        const std::uint64_t du = a.table[r];
        const std::uint64_t dv = b.table[r];
        if (du < far && dv < far) best = std::min(best, du + dv);
      }
      const std::optional<std::uint32_t> naive =
          best <= f ? std::optional<std::uint32_t>(best) : std::nullopt;
      const Label la = build(a);
      const Label lb = build(b);
      bool fast = false;
      const Outcome got = view_distance(la, lb, &fast);
      ASSERT_TRUE(fast);
      ASSERT_EQ(got, (Outcome{false, naive, ""}))
          << "dw=" << dw << " f=" << f << " k=" << k << " width=" << width;
      ASSERT_EQ(got, oracle_distance(la, lb));
      ++(naive ? hits : misses);
    }
  }
  // Both within-f answers and beyond-f answers were exercised.
  EXPECT_GT(hits, 1000u);
  EXPECT_GT(misses, 500u);
}

// Field values the encoder never writes (above the "far" sentinel f + 1)
// in tables and balls: the oracle skips table entries >= far and lets a
// ball's value reach min() unfiltered; the views must do the same.
TEST(DistanceView, FieldsAboveFarMatchOracle) {
  // f = 1: 2-bit fields, far = 2, so 3 is above far.
  // f = 3: 3-bit fields, far = 4, so 5..7 are above far.
  for (const std::uint64_t f : {1u, 3u}) {
    const std::uint64_t top = (std::uint64_t{1} << id_width(f + 2)) - 1;
    const std::vector<std::vector<std::uint64_t>> tables = {
        {top, 0, top}, {0, top, 1}, {top, top, top}, {f + 2, 0, 1},
        {0, 0, 0}, {1, f, top}};
    for (const auto& ta : tables) {
      for (const auto& tb : tables) {
        for (const std::uint64_t ball_d : {std::uint64_t{0}, f, f + 1, top}) {
          const Label a = build(Spec{.id = 1, .f = f, .table = ta,
                                     .ball = {{2, ball_d}, {9, top}}});
          const Label b = build(Spec{.id = 2, .f = f, .table = tb,
                                     .ball = {{1, top}}});
          bool fast = false;
          ASSERT_EQ(view_distance(a, b, &fast), oracle_distance(a, b))
              << "f=" << f << " ball_d=" << ball_d;
          EXPECT_TRUE(fast);
          ASSERT_EQ(view_distance(b, a), oracle_distance(b, a));
          // Fat x thin reads one field, which may be above far too.
          const Label fat =
              build(Spec{.fat = true, .id = 7, .f = f, .rank = 0, .table = ta});
          ASSERT_EQ(view_distance(fat, b), oracle_distance(fat, b));
          ASSERT_EQ(view_distance(b, fat), oracle_distance(b, fat));
        }
      }
    }
  }
}

// A forged hop bound: with f = 2^63 the fields are 64 bits wide, and two
// entries of 2^63 would sum to 0 (a distance of 0 between distinct
// vertices). Both decoders refuse any f the encoder cannot write.
TEST(DistanceView, RejectsForgedHopBound) {
  const std::uint64_t huge = std::uint64_t{1} << 63;
  const Label a = build(Spec{.id = 1, .f = huge, .table = {huge}});
  const Label b = build(Spec{.id = 2, .f = huge, .table = {huge}});
  const Outcome expected{true, std::nullopt, "distance: hop bound f > 254"};
  EXPECT_EQ(oracle_distance(a, b), expected);
  EXPECT_EQ(view_parse(a), expected);
  EXPECT_EQ(view_distance(a, b), expected);

  const Label at_bound = build(Spec{.id = 1, .f = kMaxHopBound, .table = {0}});
  EXPECT_FALSE(view_parse(at_bound).threw);
  const Label past = build(Spec{.id = 1, .f = kMaxHopBound + 1, .table = {0}});
  EXPECT_EQ(view_parse(past), expected);
  EXPECT_EQ(oracle_parse(past), expected);

  // Forged id widths: both decoders compare the full gamma value with 32
  // before narrowing it, so 2^32 + 8 does not wrap to 8 in either.
  const Outcome absurd{true, std::nullopt, "distance: absurd id width"};
  for (const std::uint64_t width :
       {std::uint64_t{1} << 31, (std::uint64_t{1} << 32) + 8}) {
    const auto forged = [width](std::uint64_t id) {
      BitWriter w;
      w.write_gamma(width);
      w.write_gamma0(2);   // hop bound
      w.write_gamma0(0);   // k = 0
      w.write_bit(false);  // thin
      w.write_bits(id, 8);
      w.write_gamma0(0);   // empty ball
      return Label::from_writer(std::move(w));
    };
    const Label wa = forged(1);
    const Label wb = forged(2);
    EXPECT_EQ(oracle_distance(wa, wb), absurd) << "width " << width;
    EXPECT_EQ(view_distance(wa, wb), absurd) << "width " << width;
    EXPECT_EQ(view_parse(wa), absurd) << "width " << width;
  }
}

}  // namespace
