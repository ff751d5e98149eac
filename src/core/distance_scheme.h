// f(n)-bounded distance labeling scheme for P_h (Lemma 7).
//
// Fat vertices are those of degree >= n^{1/(alpha-1+f)}. Every label
// carries:
//   (i)  a table of distances (<= f, else "far") to ALL fat vertices,
//        indexed by fat rank — O(n^{f/(alpha-1+f)} log f) bits because
//        P_h bounds the number of fat vertices;
//   (ii) a table of (id, distance) pairs for thin vertices reachable
//        within f hops through thin-only paths — at most tau^f entries
//        because thin degrees are < tau;
//   (iii) the fat bit (and, for fat vertices, their rank).
//
// Decoder, given two labels: the exact distance d(u, v) if d(u, v) <= f,
// otherwise "unknown" (nullopt). Correctness: any shortest path within f
// hops either avoids fat vertices (then the thin-BFS table of one
// endpoint holds it exactly — note table (ii) stores the *thin-subgraph*
// distance, an upper bound that equals d(u,v) precisely when no shortest
// path uses a fat vertex) or passes through a fat vertex w (then
// d(u,w) + d(w,v) <= 2f is found by joining the two fat tables, and the
// minimum over fat w equals d(u, v)). The decoder takes the min of all
// candidates and reports it iff <= f.
#pragma once

#include <cstdint>
#include <optional>

#include "core/labeling.h"
#include "graph/graph.h"

namespace plg {

/// Largest hop bound f the scheme encodes. Both decoders
/// (DistanceScheme::distance, DistanceView) reject a label declaring a
/// larger f: a forged bound would widen the table fields past the point
/// where du + dv can wrap and the answer can be truncated. It also caps
/// the field width at id_width(kMaxHopBound + 2) = 8 bits, so distances
/// 0..f and the "far" sentinel f+1 fit a byte.
inline constexpr std::uint64_t kMaxHopBound = 254;

struct DistanceEncoding {
  Labeling labeling;
  std::uint64_t f = 0;          ///< hop bound
  std::uint64_t threshold = 0;  ///< fat degree threshold
  std::size_t num_fat = 0;
};

class DistanceScheme {
 public:
  /// f >= 1: the hop bound. alpha parametrizes the fat threshold
  /// n^{1/(alpha-1+f)} per Lemma 7.
  DistanceScheme(std::uint64_t f, double alpha);

  const char* name() const noexcept { return "distance(lem7)"; }

  /// Labels every vertex. Serial; besides the labels themselves it holds
  /// O(n) scratch (one reused BFS and two offsets per label), never the
  /// n x k table of distances to fat vertices.
  DistanceEncoding encode(const Graph& g) const;

  /// Exact d(u, v) when d(u, v) <= f; nullopt when the distance exceeds f
  /// (or the vertices are disconnected). The reference decoder: a
  /// sequential BitReader walk that DistanceView must match answer for
  /// answer and throw for throw. Throws DecodeError on a malformed label,
  /// on f > kMaxHopBound, or on labels from different encodings.
  static std::optional<std::uint32_t> distance(const Label& a,
                                               const Label& b);

 private:
  std::uint64_t f_;
  double alpha_;
};

}  // namespace plg
