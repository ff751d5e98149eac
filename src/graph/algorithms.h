// Graph algorithms used as substrate for the labeling schemes:
// BFS (full / hop-capped / restricted to a vertex mask), connected
// components, and degeneracy ordering with its acyclic orientation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/bitvector.h"

namespace plg {

/// Sentinel for "unreachable" in distance arrays.
inline constexpr std::uint32_t kInfDist =
    std::numeric_limits<std::uint32_t>::max();

/// Reusable hop-capped BFS for graphs of up to `n` vertices — the one BFS
/// loop the helpers below wrap. Visited marks are stamped with a per-run
/// epoch instead of being cleared, so a run costs O(ball): the vertices
/// it reaches and their edges, never O(n). Not thread-safe; give each
/// thread its own scratch.
class BfsScratch {
 public:
  explicit BfsScratch(std::size_t n) : stamp_(n, 0) {}

  /// Every vertex within `max_hops` of `source` along paths whose
  /// vertices after the source all satisfy `allowed(w)`, as (vertex,
  /// distance) pairs in BFS order: the source first at distance 0, then
  /// distances nondecreasing. The span is valid until the next run.
  template <typename Allowed>
  std::span<const std::pair<Vertex, std::uint32_t>> run(
      const Graph& g, Vertex source, std::uint32_t max_hops,
      Allowed&& allowed) {
    if (++epoch_ == 0) {  // wrapped: stale stamps would alias new runs
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    reached_.clear();
    reached_.emplace_back(source, 0);
    stamp_[source] = epoch_;
    // reached_ doubles as the queue: BFS order keeps distances sorted.
    for (std::size_t head = 0; head < reached_.size(); ++head) {
      const auto [u, d] = reached_[head];  // a copy: emplace may realloc
      if (d >= max_hops) break;
      for (const Vertex w : g.neighbors(u)) {
        if (stamp_[w] != epoch_ && allowed(w)) {
          stamp_[w] = epoch_;
          reached_.emplace_back(w, d + 1);
        }
      }
    }
    return reached_;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<std::pair<Vertex, std::uint32_t>> reached_;
};

/// Single-source BFS distances over the whole graph.
std::vector<std::uint32_t> bfs_distances(const Graph& g, Vertex source);

/// BFS distances capped at `max_hops`: vertices farther than max_hops keep
/// kInfDist. The search visits only the ball; the O(n) cost is the
/// returned array (and a one-run scratch).
std::vector<std::uint32_t> bfs_distances_capped(const Graph& g, Vertex source,
                                                std::uint32_t max_hops);

/// BFS restricted to vertices allowed by `mask` (the source is always
/// allowed). Returns (vertex, distance) pairs for every masked-in vertex
/// within max_hops, excluding the source itself. Callers that run many
/// searches (the Lemma 7 encoder) use one BfsScratch instead.
std::vector<std::pair<Vertex, std::uint32_t>> bfs_ball_masked(
    const Graph& g, Vertex source, std::uint32_t max_hops,
    const BitVector& mask);

/// Connected component id per vertex, ids dense in [0, #components).
std::vector<std::uint32_t> connected_components(const Graph& g);

std::size_t num_connected_components(const Graph& g);

/// Result of the degeneracy peeling.
struct DegeneracyOrder {
  /// Peeling order: order[i] is the i-th vertex removed.
  std::vector<Vertex> order;
  /// position[v] = index of v in `order`.
  std::vector<std::uint32_t> position;
  /// The degeneracy d: max degree at removal time over the peel.
  std::size_t degeneracy = 0;
};

/// Computes a degeneracy ordering by repeatedly removing a minimum-degree
/// vertex (O(n + m) bucket implementation).
DegeneracyOrder degeneracy_order(const Graph& g);

/// Orientation of each undirected edge derived from an ordering: every
/// edge points from the endpoint removed earlier to the one removed later,
/// so out-degree(v) <= degeneracy and the orientation is acyclic.
/// out_edges[v] lists the heads of v's out-edges.
std::vector<std::vector<Vertex>> orient_by_order(const Graph& g,
                                                 const DegeneracyOrder& order);

/// Eccentricity-style helper: the largest finite BFS distance from v.
std::uint32_t eccentricity(const Graph& g, Vertex v);

/// Double-sweep diameter lower bound: BFS from `start`, then BFS again
/// from a farthest vertex found; the second eccentricity lower-bounds the
/// diameter (and is exact on trees). The distance scheme's examples use
/// it to pick an f that covers most pairs; power-law graphs are expected
/// to report Theta(log n) here (Chung–Lu, reference [22] of the paper).
std::uint32_t diameter_lower_bound(const Graph& g, Vertex start = 0);

/// Result of an induced-subgraph extraction: the subgraph plus the map
/// from new ids (dense in [0, |keep|)) back to original vertex ids.
struct SubgraphResult {
  Graph graph;
  std::vector<Vertex> original_id;  // new id -> old id
};

/// Induced subgraph on `keep` (duplicates ignored; order preserved).
SubgraphResult induced_subgraph(const Graph& g, std::span<const Vertex> keep);

/// The largest connected component as its own graph (ties broken by the
/// smallest contained vertex id). Generators like Waxman produce
/// disconnected graphs; distance/routing workloads extract this first.
SubgraphResult largest_component(const Graph& g);

}  // namespace plg
