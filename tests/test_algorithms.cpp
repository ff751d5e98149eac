#include "graph/algorithms.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/erdos_renyi.h"
#include "util/random.h"

namespace plg {
namespace {

Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (Vertex v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph star_graph(std::size_t n) {
  GraphBuilder b(n);
  for (Vertex v = 1; v < n; ++v) b.add_edge(0, v);
  return b.build();
}

/// Floyd–Warshall reference for small graphs.
std::vector<std::uint32_t> reference_distances(const Graph& g, Vertex s) {
  const std::size_t n = g.num_vertices();
  std::vector<std::vector<std::uint32_t>> d(
      n, std::vector<std::uint32_t>(n, kInfDist));
  for (Vertex v = 0; v < n; ++v) d[v][v] = 0;
  for (Vertex v = 0; v < n; ++v) {
    for (const Vertex w : g.neighbors(v)) d[v][w] = 1;
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (d[i][k] != kInfDist && d[k][j] != kInfDist) {
          d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
        }
      }
    }
  }
  return d[s];
}

TEST(Bfs, PathGraph) {
  const Graph g = path_graph(6);
  const auto d = bfs_distances(g, 0);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);
}

TEST(Bfs, DisconnectedMarksInf) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const Graph g = b.build();
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kInfDist);
  EXPECT_EQ(d[3], kInfDist);
}

TEST(Bfs, MatchesFloydWarshallRandom) {
  Rng rng(41);
  for (int iter = 0; iter < 10; ++iter) {
    const Graph g = erdos_renyi_gnm(25, 40, rng);
    for (Vertex s = 0; s < 25; s += 5) {
      EXPECT_EQ(bfs_distances(g, s), reference_distances(g, s));
    }
  }
}

TEST(Bfs, CappedStopsAtHops) {
  const Graph g = path_graph(10);
  const auto d = bfs_distances_capped(g, 0, 3);
  EXPECT_EQ(d[3], 3u);
  EXPECT_EQ(d[4], kInfDist);
  EXPECT_EQ(d[9], kInfDist);
}

TEST(Bfs, CappedZeroHopsOnlySource) {
  const Graph g = path_graph(4);
  const auto d = bfs_distances_capped(g, 2, 0);
  EXPECT_EQ(d[2], 0u);
  EXPECT_EQ(d[1], kInfDist);
  EXPECT_EQ(d[3], kInfDist);
}

TEST(BfsBallMasked, RespectsMask) {
  // Path 0-1-2-3-4 with 2 masked out: from 0 the ball must stop at 1.
  const Graph g = path_graph(5);
  BitVector mask(5);
  for (std::size_t i = 0; i < 5; ++i) mask.set(i);
  mask.set(2, false);
  const auto ball = bfs_ball_masked(g, 0, 4, mask);
  ASSERT_EQ(ball.size(), 1u);
  EXPECT_EQ(ball[0].first, 1u);
  EXPECT_EQ(ball[0].second, 1u);
}

TEST(BfsBallMasked, SourceMayBeMaskedOut) {
  // The source is always expanded even if the mask excludes it (the
  // distance scheme's thin-ball BFS relies on this for thin sources --
  // and fat sources are simply never passed).
  const Graph g = star_graph(5);
  BitVector mask(5);
  for (std::size_t i = 1; i < 5; ++i) mask.set(i);
  const auto ball = bfs_ball_masked(g, 0, 2, mask);
  EXPECT_EQ(ball.size(), 4u);  // all leaves at distance 1
}

TEST(BfsBallMasked, ExcludesSourceFromOutput) {
  const Graph g = path_graph(3);
  BitVector mask(3);
  for (std::size_t i = 0; i < 3; ++i) mask.set(i);
  const auto ball = bfs_ball_masked(g, 1, 5, mask);
  for (const auto& [v, d] : ball) EXPECT_NE(v, 1u);
}

TEST(BfsScratch, ReusedRunsMatchFreshSearches) {
  // One scratch across many sources, caps and masks must answer as
  // Floyd–Warshall does, and as a fresh scratch (bfs_ball_masked makes
  // one per call) does: stamps from an earlier run never leak.
  Rng rng(47);
  const Graph g = erdos_renyi_gnm(60, 90, rng);
  BitVector mask(60);
  for (std::size_t i = 0; i < 60; ++i) mask.set(i, i % 4 != 0);
  BfsScratch bfs(60);
  for (Vertex s = 0; s < 60; ++s) {
    const std::uint32_t cap = s % 5;
    const auto full = reference_distances(g, s);
    std::vector<std::uint32_t> got(60, kInfDist);
    std::uint32_t last = 0;
    const auto reached =
        bfs.run(g, s, cap, [](Vertex) { return true; });
    ASSERT_FALSE(reached.empty());
    EXPECT_EQ(reached[0], (std::pair<Vertex, std::uint32_t>(s, 0)));
    for (const auto& [v, d] : reached) {
      EXPECT_GE(d, last) << "not in BFS order";
      last = d;
      EXPECT_EQ(got[v], kInfDist) << v << " reported twice";
      got[v] = d;
    }
    for (Vertex v = 0; v < 60; ++v) {
      EXPECT_EQ(got[v], full[v] <= cap ? full[v] : kInfDist) << s << "->" << v;
    }
    auto ball = bfs_ball_masked(g, s, cap + 1, mask);
    const auto masked = bfs.run(g, s, cap + 1,
                                [&mask](Vertex w) { return mask.get(w); });
    std::vector<std::pair<Vertex, std::uint32_t>> again(masked.begin() + 1,
                                                        masked.end());
    std::sort(ball.begin(), ball.end());
    std::sort(again.begin(), again.end());
    EXPECT_EQ(again, ball) << "source " << s;
  }
}

TEST(Components, CountsAndLabels) {
  GraphBuilder b(7);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  const Graph g = b.build();  // {0,1,2}, {3,4}, {5}, {6}
  EXPECT_EQ(num_connected_components(g), 4u);
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[6]);
}

TEST(Degeneracy, PathIsOneDegenerate) {
  const auto order = degeneracy_order(path_graph(10));
  EXPECT_EQ(order.degeneracy, 1u);
}

TEST(Degeneracy, CompleteGraph) {
  GraphBuilder b(6);
  for (Vertex u = 0; u < 6; ++u) {
    for (Vertex v = u + 1; v < 6; ++v) b.add_edge(u, v);
  }
  const auto order = degeneracy_order(b.build());
  EXPECT_EQ(order.degeneracy, 5u);
}

TEST(Degeneracy, StarIsOneDegenerate) {
  const auto order = degeneracy_order(star_graph(50));
  EXPECT_EQ(order.degeneracy, 1u);
}

TEST(Degeneracy, OrderIsPermutation) {
  Rng rng(43);
  const Graph g = erdos_renyi_gnm(60, 120, rng);
  const auto order = degeneracy_order(g);
  ASSERT_EQ(order.order.size(), 60u);
  std::vector<bool> seen(60, false);
  for (const Vertex v : order.order) {
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  for (Vertex v = 0; v < 60; ++v) {
    EXPECT_EQ(order.order[order.position[v]], v);
  }
}

TEST(Degeneracy, OrientationOutDegreeBounded) {
  Rng rng(47);
  for (int iter = 0; iter < 5; ++iter) {
    const Graph g = erdos_renyi_gnm(80, 200, rng);
    const auto order = degeneracy_order(g);
    const auto out = orient_by_order(g, order);
    std::size_t total = 0;
    for (Vertex v = 0; v < 80; ++v) {
      EXPECT_LE(out[v].size(), order.degeneracy) << "vertex " << v;
      total += out[v].size();
    }
    EXPECT_EQ(total, g.num_edges());  // every edge oriented exactly once
  }
}

TEST(InducedSubgraph, PreservesEdgesAndMapsIds) {
  // Triangle 0-1-2 plus pendant 3 on 2: keep {1, 2, 3}.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const std::vector<Vertex> keep{1, 2, 3};
  const auto sub = induced_subgraph(g, keep);
  ASSERT_EQ(sub.graph.num_vertices(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 2u);  // 1-2 and 2-3 survive
  EXPECT_EQ(sub.original_id, keep);
  EXPECT_TRUE(sub.graph.has_edge(0, 1));   // old 1-2
  EXPECT_TRUE(sub.graph.has_edge(1, 2));   // old 2-3
  EXPECT_FALSE(sub.graph.has_edge(0, 2));  // old 1-3 never existed
}

TEST(InducedSubgraph, DuplicatesIgnored) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g = b.build();
  const std::vector<Vertex> keep{1, 1, 0, 1};
  const auto sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.graph.num_vertices(), 2u);
  EXPECT_EQ(sub.graph.num_edges(), 1u);
}

TEST(LargestComponent, PicksTheBiggest) {
  GraphBuilder b(9);
  b.add_edge(0, 1);                      // size-2 component
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 5);                      // size-4 component
  const Graph g = b.build();             // plus isolated 6, 7, 8
  const auto big = largest_component(g);
  EXPECT_EQ(big.graph.num_vertices(), 4u);
  EXPECT_EQ(big.graph.num_edges(), 3u);
  EXPECT_EQ(big.original_id, (std::vector<Vertex>{2, 3, 4, 5}));
}

TEST(LargestComponent, RandomGraphIsConnectedAfter) {
  Rng rng(1213);
  const Graph g = erdos_renyi_gnm(300, 200, rng);  // sparse: fragments
  const auto big = largest_component(g);
  EXPECT_EQ(num_connected_components(big.graph), 1u);
  EXPECT_LE(big.graph.num_vertices(), g.num_vertices());
}

TEST(Eccentricity, PathEnds) {
  const Graph g = path_graph(9);
  EXPECT_EQ(eccentricity(g, 0), 8u);
  EXPECT_EQ(eccentricity(g, 4), 4u);
}

}  // namespace
}  // namespace plg
