// Lemma 7 distance scheme: the decoder must return the exact distance for
// pairs within f hops and "unknown" beyond, verified against BFS ground
// truth across generators, f values and alphas.
#include "core/distance_scheme.h"

#include <gtest/gtest.h>

#include "core/distance_baseline.h"
#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"
#include "graph/algorithms.h"
#include "powerlaw/threshold.h"
#include "util/bit_stream.h"
#include "util/bits.h"
#include "util/errors.h"
#include "util/random.h"

namespace plg {
namespace {

void expect_distance_exact(const Graph& g, const DistanceEncoding& enc,
                           Rng& rng, std::size_t samples) {
  const std::size_t n = g.num_vertices();
  for (std::size_t i = 0; i < samples; ++i) {
    const auto u = static_cast<Vertex>(rng.next_below(n));
    const auto dist = bfs_distances(g, u);
    // Check a handful of targets per BFS, biased toward close ones.
    for (std::size_t j = 0; j < 30; ++j) {
      const auto v = static_cast<Vertex>(rng.next_below(n));
      const auto got =
          DistanceScheme::distance(enc.labeling[u], enc.labeling[v]);
      if (dist[v] != kInfDist && dist[v] <= enc.f) {
        ASSERT_TRUE(got.has_value())
            << u << "->" << v << " true d=" << dist[v];
        ASSERT_EQ(*got, dist[v]) << u << "->" << v;
      } else {
        ASSERT_FALSE(got.has_value())
            << u << "->" << v << " true d=" << dist[v];
      }
    }
  }
}

class DistanceSchemeTest
    : public testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(DistanceSchemeTest, ExactWithinF) {
  const auto [f, alpha] = GetParam();
  Rng rng(421);
  const Graph g = chung_lu_power_law(3000, alpha, 5.0, rng);
  DistanceScheme scheme(f, alpha);
  const auto enc = scheme.encode(g);
  EXPECT_EQ(enc.f, f);
  EXPECT_EQ(enc.threshold, tau_distance(3000, alpha, f));
  expect_distance_exact(g, enc, rng, 40);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistanceSchemeTest,
    testing::Combine(testing::Values<std::uint64_t>(1, 2, 3, 5),
                     testing::Values(2.2, 2.8)),
    [](const auto& info) {
      return "f" + std::to_string(std::get<0>(info.param)) + "_a" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10));
    });

TEST(DistanceScheme, PathGraphAllPairs) {
  GraphBuilder b(12);
  for (Vertex v = 0; v + 1 < 12; ++v) b.add_edge(v, v + 1);
  const Graph g = b.build();
  DistanceScheme scheme(4, 2.5);
  const auto enc = scheme.encode(g);
  for (Vertex u = 0; u < 12; ++u) {
    for (Vertex v = 0; v < 12; ++v) {
      const auto got =
          DistanceScheme::distance(enc.labeling[u], enc.labeling[v]);
      const std::uint32_t true_d = u > v ? u - v : v - u;
      if (true_d <= 4) {
        ASSERT_TRUE(got.has_value()) << u << "," << v;
        EXPECT_EQ(*got, true_d);
      } else {
        EXPECT_FALSE(got.has_value()) << u << "," << v;
      }
    }
  }
}

TEST(DistanceScheme, DisconnectedPairsUnknown) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  DistanceScheme scheme(3, 2.5);
  const auto enc = scheme.encode(g);
  EXPECT_FALSE(
      DistanceScheme::distance(enc.labeling[0], enc.labeling[2]).has_value());
  EXPECT_EQ(*DistanceScheme::distance(enc.labeling[0], enc.labeling[1]), 1u);
}

TEST(DistanceScheme, SelfDistanceZero) {
  Rng rng(431);
  const Graph g = erdos_renyi_gnm(50, 100, rng);
  DistanceScheme scheme(2, 2.5);
  const auto enc = scheme.encode(g);
  for (Vertex v = 0; v < 50; ++v) {
    EXPECT_EQ(*DistanceScheme::distance(enc.labeling[v], enc.labeling[v]),
              0u);
  }
}

TEST(DistanceScheme, HubPathsGoThroughFatVertices) {
  // Star: center is fat, leaves thin; leaf-leaf distance 2 must be found
  // through the fat table join, since the thin-only subgraph is edgeless.
  GraphBuilder b(40);
  for (Vertex v = 1; v < 40; ++v) b.add_edge(0, v);
  const Graph g = b.build();
  DistanceScheme scheme(2, 2.5);
  const auto enc = scheme.encode(g);
  ASSERT_GE(enc.num_fat, 1u);
  EXPECT_EQ(*DistanceScheme::distance(enc.labeling[1], enc.labeling[2]), 2u);
  EXPECT_EQ(*DistanceScheme::distance(enc.labeling[1], enc.labeling[0]), 1u);
}

TEST(DistanceScheme, RejectsBadParams) {
  EXPECT_THROW(DistanceScheme(0, 2.5), EncodeError);
  EXPECT_THROW(DistanceScheme(3, 1.0), EncodeError);
  GraphBuilder b(4);
  DistanceScheme huge_f(300, 2.5);
  EXPECT_THROW(huge_f.encode(b.build()), EncodeError);
}

TEST(DistanceScheme, MismatchedEncodingsThrow) {
  Rng rng(433);
  const Graph g = erdos_renyi_gnm(50, 100, rng);
  DistanceScheme s2(2, 2.5);
  DistanceScheme s3(3, 2.5);
  const auto e2 = s2.encode(g);
  const auto e3 = s3.encode(g);
  EXPECT_THROW(
      DistanceScheme::distance(e2.labeling[0], e3.labeling[1]), DecodeError);
}

// A forged hop bound the encoder refuses to write: f = 2^63 widens the
// table fields to 64 bits, so two entries of 2^63 sum to 0 — a distance
// of 0 between distinct vertices — and entries of 2^32 + 5 and 0 would
// come back truncated to 5. The decoder must reject the label instead.
TEST(DistanceScheme, RejectsForgedHopBound) {
  const auto forged = [](std::uint64_t id, std::uint64_t f,
                         std::uint64_t entry) {
    BitWriter w;
    w.write_gamma(8);         // id width
    w.write_gamma0(f);        // hop bound
    w.write_gamma0(1);        // k = 1 fat vertex
    w.write_bit(false);       // thin
    w.write_bits(id, 8);
    w.write_bits(entry, id_width(f + 2));
    w.write_gamma0(0);        // empty ball
    return Label::from_writer(std::move(w));
  };
  const std::uint64_t max_f = 254;  // the largest f the encoder writes
  const std::uint64_t huge = std::uint64_t{1} << 63;
  EXPECT_THROW(DistanceScheme::distance(forged(1, huge, huge),
                                        forged(2, huge, huge)),
               DecodeError);
  const std::uint64_t wide = std::uint64_t{1} << 40;
  EXPECT_THROW(DistanceScheme::distance(forged(1, wide, (1ull << 32) + 5),
                                        forged(2, wide, 0)),
               DecodeError);
  EXPECT_THROW(DistanceScheme::distance(forged(1, max_f + 1, 1),
                                        forged(2, max_f + 1, 1)),
               DecodeError);
  // The largest encodable bound still decodes: 1 + 1 through the fat
  // vertex.
  EXPECT_EQ(DistanceScheme::distance(forged(1, max_f, 1),
                                     forged(2, max_f, 1)),
            std::optional<std::uint32_t>(2));

  // A forged id width is checked before it is narrowed: 2^32 + 8 must
  // not wrap to 8, nor 2^31 to a negative read width.
  const auto forged_width = [](std::uint64_t width, std::uint64_t id) {
    BitWriter w;
    w.write_gamma(width);
    w.write_gamma0(2);   // hop bound
    w.write_gamma0(0);   // k = 0
    w.write_bit(false);  // thin
    w.write_bits(id, 8);
    w.write_gamma0(0);   // empty ball
    return Label::from_writer(std::move(w));
  };
  for (const std::uint64_t width :
       {std::uint64_t{1} << 31, (std::uint64_t{1} << 32) + 8}) {
    try {
      (void)DistanceScheme::distance(forged_width(width, 1),
                                     forged_width(width, 2));
      ADD_FAILURE() << "width " << width << " decoded";
    } catch (const DecodeError& e) {
      EXPECT_STREQ(e.what(), "distance: absurd id width");
    }
  }
}

// ---- Full-BFS baseline --------------------------------------------------

TEST(DistanceBaseline, MatchesBfsAllPairs) {
  Rng rng(439);
  const Graph g = erdos_renyi_gnm(60, 120, rng);
  DistanceBaseline scheme;
  const Labeling labeling = scheme.encode(g);
  for (Vertex u = 0; u < 60; ++u) {
    const auto dist = bfs_distances(g, u);
    for (Vertex v = 0; v < 60; ++v) {
      const auto got = DistanceBaseline::distance(labeling[u], labeling[v]);
      if (dist[v] == kInfDist) {
        ASSERT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(*got, dist[v]);
      }
    }
  }
}

TEST(DistanceBaseline, LabelsAreLinearInN) {
  Rng rng(443);
  const Graph g = erdos_renyi_gnm(256, 512, rng);
  DistanceBaseline scheme;
  const auto stats = scheme.encode(g).stats();
  EXPECT_GE(stats.max_bits, 256u);  // n fields of >= 1 bit
}

TEST(DistanceSchemeVsBaseline, SmallDistanceLabelsSmaller) {
  // Section 7's pitch: for small f the Lemma 7 labels undercut the full
  // table. Power-law graph, f = 2.
  Rng rng(449);
  const Graph g = chung_lu_power_law(4000, 2.5, 5.0, rng);
  DistanceScheme lem7(2, 2.5);
  DistanceBaseline full;
  const auto lem7_stats = lem7.encode(g).labeling.stats();
  const auto full_stats = full.encode(g).stats();
  EXPECT_LT(lem7_stats.max_bits, full_stats.max_bits);
}

}  // namespace
}  // namespace plg
