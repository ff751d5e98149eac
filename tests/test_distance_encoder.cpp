// Lemma 7 encoder: DistanceScheme::encode must produce, label for label
// and bit for bit, what the scheme's definition says. The reference below
// is the definition written out naively — one full BFS per vertex, capped
// at f, for the fat table, and one thin-only BFS per thin vertex for the
// ball — so the fast encoder (one capped BFS per fat vertex writing into
// far-filled tables in place) is checked against code that shares none of
// its shortcuts. A pinned digest guards the bits against drift that both
// encoders could share.
#include "core/distance_scheme.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "gen/chung_lu.h"
#include "graph/graph.h"
#include "powerlaw/threshold.h"
#include "util/bit_stream.h"
#include "util/bits.h"
#include "util/random.h"

namespace plg {
namespace {

constexpr std::uint32_t kUnreached = 0xffffffffu;

// Plain queue BFS capped at `cap` hops; `allowed(w)` filters which
// vertices may be entered (the source always may).
template <typename Allowed>
std::vector<std::uint32_t> naive_bfs(const Graph& g, Vertex s,
                                     std::uint32_t cap, Allowed allowed) {
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreached);
  std::deque<Vertex> queue{s};
  dist[s] = 0;
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    if (dist[u] == cap) continue;
    for (const Vertex w : g.neighbors(u)) {
      if (dist[w] == kUnreached && allowed(w)) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

// The Lemma 7 label of every vertex, built straight from the definition.
std::vector<Label> reference_encode(const Graph& g, std::uint64_t f,
                                    double alpha) {
  const std::size_t n = g.num_vertices();
  const std::uint64_t tau = tau_distance(n, alpha, f);
  const int width = id_width(n);
  const int dw = id_width(f + 2);
  const auto cap = static_cast<std::uint32_t>(f);
  std::vector<Vertex> fat;
  for (Vertex v = 0; v < n; ++v) {
    if (g.degree(v) >= tau) fat.push_back(v);
  }
  const auto is_thin = [&](Vertex w) { return g.degree(w) < tau; };
  std::vector<Label> labels;
  for (Vertex v = 0; v < n; ++v) {
    const bool v_fat = !is_thin(v);
    BitWriter w;
    w.write_gamma(static_cast<std::uint64_t>(width));
    w.write_gamma0(f);
    w.write_gamma0(fat.size());
    w.write_bit(v_fat);
    w.write_bits(v, width);
    if (v_fat) {
      const auto at = std::find(fat.begin(), fat.end(), v) - fat.begin();
      w.write_gamma0(static_cast<std::uint64_t>(at));
    }
    const auto dist = naive_bfs(g, v, cap, [](Vertex) { return true; });
    for (const Vertex r : fat) {
      w.write_bits(dist[r] == kUnreached ? f + 1 : dist[r], dw);
    }
    if (!v_fat) {
      const auto thin = naive_bfs(g, v, cap, is_thin);
      std::vector<std::pair<Vertex, std::uint32_t>> ball;
      for (Vertex u = 0; u < n; ++u) {
        if (u != v && thin[u] != kUnreached) ball.emplace_back(u, thin[u]);
      }
      w.write_gamma0(ball.size());
      for (const auto& [u, d] : ball) {
        w.write_bits(u, width);
        w.write_bits(d, dw);
      }
    }
    labels.push_back(Label::from_writer(std::move(w)));
  }
  return labels;
}

void expect_matches_reference(const Graph& g, std::uint64_t f, double alpha,
                              const std::string& what) {
  const auto enc = DistanceScheme(f, alpha).encode(g);
  const auto want = reference_encode(g, f, alpha);
  ASSERT_EQ(enc.labeling.size(), want.size()) << what;
  for (Vertex v = 0; v < want.size(); ++v) {
    ASSERT_EQ(enc.labeling[v], want[v])
        << what << " f=" << f << " vertex " << v << ": got "
        << enc.labeling[v].to_hex() << " want " << want[v].to_hex();
  }
}

// FNV-1a over each label's bit count and words, in vertex order.
std::uint64_t label_digest(const Labeling& labeling) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Label& l : labeling.labels()) {
    mix(l.size_bits());
    for (const std::uint64_t word : l.words()) mix(word);
  }
  return h;
}

class DistanceEncoderTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(DistanceEncoderTest, ChungLuMatchesReference) {
  const std::uint64_t f = GetParam();
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    const Graph g = chung_lu_power_law(600, 2.3, 4.0, rng);
    expect_matches_reference(g, f, 2.3, "chung-lu seed " +
                                            std::to_string(seed));
  }
}

TEST_P(DistanceEncoderTest, NoFatVertex) {
  // A path: degree <= 2 stays below every tau here, so k = 0 and the
  // labels are header + thin ball only.
  const std::uint64_t f = GetParam();
  GraphBuilder b(512);
  for (Vertex v = 0; v + 1 < 512; ++v) b.add_edge(v, v + 1);
  const Graph g = b.build();
  ASSERT_GT(tau_distance(512, 2.5, f), 2u);
  expect_matches_reference(g, f, 2.5, "path");
  EXPECT_EQ(DistanceScheme(f, 2.5).encode(g).num_fat, 0u);
}

TEST_P(DistanceEncoderTest, AllVerticesFat) {
  // K_9: every degree is 8 >= tau, so there is no thin ball anywhere.
  const std::uint64_t f = GetParam();
  GraphBuilder b(9);
  for (Vertex u = 0; u < 9; ++u) {
    for (Vertex v = u + 1; v < 9; ++v) b.add_edge(u, v);
  }
  const Graph g = b.build();
  expect_matches_reference(g, f, 2.5, "clique");
  EXPECT_EQ(DistanceScheme(f, 2.5).encode(g).num_fat, 9u);
}

TEST_P(DistanceEncoderTest, IsolatedAndDisconnected) {
  // A clique of 40 fat vertices (k = 40: not a multiple of 64/dw for any
  // dw, so the far-filled table ends in a partial chunk), a path hanging
  // off it, a separate path component and isolated vertices. n = 512
  // keeps tau >= 3 up to f = 7, so path vertices stay thin.
  const std::uint64_t f = GetParam();
  GraphBuilder b(512);
  for (Vertex u = 0; u < 40; ++u) {
    for (Vertex v = u + 1; v < 40; ++v) b.add_edge(u, v);
  }
  for (Vertex v = 40; v < 55; ++v) b.add_edge(v - 1, v);  // tail off 39
  for (Vertex v = 61; v < 80; ++v) b.add_edge(v - 1, v);  // own component
  // 55..59 and 80..511 are isolated.
  const Graph g = b.build();
  const auto enc = DistanceScheme(f, 2.5).encode(g);
  ASSERT_EQ(enc.num_fat, 40u) << "tau " << enc.threshold;
  expect_matches_reference(g, f, 2.5, "clique+paths+isolated");
}

TEST_P(DistanceEncoderTest, OddFatCountWithStraddlingFields) {
  // 23 hubs of 30 leaves each, hubs joined in a ring, plus leaf-leaf
  // chords: k = 23 is not a multiple of 32, 21 or 16, and with dw = 3
  // (f = 3, 5) fields cross word boundaries inside the table.
  const std::uint64_t f = GetParam();
  constexpr Vertex kHubs = 23;
  constexpr Vertex kLeaves = 30;
  GraphBuilder b(kHubs * (kLeaves + 1));
  for (Vertex h = 0; h < kHubs; ++h) {
    b.add_edge(h, (h + 1) % kHubs);
    for (Vertex i = 0; i < kLeaves; ++i) {
      const Vertex leaf = kHubs + h * kLeaves + i;
      b.add_edge(h, leaf);
      if (i % 3 == 1) b.add_edge(leaf - 1, leaf);
    }
  }
  const Graph g = b.build();
  const auto enc = DistanceScheme(f, 2.5).encode(g);
  ASSERT_EQ(enc.num_fat, kHubs) << "tau " << enc.threshold;
  expect_matches_reference(g, f, 2.5, "hubs");
}

INSTANTIATE_TEST_SUITE_P(HopBounds, DistanceEncoderTest,
                         testing::Values<std::uint64_t>(1, 2, 3, 5, 7),
                         [](const auto& info) {
                           return "f" + std::to_string(info.param);
                         });

TEST(DistanceEncoder, EmptyGraph) {
  const auto enc = DistanceScheme(2, 2.5).encode(GraphBuilder(0).build());
  EXPECT_EQ(enc.labeling.size(), 0u);
  EXPECT_EQ(enc.num_fat, 0u);
}

// Pinned output for one seeded graph (n = 4096, alpha 2.5, average
// degree 8, seed 2016) at f = 2 (dw = 2) and f = 3 (dw = 3). The values
// were produced by the earlier encoder, which staged the whole n x k
// distance matrix as bytes before writing any label: this test was run
// against it with the expected values set to 0 and the printed actual
// values copied in. Any change to the label bits changes the digests.
TEST(DistanceEncoder, PinnedDigest) {
  Rng rng(2016);
  const Graph g = chung_lu_power_law(4096, 2.5, 8.0, rng);
  const auto f2 = DistanceScheme(2, 2.5).encode(g);
  const auto f3 = DistanceScheme(3, 2.5).encode(g);
  EXPECT_EQ(f2.num_fat, 668u);
  EXPECT_EQ(f2.labeling.stats().total_bits, 5995026u);
  EXPECT_EQ(label_digest(f2.labeling), 12831533658723222309ULL);
  EXPECT_EQ(f3.num_fat, 1332u);
  EXPECT_EQ(label_digest(f3.labeling), 17491694522191001658ULL);
}

}  // namespace
}  // namespace plg
