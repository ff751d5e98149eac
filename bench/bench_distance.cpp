// E5 — Lemma 7 distance labels: size vs hop bound f, against the
// closed-form bound n^{f/(alpha-1+f)} and the full-BFS baseline
// (Section 7's o(n) claim), plus a decoder-exactness audit, the wall time
// of each encode, and the zero-copy view path's time per query (view_ns).
// Exits 1 when the audit counts any wrong answer.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/distance_baseline.h"
#include "core/distance_scheme.h"
#include "core/distance_view.h"
#include "gen/chung_lu.h"
#include "graph/algorithms.h"
#include "powerlaw/threshold.h"
#include "util/random.h"

using namespace plg;

int main() {
  bench::header("E5: f(n)-distance labels (Lemma 7) vs full-BFS baseline");
  const std::size_t n = 1 << 13;
  const double alpha = 2.5;
  Rng rng(bench::kSeed);
  const Graph g = chung_lu_power_law(n, alpha, 5.0, rng);

  DistanceBaseline baseline;
  const auto base_stats = baseline.encode(g).stats();
  std::printf("full-BFS baseline: max %zu bits, avg %.1f bits\n",
              base_stats.max_bits, base_stats.avg_bits);

  std::printf("%4s | %10s %10s %8s %6s | %12s | %12s | %8s | %8s\n", "f",
              "max bits", "avg bits", "tau", "#fat", "lem7 bound", "exact?",
              "encode_s", "view_ns");
  std::size_t wrong = 0;
  for (const std::uint64_t f : {1ull, 2ull, 3ull, 4ull, 6ull}) {
    DistanceScheme scheme(f, alpha);
    const auto t0 = std::chrono::steady_clock::now();
    const auto enc = scheme.encode(g);
    const double encode_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    const auto stats = enc.labeling.stats();

    // Exactness audit on sampled pairs: the reference decoder against
    // BFS, and the zero-copy views against the reference decoder.
    std::vector<std::pair<Vertex, Vertex>> pairs;
    std::vector<std::optional<std::uint32_t>> answers;
    std::size_t wrong_here = 0;
    Rng qrng(bench::kSeed + f);
    for (int i = 0; i < 40; ++i) {
      const auto u = static_cast<Vertex>(qrng.next_below(n));
      const auto dist = bfs_distances(g, u);
      for (int j = 0; j < 50; ++j) {
        const auto v = static_cast<Vertex>(qrng.next_below(n));
        const auto got =
            DistanceScheme::distance(enc.labeling[u], enc.labeling[v]);
        const bool in_range = dist[v] != kInfDist && dist[v] <= f;
        if (in_range != got.has_value() ||
            (in_range && *got != dist[v])) {
          ++wrong_here;
        }
        pairs.emplace_back(u, v);
        answers.push_back(got);
      }
    }
    // view_ns: both headers parsed and the pair answered, per query, as
    // the engine's distance path does it (best of three passes).
    double view_ns = 0;
    for (int pass = 0; pass < 3; ++pass) {
      std::size_t view_wrong = 0;
      const auto v0 = std::chrono::steady_clock::now();
      for (std::size_t q = 0; q < pairs.size(); ++q) {
        const auto [u, v] = pairs[q];
        const DistanceView du = DistanceView::parse(enc.labeling[u]);
        const DistanceView dv = DistanceView::parse(enc.labeling[v]);
        const auto got = du.complete() && dv.complete()
                             ? distance_view(du, dv)
                             : DistanceScheme::distance(enc.labeling[u],
                                                        enc.labeling[v]);
        view_wrong += got != answers[q] ? 1u : 0u;
      }
      const double ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - v0)
                            .count() /
                        static_cast<double>(pairs.size());
      view_ns = pass == 0 ? ns : std::min(view_ns, ns);
      if (pass == 0) wrong_here += view_wrong;
    }
    wrong += wrong_here;
    const std::size_t checked = 2 * pairs.size();
    std::printf(
        "%4llu | %10zu %10.1f %8llu %6zu | %12.0f | %zu/%zu ok | %8.3f | "
        "%8.0f\n",
        static_cast<unsigned long long>(f), stats.max_bits, stats.avg_bits,
        static_cast<unsigned long long>(enc.threshold), enc.num_fat,
        bound_distance_bits(n, alpha, f), checked - wrong_here, checked,
        encode_s, view_ns);
  }
  bench::note("expected: labels grow with f but stay o(n); small-f labels");
  bench::note("undercut the full table (Section 7), exactness 100%.");
  if (wrong != 0) {
    std::fprintf(stderr, "E5: %zu wrong answers\n", wrong);
    return 1;
  }
  return 0;
}
