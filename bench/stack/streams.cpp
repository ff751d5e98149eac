#include "streams.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/distance_scheme.h"
#include "core/thin_fat.h"
#include "graph/algorithms.h"
#include "service/frame.h"
#include "util/random.h"

namespace plg::benchstack {

namespace {

using service::QueryKind;
using service::wire::ResultCode;

/// Degree-proportional sampling over the adjacency slots of g: a uniform
/// slot is a uniform directed edge, and its tail is a vertex drawn ∝ degree.
class DegreeSampler {
 public:
  explicit DegreeSampler(const Graph& g) : g_(g), cum_(g.num_vertices() + 1) {
    for (std::size_t v = 0; v < g.num_vertices(); ++v) {
      cum_[v + 1] = cum_[v] + g.degree(static_cast<Vertex>(v));
    }
    if (cum_.back() == 0) {
      throw std::runtime_error("streams: graph has no edges to sample");
    }
  }

  Edge edge(Rng& rng) const {
    const std::uint64_t slot = rng.next_below(cum_.back());
    const auto it = std::upper_bound(cum_.begin(), cum_.end(), slot);
    const auto u = static_cast<Vertex>(it - cum_.begin() - 1);
    return Edge{u, g_.neighbors(u)[slot - cum_[u]]};
  }

  Vertex endpoint(Rng& rng) const { return edge(rng).u; }

  Vertex neighbor(Vertex u, Rng& rng) const {
    const auto nb = g_.neighbors(u);
    return nb[rng.next_below(nb.size())];
  }

 private:
  const Graph& g_;
  std::vector<std::uint64_t> cum_;
};

void put_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int b = 0; b < 8; ++b) p[b] = static_cast<std::uint8_t>(v >> (8 * b));
}

}  // namespace

const char* mix_name(Mix m) noexcept {
  switch (m) {
    case Mix::kUniform:
      return "uniform";
    case Mix::kDegreeBiased:
      return "degree-biased";
    case Mix::kTwoHop:
      return "two-hop";
  }
  return "?";
}

Stream make_stream(const Graph& g, Mix mix, QueryKind kind, std::uint64_t seed,
                   std::uint64_t conn, std::size_t frame, std::size_t frames) {
  if (frame == 0 || frames == 0) {
    throw std::invalid_argument("streams: empty stream requested");
  }
  const DegreeSampler deg(g);
  Rng rng = stream_rng(seed, 1 + conn);
  const std::uint64_t n = g.num_vertices();
  Stream s;
  s.frame = frame;
  s.record = kind == QueryKind::kDistance ? service::wire::kDistRecordSize : 1;
  s.queries.resize(frame * frames);
  for (Pair& q : s.queries) {
    const bool walk = rng.next_bool(0.5);
    if (mix == Mix::kUniform) {
      q = {rng.next_below(n), rng.next_below(n)};
    } else if (walk && mix == Mix::kDegreeBiased) {
      const Edge e = deg.edge(rng);
      q = {e.u, e.v};
    } else if (walk && mix == Mix::kTwoHop) {
      const Vertex u = deg.endpoint(rng);
      q = {u, deg.neighbor(deg.neighbor(u, rng), rng)};
    } else {
      const Vertex u = deg.endpoint(rng);
      q = {u, deg.endpoint(rng)};
    }
  }
  return s;
}

void fill_expected(Stream& s, const Labeling& labeling, QueryKind kind,
                   unsigned threads) {
  s.expect.assign(s.queries.size() * s.record, 0);
  if (threads == 0) threads = 1;
  const std::size_t per = (s.queries.size() + threads - 1) / threads;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const std::size_t end = std::min(s.queries.size(), (t + 1) * per);
      for (std::size_t i = t * per; i < end; ++i) {
        const Label& a = labeling[static_cast<Vertex>(s.queries[i].first)];
        const Label& b = labeling[static_cast<Vertex>(s.queries[i].second)];
        std::uint8_t* rec = s.expect.data() + i * s.record;
        if (kind == QueryKind::kAdjacency) {
          rec[0] = static_cast<std::uint8_t>(
              thin_fat_adjacent(a, b) ? ResultCode::kYes : ResultCode::kNo);
        } else {
          const auto d = DistanceScheme::distance(a, b);
          rec[0] = static_cast<std::uint8_t>(d ? ResultCode::kYes
                                               : ResultCode::kNo);
          put_le64(rec + 1, d ? std::uint64_t{*d}
                              : static_cast<std::uint64_t>(std::int64_t{-1}));
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
}

std::int64_t expected_answer(const Stream& s, std::size_t f, std::size_t i) {
  const std::uint8_t* rec = s.frame_expect(f) + i * s.record;
  if (s.record == 1) {
    return rec[0] == static_cast<std::uint8_t>(ResultCode::kYes) ? 1 : 0;
  }
  return static_cast<std::int64_t>(service::wire::get_u64(rec + 1));
}

std::size_t cross_check(const Stream& s, const Graph& g, QueryKind kind,
                        std::uint64_t f, std::size_t sample) {
  const std::size_t total = s.queries.size();
  sample = std::min(sample, total);
  for (std::size_t k = 0; k < sample; ++k) {
    const std::size_t i = k * total / sample;
    const auto u = static_cast<Vertex>(s.queries[i].first);
    const auto v = static_cast<Vertex>(s.queries[i].second);
    const std::int64_t want = expected_answer(s, i / s.frame, i % s.frame);
    std::int64_t truth = 0;
    if (kind == QueryKind::kAdjacency) {
      truth = g.has_edge(u, v) ? 1 : 0;
    } else {
      const std::uint32_t d =
          bfs_distances_capped(g, u, static_cast<std::uint32_t>(f))[v];
      truth = d <= f ? static_cast<std::int64_t>(d) : -1;
    }
    if (truth != want) {
      throw std::runtime_error(
          "streams: decoder disagrees with the graph on (" + std::to_string(u) +
          ", " + std::to_string(v) + "): decoder " + std::to_string(want) +
          ", graph " + std::to_string(truth));
    }
  }
  return sample;
}

Verdict check_payload(const Stream& s, std::size_t f, const std::uint8_t* got,
                      std::size_t got_len) {
  Verdict out;
  if (got_len != s.frame_expect_bytes()) {
    out.not_ok = s.frame;
    return out;
  }
  const std::uint8_t* want = s.frame_expect(f);
  if (std::memcmp(got, want, got_len) == 0) {
    out.ok = s.frame;
    return out;
  }
  for (std::size_t i = 0; i < s.frame; ++i) {
    const std::uint8_t* g = got + i * s.record;
    const std::uint8_t* w = want + i * s.record;
    if (g[0] != static_cast<std::uint8_t>(ResultCode::kYes) &&
        g[0] != static_cast<std::uint8_t>(ResultCode::kNo)) {
      ++out.not_ok;
    } else if (std::memcmp(g, w, s.record) != 0) {
      if (out.wrong++ == 0) out.first_wrong = i;
    } else {
      ++out.ok;
    }
  }
  return out;
}

Verdict check_results(const Stream& s, std::size_t f,
                      const service::QueryResult* got, QueryKind kind) {
  Verdict out;
  for (std::size_t i = 0; i < s.frame; ++i) {
    if (got[i].status != service::QueryStatus::kOk) {
      ++out.not_ok;
      continue;
    }
    const std::int64_t answer = kind == QueryKind::kAdjacency
                                    ? (got[i].adjacent ? 1 : 0)
                                    : got[i].distance;
    if (answer != expected_answer(s, f, i)) {
      if (out.wrong++ == 0) out.first_wrong = i;
    } else {
      ++out.ok;
    }
  }
  return out;
}

}  // namespace plg::benchstack
