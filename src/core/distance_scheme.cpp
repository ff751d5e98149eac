#include "core/distance_scheme.h"

#include <algorithm>

#include "graph/algorithms.h"
#include "powerlaw/threshold.h"
#include "util/bits.h"
#include "util/bitvector.h"
#include "util/errors.h"

namespace plg {

namespace {

struct Header {
  int width = 0;        // id field width
  int dist_width = 0;   // distance field width
  std::uint64_t f = 0;  // hop bound
  std::uint64_t k = 0;  // number of fat vertices
  bool fat = false;
  std::uint64_t id = 0;
  std::uint64_t rank = 0;  // fat rank (valid iff fat)
  // plglint-disable(view-lifetime): transient parse cursor; consumed
  // within the caller's Label argument lifetime, never stored or returned
  // past it
  BitReader rest;          // positioned at the fat-distance table
};

Header parse(const Label& l) {
  BitReader r = l.reader();
  Header h;
  const std::uint64_t width = r.read_gamma();
  if (width > 32) throw DecodeError("distance: absurd id width");
  h.width = static_cast<int>(width);
  h.f = r.read_gamma0();
  if (h.f > kMaxHopBound) throw DecodeError("distance: hop bound f > 254");
  h.dist_width = id_width(h.f + 2);  // values 0..f plus the "far" sentinel
  h.k = r.read_gamma0();
  h.fat = r.read_bit();
  h.id = r.read_bits(h.width);
  if (h.fat) h.rank = r.read_gamma0();
  h.rest = r;
  return h;
}

/// Reads fat-table entry `rank` from a label positioned at its table.
/// Destroys the reader position (copy the Header first if reused).
std::uint64_t fat_entry(Header& h, std::uint64_t rank) {
  std::uint64_t skip = rank * static_cast<std::uint64_t>(h.dist_width);
  while (skip >= 64) {
    (void)h.rest.read_bits(64);
    skip -= 64;
  }
  if (skip > 0) (void)h.rest.read_bits(static_cast<int>(skip));
  return h.rest.read_bits(h.dist_width);
}

}  // namespace

DistanceScheme::DistanceScheme(std::uint64_t f, double alpha)
    : f_(f), alpha_(alpha) {
  if (f < 1) throw EncodeError("DistanceScheme: f must be >= 1");
  if (alpha <= 1.0) throw EncodeError("DistanceScheme: alpha must be > 1");
}

DistanceEncoding DistanceScheme::encode(const Graph& g) const {
  if (f_ > kMaxHopBound) {
    throw EncodeError("DistanceScheme: f > 254 not supported");
  }
  const std::size_t n = g.num_vertices();
  const std::uint64_t tau = tau_distance(n, alpha_, f_);
  const std::uint64_t far = f_ + 1;  // sentinel: "more than f hops"
  const int width = id_width(n);
  const int dist_width = id_width(f_ + 2);
  const auto hops = static_cast<std::uint32_t>(f_);

  std::vector<Vertex> fat_vertices;  // indexed by fat rank
  BitVector thin_mask(n);
  for (Vertex v = 0; v < n; ++v) {
    if (g.degree(v) >= tau) {
      fat_vertices.push_back(v);
    } else {
      thin_mask.set(v);
    }
  }
  const std::size_t k = fat_vertices.size();

  // The labels are built in place, never staging the n x k distance
  // matrix. Pass 1 lays every label out whole, with its fat table filled
  // with the far code (64 / dist_width fields per write) and its thin-only
  // ball (part ii) written behind it; pass 2 runs one capped BFS per fat
  // vertex and overwrites the fields it reaches (part i). Beyond the
  // labels the encoder holds O(n): one BFS scratch and two offsets per
  // label.
  const std::size_t per_chunk = 64 / static_cast<std::size_t>(dist_width);
  std::uint64_t far_chunk = 0;
  for (std::size_t i = 0; i < per_chunk; ++i) {
    far_chunk |= far << (i * static_cast<std::size_t>(dist_width));
  }
  BfsScratch bfs(n);
  BitWriter w;  // arena: each label is copied out at exact size
  std::vector<std::pair<Vertex, std::uint32_t>> ball;
  std::vector<std::vector<std::uint64_t>> words(n);
  std::vector<std::size_t> size_bits(n);
  std::vector<std::size_t> table_at(n);  // bit offset of each fat table
  std::uint64_t next_rank = 0;
  for (Vertex v = 0; v < n; ++v) {
    w.clear();
    w.write_gamma(static_cast<std::uint64_t>(width));
    w.write_gamma0(f_);
    w.write_gamma0(k);
    const bool fat = !thin_mask.get(v);
    w.write_bit(fat);
    w.write_bits(v, width);
    if (fat) w.write_gamma0(next_rank++);
    table_at[v] = w.size_bits();
    std::size_t left = k;
    for (; left >= per_chunk; left -= per_chunk) {
      w.write_bits(far_chunk, static_cast<int>(per_chunk) * dist_width);
    }
    w.write_bits(far_chunk, static_cast<int>(left) * dist_width);
    if (!fat) {
      const auto reached = bfs.run(g, v, hops, [&thin_mask](Vertex u) {
        return thin_mask.get(u);
      });
      ball.assign(reached.begin() + 1, reached.end());  // drop v itself
      std::sort(ball.begin(), ball.end());
      w.write_gamma0(ball.size());
      for (const auto& [u, d] : ball) {
        w.write_bits(u, width);
        w.write_bits(d, dist_width);
      }
    }
    size_bits[v] = w.size_bits();
    words[v].assign(w.words().begin(), w.words().end());
  }

  for (std::size_t r = 0; r < k; ++r) {
    const std::size_t field = r * static_cast<std::size_t>(dist_width);
    for (const auto& [v, d] :
         bfs.run(g, fat_vertices[r], hops, [](Vertex) { return true; })) {
      deposit_bits(words[v].data(), table_at[v] + field, dist_width, d);
    }
  }

  std::vector<Label> labels;
  labels.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    labels.push_back(Label::from_words(std::move(words[v]), size_bits[v]));
  }

  DistanceEncoding out;
  out.labeling = Labeling(std::move(labels));
  out.f = f_;
  out.threshold = tau;
  out.num_fat = k;
  return out;
}

std::optional<std::uint32_t> DistanceScheme::distance(const Label& a,
                                                      const Label& b) {
  Header ha = parse(a);
  Header hb = parse(b);
  if (ha.width != hb.width || ha.f != hb.f || ha.k != hb.k) {
    throw DecodeError("distance: labels come from different encodings");
  }
  if (ha.id == hb.id) return 0;
  const std::uint64_t far = ha.f + 1;
  std::uint64_t best = far;

  if (ha.fat || hb.fat) {
    // Read the fat endpoint's distance out of the other label's table
    // (both directions when both are fat — they agree, so one suffices).
    Header& fat_side = ha.fat ? ha : hb;
    Header& other = ha.fat ? hb : ha;
    best = std::min(best, fat_entry(other, fat_side.rank));
  }
  if (!ha.fat && !hb.fat) {
    // Join the two fat tables: min over ranks of d(u,w) + d(w,v).
    BitReader ta = ha.rest;
    BitReader tb = hb.rest;
    for (std::uint64_t r = 0; r < ha.k; ++r) {
      const std::uint64_t du = ta.read_bits(ha.dist_width);
      const std::uint64_t dv = tb.read_bits(hb.dist_width);
      if (du < far && dv < far) best = std::min(best, du + dv);
    }
    // Thin-only tables on both sides.
    const auto scan_thin = [&](BitReader r, int width, int dist_width,
                               std::uint64_t needle) -> std::uint64_t {
      const std::uint64_t count = r.read_gamma0();
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t id = r.read_bits(width);
        const std::uint64_t d = r.read_bits(dist_width);
        if (id == needle) return d;
        if (id > needle) return far;  // sorted by id
      }
      return far;
    };
    // Position readers past the fat tables (k entries each).
    BitReader sa = ha.rest;
    BitReader sb = hb.rest;
    std::uint64_t skip = ha.k * static_cast<std::uint64_t>(ha.dist_width);
    for (BitReader* r : {&sa, &sb}) {
      std::uint64_t left = skip;
      while (left >= 64) {
        (void)r->read_bits(64);
        left -= 64;
      }
      if (left > 0) (void)r->read_bits(static_cast<int>(left));
    }
    best = std::min(best, scan_thin(sa, ha.width, ha.dist_width, hb.id));
    best = std::min(best, scan_thin(sb, hb.width, hb.dist_width, ha.id));
  }

  if (best > ha.f) return std::nullopt;
  return static_cast<std::uint32_t>(best);
}

}  // namespace plg
