#include "graph/algorithms.h"

#include <algorithm>
#include <cassert>

namespace plg {

std::vector<std::uint32_t> bfs_distances(const Graph& g, Vertex source) {
  return bfs_distances_capped(g, source, kInfDist - 1);
}

std::vector<std::uint32_t> bfs_distances_capped(const Graph& g, Vertex source,
                                                std::uint32_t max_hops) {
  std::vector<std::uint32_t> dist(g.num_vertices(), kInfDist);
  BfsScratch bfs(g.num_vertices());
  for (const auto& [v, d] :
       bfs.run(g, source, max_hops, [](Vertex) { return true; })) {
    dist[v] = d;
  }
  return dist;
}

std::vector<std::pair<Vertex, std::uint32_t>> bfs_ball_masked(
    const Graph& g, Vertex source, std::uint32_t max_hops,
    const BitVector& mask) {
  BfsScratch bfs(g.num_vertices());
  const auto ball = bfs.run(g, source, max_hops,
                            [&mask](Vertex w) { return mask.get(w); });
  return {ball.begin() + 1, ball.end()};
}

std::vector<std::uint32_t> connected_components(const Graph& g) {
  std::vector<std::uint32_t> comp(g.num_vertices(), kInfDist);
  std::uint32_t next_id = 0;
  std::vector<Vertex> stack;
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    if (comp[s] != kInfDist) continue;
    comp[s] = next_id;
    stack.push_back(s);
    while (!stack.empty()) {
      const Vertex u = stack.back();
      stack.pop_back();
      for (const Vertex w : g.neighbors(u)) {
        if (comp[w] == kInfDist) {
          comp[w] = next_id;
          stack.push_back(w);
        }
      }
    }
    ++next_id;
  }
  return comp;
}

std::size_t num_connected_components(const Graph& g) {
  const auto comp = connected_components(g);
  std::uint32_t best = 0;
  for (const auto c : comp) best = std::max(best, c + 1);
  return g.num_vertices() == 0 ? 0 : best;
}

DegeneracyOrder degeneracy_order(const Graph& g) {
  const std::size_t n = g.num_vertices();
  DegeneracyOrder result;
  result.order.reserve(n);
  result.position.assign(n, 0);

  // Bucketed min-degree peeling (Matula–Beck).
  std::vector<std::size_t> deg(n);
  std::size_t max_deg = 0;
  for (Vertex v = 0; v < n; ++v) {
    deg[v] = g.degree(v);
    max_deg = std::max(max_deg, deg[v]);
  }
  std::vector<std::vector<Vertex>> buckets(max_deg + 1);
  for (Vertex v = 0; v < n; ++v) buckets[deg[v]].push_back(v);
  std::vector<bool> removed(n, false);

  std::size_t cursor = 0;  // lowest possibly-non-empty bucket
  for (std::size_t removed_count = 0; removed_count < n; ++removed_count) {
    while (cursor <= max_deg && buckets[cursor].empty()) ++cursor;
    // Entries in buckets can be stale (degree decreased since insertion);
    // pop until a live entry whose recorded degree matches appears.
    Vertex v = 0;
    for (;;) {
      assert(cursor <= max_deg);
      if (buckets[cursor].empty()) {
        ++cursor;
        continue;
      }
      v = buckets[cursor].back();
      buckets[cursor].pop_back();
      if (!removed[v] && deg[v] == cursor) break;
    }
    removed[v] = true;
    result.degeneracy = std::max(result.degeneracy, cursor);
    result.position[v] = static_cast<std::uint32_t>(result.order.size());
    result.order.push_back(v);
    for (const Vertex w : g.neighbors(v)) {
      if (!removed[w]) {
        --deg[w];
        buckets[deg[w]].push_back(w);
        if (deg[w] < cursor) cursor = deg[w];
      }
    }
  }
  return result;
}

std::vector<std::vector<Vertex>> orient_by_order(
    const Graph& g, const DegeneracyOrder& order) {
  std::vector<std::vector<Vertex>> out(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const Vertex w : g.neighbors(v)) {
      if (order.position[v] < order.position[w]) out[v].push_back(w);
    }
  }
  return out;
}

std::uint32_t eccentricity(const Graph& g, Vertex v) {
  const auto dist = bfs_distances(g, v);
  std::uint32_t ecc = 0;
  for (const auto d : dist) {
    if (d != kInfDist) ecc = std::max(ecc, d);
  }
  return ecc;
}

SubgraphResult induced_subgraph(const Graph& g,
                                std::span<const Vertex> keep) {
  SubgraphResult out;
  std::vector<std::uint32_t> new_id(g.num_vertices(), kInfDist);
  for (const Vertex v : keep) {
    if (new_id[v] == kInfDist) {
      new_id[v] = static_cast<std::uint32_t>(out.original_id.size());
      out.original_id.push_back(v);
    }
  }
  GraphBuilder builder(out.original_id.size());
  for (const Vertex v : out.original_id) {
    for (const Vertex w : g.neighbors(v)) {
      if (new_id[w] != kInfDist && new_id[v] < new_id[w]) {
        builder.add_edge(new_id[v], new_id[w]);
      }
    }
  }
  out.graph = builder.build();
  return out;
}

SubgraphResult largest_component(const Graph& g) {
  const auto comp = connected_components(g);
  std::vector<std::size_t> sizes;
  for (const auto c : comp) {
    if (c >= sizes.size()) sizes.resize(c + 1, 0);
    ++sizes[c];
  }
  std::uint32_t best = 0;
  for (std::uint32_t c = 1; c < sizes.size(); ++c) {
    if (sizes[c] > sizes[best]) best = c;
  }
  std::vector<Vertex> keep;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (comp[v] == best) keep.push_back(v);
  }
  return induced_subgraph(g, keep);
}

std::uint32_t diameter_lower_bound(const Graph& g, Vertex start) {
  if (g.num_vertices() == 0) return 0;
  const auto first = bfs_distances(g, start);
  Vertex far = start;
  std::uint32_t best = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (first[v] != kInfDist && first[v] > best) {
      best = first[v];
      far = v;
    }
  }
  return eccentricity(g, far);
}

}  // namespace plg
