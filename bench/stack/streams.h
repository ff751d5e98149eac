// Seeded query streams for bench_stack, with every answer precomputed by
// the paper's decoders.
//
// A Stream is one connection's queries, cut into fixed-size frames, plus
// the exact response payload bytes the server must send back for each
// frame. Streams are a pure function of (graph, mix, seed, connection):
// stream_rng(seed, 1 + conn) drives the sampling, so every run with one
// seed sends the same queries in the same order, whatever the thread
// timing. The expected answers come from thin_fat_adjacent or
// DistanceScheme::distance over the in-memory labeling (the decoders the
// serving stack must agree with), and cross_check() spot-checks those
// decoders against the graph itself (Graph::has_edge, capped BFS).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/labeling.h"
#include "graph/graph.h"
#include "service/engine.h"

namespace plg::benchstack {

/// How a stream picks its (u, v) pairs.
enum class Mix : std::uint8_t {
  kUniform,       ///< u, v uniform (mostly thin x thin misses)
  kDegreeBiased,  ///< 50% real edges, 50% pairs with endpoints drawn ∝ degree
  kTwoHop,        ///< 50% two-step random walks, 50% as kDegreeBiased
};

const char* mix_name(Mix m) noexcept;

using Pair = std::pair<std::uint64_t, std::uint64_t>;

struct Stream {
  std::size_t frame = 0;   ///< queries per frame
  std::size_t record = 1;  ///< response bytes per query (1 adj, 9 distance)
  std::vector<Pair> queries;        ///< frames() * frame pairs, frame-major
  std::vector<std::uint8_t> expect;  ///< expected response payloads

  std::size_t frames() const noexcept {
    return frame == 0 ? 0 : queries.size() / frame;
  }
  const Pair* frame_queries(std::size_t f) const noexcept {
    return queries.data() + f * frame;
  }
  const std::uint8_t* frame_expect(std::size_t f) const noexcept {
    return expect.data() + f * frame * record;
  }
  std::size_t frame_expect_bytes() const noexcept { return frame * record; }
};

/// Samples `frames` frames of `frame` queries for connection `conn`; the
/// answers are filled in later by fill_expected().
Stream make_stream(const Graph& g, Mix mix, service::QueryKind kind,
                   std::uint64_t seed, std::uint64_t conn, std::size_t frame,
                   std::size_t frames);

/// Fills s.expect with the wire response payload of every frame, decoded
/// from `labeling` with the paper's decoder for `kind`, on `threads`
/// threads.
void fill_expected(Stream& s, const Labeling& labeling,
                   service::QueryKind kind, unsigned threads);

/// Checks `sample` evenly spaced expected answers against the graph:
/// has_edge for adjacency, a BFS capped at f hops for distance. Throws
/// std::runtime_error on the first disagreement; returns the count checked.
std::size_t cross_check(const Stream& s, const Graph& g,
                        service::QueryKind kind, std::uint64_t f,
                        std::size_t sample);

/// Outcome of comparing one frame's answers with the expected ones.
struct Verdict {
  std::size_t ok = 0;      ///< kOk and equal to the oracle
  std::size_t not_ok = 0;  ///< any other status, or no answer at all
  std::size_t wrong = 0;   ///< kOk but different from the oracle
  std::size_t first_wrong = 0;  ///< index in the frame of the first wrong one
};

/// Compares a response payload with frame f's expected bytes. A payload of
/// the wrong length counts every query as not_ok.
Verdict check_payload(const Stream& s, std::size_t f, const std::uint8_t* got,
                      std::size_t got_len);

/// Compares in-process engine results for frame f with the expected ones.
Verdict check_results(const Stream& s, std::size_t f,
                      const service::QueryResult* got,
                      service::QueryKind kind);

/// Expected answer of query i of frame f: adjacency as 0/1, distance as
/// d(u, v) or -1 when d(u, v) > f.
std::int64_t expected_answer(const Stream& s, std::size_t f, std::size_t i);

}  // namespace plg::benchstack
