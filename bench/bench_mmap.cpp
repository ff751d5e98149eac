// E18: zero-copy mmap snapshots (.plgl v3) vs the v2 heap load.
//
// The storage subsystem (src/store/) claims that a v3 snapshot admission
// is O(header + directory + plan build) — open the mapping, validate the
// geometry, parse per-label decode plans that alias the mapping — while
// the v2 "heap" path pays a full strict parse, then re-packs every shard
// into an in-memory v3 image whose CRC it checks at once — a copy of
// every label byte into serving memory. This harness measures both ends of that
// trade on the Theorem 3 workload:
//
//   1. generate a Chung-Lu power-law graph (default n = 2^22, alpha
//      2.5), encode thin/fat labels,
//   2. persist the SAME labeling twice: v2 (LabelStore::save_file) and
//      v3 (store::StoreWriter::write_file),
//   3. admission: time Snapshot::from_file on each — the v2 heap load
//      once (it is the slow side), the v3 mmap load `reps` times
//      (best-of, it is milliseconds-scale and page-cache sensitive),
//   4. query throughput: identical single-thread adjacency sweeps over
//      one fixed random query stream through each snapshot's zero-copy
//      plans (the serving fast path); positives must agree between the
//      two snapshots, and a sampled prefix is cross-checked against the
//      materializing thin_fat_adjacent oracle — a fast wrong plane
//      fails the run,
//   5. emit BENCH_mmap.json for CI's perf-regression gate
//      (tools/bench_check.py): admission.speedup and query.ratio are
//      the two acceptance metrics (mmap admission much faster, mmap
//      query throughput within a few percent of heap). write.v3_s, the
//      StoreWriter::write_file time of step 2, is informational and
//      not gated.
//
// Usage: bench_mmap [n] [avg_deg] [queries] [shards] [reps] [tau]
//   defaults:        4194304  8.0   2000000   64      3      avg_deg+4
//
// tau matters at scale: every fat label is a k-bit row over the k fat
// identifiers (Theorem 4), so the fat section totals k^2 bits. With
// alpha 2.5, k ~ n * tau^-1.5, and the default tau=12 that is fine at
// CI scale (n=2^17 -> k=16k -> 34 MB) but quadratic-catastrophic at
// n=2^22 (k=523k -> 34 GB of labels). Large-n runs must raise tau;
// tau=32 at n=2^22 keeps k~120k and the store at ~1.8 GB.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/label_store.h"
#include "core/label_view.h"
#include "core/thin_fat.h"
#include "gen/chung_lu.h"
#include "service/snapshot.h"
#include "store/store_writer.h"
#include "util/bits.h"
#include "util/random.h"

namespace {

using namespace plg;

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed single-thread sweep through a snapshot's decode plans,
/// recording per-query ns in blocks (individual adjacency calls are too
/// short to time one by one). Returns total positives so the work
/// cannot be optimized away.
std::uint64_t sweep(
    const service::Snapshot& snap,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& queries,
    bench::LatencySamples& lat, double& seconds) {
  constexpr std::size_t kBlock = 4096;
  std::uint64_t positives = 0;
  const auto t0 = Clock::now();
  for (std::size_t off = 0; off < queries.size(); off += kBlock) {
    const std::size_t end = std::min(off + kBlock, queries.size());
    const auto b0 = Clock::now();
    for (std::size_t i = off; i < end; ++i) {
      const LabelView* vu = snap.view(queries[i].first);
      const LabelView* vv = snap.view(queries[i].second);
      positives += label_view_adjacent(*vu, *vv) ? 1 : 0;
    }
    const auto b1 = Clock::now();
    lat.record(std::chrono::duration<double, std::nano>(b1 - b0).count() /
               static_cast<double>(end - off));
  }
  seconds = seconds_between(t0, Clock::now());
  return positives;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : (std::size_t{1} << 22);
  const double avg_deg = argc > 2 ? std::strtod(argv[2], nullptr) : 8.0;
  const std::size_t num_queries =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2000000;
  const std::size_t num_shards =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 64;
  const int reps = argc > 5 ? std::atoi(argv[5]) : 3;
  const std::uint64_t tau = argc > 6
                                ? std::strtoull(argv[6], nullptr, 10)
                                : static_cast<std::uint64_t>(avg_deg) + 4;

  bench::header("E18: mmap v3 snapshots vs v2 heap load");

  Rng rng(bench::kSeed);
  const auto t_gen0 = Clock::now();
  const Graph g = chung_lu_power_law(n, 2.5, avg_deg, rng);
  const auto t_gen1 = Clock::now();
  const auto enc = thin_fat_encode(g, tau);
  const auto t_enc1 = Clock::now();
  std::printf("  graph: n=%zu m=%zu (gen %.1fs, encode %.1fs)\n",
              g.num_vertices(), g.num_edges(), seconds_between(t_gen0, t_gen1),
              seconds_between(t_gen1, t_enc1));

  bench::WorkloadInfo wl;
  wl.model = "chung-lu";
  wl.n = g.num_vertices();
  wl.m = g.num_edges();
  wl.alpha = 2.5;
  wl.avg_deg = avg_deg;
  wl.tau = tau;
  wl.width = id_width(n);
  wl.num_fat = enc.num_fat;
  wl.num_thin = enc.num_thin;

  // --- persist the same labeling through both formats -----------------
  const std::string v2_path = "BENCH_mmap_v2.plgl";
  const std::string v3_path = "BENCH_mmap_v3.plgl";
  const auto t_w0 = Clock::now();
  LabelStore::save_file(v2_path, enc.labeling);
  const auto t_w1 = Clock::now();
  store::StoreWriter::write_file(v3_path, enc.labeling, num_shards);
  const auto t_w2 = Clock::now();
  const double write_v3_s = seconds_between(t_w1, t_w2);
  std::printf("  wrote v2 in %.2fs, v3 (%zu shards) in %.2fs\n",
              seconds_between(t_w0, t_w1), num_shards, write_v3_s);

  // --- admission: v2 heap load vs v3 mmap -----------------------------
  const auto t_h0 = Clock::now();
  const auto heap = service::Snapshot::from_file(v2_path, num_shards);
  const auto t_h1 = Clock::now();
  const double heap_s = seconds_between(t_h0, t_h1);

  double mmap_s = 0.0;
  std::shared_ptr<const service::Snapshot> mapped;
  for (int r = 0; r < reps; ++r) {
    const auto t_m0 = Clock::now();
    auto snap = service::Snapshot::from_file(v3_path, num_shards);
    const auto t_m1 = Clock::now();
    const double s = seconds_between(t_m0, t_m1);
    if (mapped == nullptr || s < mmap_s) mmap_s = s;
    mapped = std::move(snap);
  }
  const double admit_speedup = heap_s / mmap_s;
  std::printf("  admission: heap %.3fs, mmap %.4fs (best of %d) -> %.0fx\n",
              heap_s, mmap_s, reps, admit_speedup);
  if (heap->size() != mapped->size() || heap->num_quarantined() != 0 ||
      mapped->num_quarantined() != 0) {
    std::fprintf(stderr, "FATAL: admission mismatch or quarantine\n");
    return 1;
  }

  // --- fixed query stream, shared by both snapshots -------------------
  std::vector<std::pair<std::uint64_t, std::uint64_t>> queries;
  queries.reserve(num_queries);
  {
    Rng qrng = stream_rng(bench::kSeed, 1);
    for (std::size_t i = 0; i < num_queries; ++i) {
      queries.emplace_back(qrng.next_below(n), qrng.next_below(n));
    }
  }

  // Warm both planes: one adjacency probe per vertex touches every
  // label's payload, so the mapped plane pays all of its first-touch
  // costs here — the lazy per-shard CRC, the minor fault per 4 KiB file
  // page (the heap plane's allocations came pre-faulted) — and the
  // timed sweeps below compare steady-state serving throughput, which
  // is what the gate cares about. A random-stream warm is not enough:
  // 2M random queries touch only ~38% of 2^22 vertices and the timed
  // sweep then stalls on faults for the rest (p99 was 4x worse).
  std::uint64_t warm_sink = 0;
  for (std::uint64_t u = 0; u < n; ++u) {
    const std::uint64_t v = u + 1 < n ? u + 1 : 0;
    warm_sink += label_view_adjacent(*heap->view(u), *heap->view(v)) ? 1 : 0;
    warm_sink +=
        label_view_adjacent(*mapped->view(u), *mapped->view(v)) ? 1 : 0;
  }
  bench::LatencySamples warm;
  double warm_s = 0.0;
  (void)sweep(*heap, queries, warm, warm_s);
  (void)sweep(*mapped, queries, warm, warm_s);
  if (warm_sink == ~std::uint64_t{0}) std::printf("  (unreachable)\n");

  // Timed sweeps alternate planes, best-of-reps each (same policy as the
  // admission timing: the min is the least-disturbed measurement on a
  // shared box).
  bench::LatencySamples lat_heap, lat_mmap;
  double secs_heap = 0.0, secs_mmap = 0.0;
  std::uint64_t pos_heap = 0, pos_mmap = 0;
  for (int r = 0; r < reps; ++r) {
    bench::LatencySamples lh, lm;
    double sh = 0.0, sm = 0.0;
    pos_heap = sweep(*heap, queries, lh, sh);
    pos_mmap = sweep(*mapped, queries, lm, sm);
    if (r == 0 || sh < secs_heap) {
      secs_heap = sh;
      lat_heap = std::move(lh);
    }
    if (r == 0 || sm < secs_mmap) {
      secs_mmap = sm;
      lat_mmap = std::move(lm);
    }
  }
  if (pos_heap != pos_mmap) {
    std::fprintf(stderr,
                 "FATAL: heap and mmap planes disagree (%" PRIu64
                 " vs %" PRIu64 " positives)\n",
                 pos_heap, pos_mmap);
    return 1;
  }

  // Oracle cross-check: the zero-copy planes against the materializing
  // BitReader decode on a sampled prefix (full-stream oracle would
  // dominate the run at 2^22).
  const std::size_t oracle_n = std::min<std::size_t>(20000, queries.size());
  for (std::size_t i = 0; i < oracle_n; ++i) {
    const auto [u, v] = queries[i];
    const bool want = thin_fat_adjacent(enc.labeling[static_cast<Vertex>(u)],
                                        enc.labeling[static_cast<Vertex>(v)]);
    const bool got_h = label_view_adjacent(*heap->view(u), *heap->view(v));
    const bool got_m = label_view_adjacent(*mapped->view(u), *mapped->view(v));
    if (got_h != want || got_m != want) {
      std::fprintf(stderr,
                   "FATAL: oracle divergence at query %zu (u=%" PRIu64
                   " v=%" PRIu64 ")\n",
                   i, u, v);
      return 1;
    }
  }

  const double qps_heap = static_cast<double>(queries.size()) / secs_heap;
  const double qps_mmap = static_cast<double>(queries.size()) / secs_mmap;
  const double ratio = qps_mmap / qps_heap;
  std::printf("\n  %-10s %10s %14s %10s %10s\n", "plane", "secs", "queries/s",
              "p50(ns)", "p99(ns)");
  std::printf("  %-10s %10.3f %14.0f %10.1f %10.1f\n", "heap", secs_heap,
              qps_heap, lat_heap.p50(), lat_heap.p99());
  std::printf("  %-10s %10.3f %14.0f %10.1f %10.1f\n", "mmap", secs_mmap,
              qps_mmap, lat_mmap.p50(), lat_mmap.p99());
  std::printf("  mmap/heap query ratio: %.3f (positives=%" PRIu64
              ", oracle-checked=%zu)\n",
              ratio, pos_mmap, oracle_n);

  // --- machine-readable artifact for the CI perf gate -----------------
  const char* out_path = "BENCH_mmap.json";
  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(
        f,
        "{\"bench\":\"mmap\",%s,\"queries\":%zu,\"shards\":%zu,"
        "\"write\":{\"v3_s\":%.3f},"
        "\"admission\":{\"heap_s\":%.3f,\"mmap_s\":%.4f,\"speedup\":%.1f},"
        "\"query\":{\"heap_qps\":%.0f,\"mmap_qps\":%.0f,\"ratio\":%.3f,"
        "\"heap_p50_ns\":%.1f,\"heap_p99_ns\":%.1f,\"mmap_p50_ns\":%.1f,"
        "\"mmap_p99_ns\":%.1f,\"positives\":%" PRIu64
        ",\"oracle_checked\":%zu}}\n",
        bench::workload_json(wl).c_str(), queries.size(), num_shards,
        write_v3_s, heap_s,
        mmap_s, admit_speedup, qps_heap, qps_mmap, ratio, lat_heap.p50(),
        lat_heap.p99(), lat_mmap.p50(), lat_mmap.p99(), pos_mmap, oracle_n);
    std::fclose(f);
    std::printf("  wrote %s\n", out_path);
  }
  std::remove(v2_path.c_str());
  std::remove(v3_path.c_str());
  return 0;
}
