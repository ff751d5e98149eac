// Tests for the concurrent query service (src/service/).
//
// The concurrency tests are written to run meaningfully under
// ThreadSanitizer (the tsan CI job): the hammer test asserts every
// concurrent answer equals the single-threaded oracle, and the hot-swap
// test reloads snapshots continuously under a query storm. Sizes are kept
// small enough for single-core CI runners while still interleaving
// workers, callers and the swapper.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/distance_scheme.h"
#include "core/thin_fat.h"
#include "gen/chung_lu.h"
#include "service/engine.h"
#include "service/metrics.h"
#include "service/serve.h"
#include "store/shard_map.h"
#include "store/store_writer.h"
#include "service/snapshot.h"
#include "service/thread_pool.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace plg::service {
namespace {

Graph test_graph(std::size_t n = 600, std::uint64_t seed = 99) {
  Rng rng(seed);
  return chung_lu_power_law(n, 2.5, 8.0, rng);
}

ThinFatEncoding test_encoding(const Graph& g, std::uint64_t tau = 12) {
  return thin_fat_encode(g, tau);
}

// ---------------------------------------------------------------- ShardMap

TEST(ShardMap, CoversEveryVertexExactlyOnce) {
  for (const std::size_t shards : {1u, 3u, 7u, 16u, 1000u}) {
    const ShardMap map(617, shards);
    std::uint64_t covered = 0;
    for (std::size_t s = 0; s < map.num_shards(); ++s) {
      EXPECT_LE(map.shard_begin(s), map.shard_end(s));
      for (std::uint64_t v = map.shard_begin(s); v < map.shard_end(s); ++v) {
        EXPECT_EQ(map.shard_of(v), s);
        EXPECT_EQ(map.index_in_shard(v), v - map.shard_begin(s));
        ++covered;
      }
    }
    EXPECT_EQ(covered, 617u);
    EXPECT_LE(map.num_shards(), 617u);
  }
}

TEST(ShardMap, DegenerateSizes) {
  const ShardMap empty(0, 4);
  EXPECT_EQ(empty.num_vertices(), 0u);
  const ShardMap zero_shards(10, 0);
  EXPECT_EQ(zero_shards.num_shards(), 1u);
  EXPECT_EQ(zero_shards.shard_of(9), 0u);
}

// ---------------------------------------------------------------- Snapshot

TEST(Snapshot, RoundTripsEveryLabel) {
  const Graph g = test_graph(300);
  const auto enc = test_encoding(g);
  const auto snap = Snapshot::build(enc.labeling, 7);
  ASSERT_EQ(snap->size(), enc.labeling.size());
  EXPECT_EQ(snap->num_shards(), 7u);
  EXPECT_GT(snap->total_bytes(), 0u);
  for (std::uint64_t v = 0; v < snap->size(); ++v) {
    EXPECT_EQ(snap->get(v), enc.labeling[static_cast<Vertex>(v)]);
    EXPECT_EQ(snap->label_bits(v),
              enc.labeling[static_cast<Vertex>(v)].size_bits());
    EXPECT_TRUE(snap->verify_label(v));
  }
}

TEST(Snapshot, FromFileMatchesBuild) {
  const Graph g = test_graph(200);
  const auto enc = test_encoding(g);
  const std::string path = testing::TempDir() + "snap_roundtrip.plgl";
  LabelStore::save_file(path, enc.labeling);
  const auto snap = Snapshot::from_file(path, 5);
  ASSERT_EQ(snap->size(), enc.labeling.size());
  for (std::uint64_t v = 0; v < snap->size(); ++v) {
    EXPECT_EQ(snap->get(v), enc.labeling[static_cast<Vertex>(v)]);
  }
}

TEST(Snapshot, IdsAreUnique) {
  const Graph g = test_graph(50);
  const auto enc = test_encoding(g);
  const auto a = Snapshot::build(enc.labeling, 2);
  const auto b = Snapshot::build(enc.labeling, 2);
  EXPECT_NE(a->id(), b->id());
}

TEST(SnapshotStore, SwapBumpsGenerationAndRetiresOld) {
  const Graph g = test_graph(50);
  const auto enc = test_encoding(g);
  auto first = Snapshot::build(enc.labeling, 2);
  const std::weak_ptr<const Snapshot> watch = first;
  SnapshotStore store(std::move(first));
  EXPECT_EQ(store.generation(), 0u);
  store.swap(Snapshot::build(enc.labeling, 4));
  EXPECT_EQ(store.generation(), 1u);
  EXPECT_EQ(store.acquire()->num_shards(), 4u);
  // No readers hold the original snapshot: the swap released it.
  EXPECT_TRUE(watch.expired());
}

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPool, JobsOnOneWorkerRunInOrder) {
  ThreadPool pool(3);
  std::vector<int> order;
  std::atomic<int> remaining{100};
  for (int i = 0; i < 100; ++i) {
    pool.submit(1, [&order, &remaining, i] {
      order.push_back(i);  // single worker: no lock needed
      remaining.fetch_sub(1, std::memory_order_release);
    });
  }
  while (remaining.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, DestructorDrainsPendingJobs) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit(static_cast<unsigned>(i), [&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // destructor joins after draining
  EXPECT_EQ(ran.load(), 50);
}

// ----------------------------------------------------------------- Metrics

TEST(Metrics, LatencyBucketsAndQuantiles) {
  EXPECT_EQ(latency_bucket(0), 0);
  EXPECT_EQ(latency_bucket(1), 0);
  EXPECT_EQ(latency_bucket(2), 1);
  EXPECT_EQ(latency_bucket(1024), 10);
  EXPECT_EQ(latency_bucket_floor(10), 1024u);

  ServiceStats s;
  s.latency_buckets[4] = 90;   // 16..31 ns
  s.latency_buckets[10] = 10;  // 1024..2047 ns
  EXPECT_EQ(s.latency_quantile_ns(0.5), 16u);
  EXPECT_EQ(s.latency_quantile_ns(0.99), 1024u);
}

TEST(Metrics, AggregateSumsWorkerSlots) {
  MetricsRegistry reg(3);
  for (unsigned w = 0; w < 3; ++w) {
    reg.slot(w).queries.fetch_add(10 * (w + 1));
    reg.slot(w).latency.record(100);
  }
  const ServiceStats s = reg.aggregate();
  EXPECT_EQ(s.workers, 3u);
  EXPECT_EQ(s.queries, 60u);
  EXPECT_EQ(s.latency_buckets[latency_bucket(100)], 3u);
  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"queries\":60"), std::string::npos);
  EXPECT_NE(json.find("\"latency_hist\":[[64,3]]"), std::string::npos);
}

TEST(Metrics, RecordNFilesCountSamplesInOneBucket) {
  MetricsRegistry reg(1);
  reg.slot(0).latency.record_n(100, 256);
  reg.slot(0).latency.record_n(5000, 3);
  const ServiceStats s = reg.aggregate();
  EXPECT_EQ(s.latency_buckets[latency_bucket(100)], 256u);
  EXPECT_EQ(s.latency_buckets[latency_bucket(5000)], 3u);
  EXPECT_EQ(s.latency_quantile_ns(0.5), latency_bucket_floor(6));
}

// ------------------------------------------------------------ QueryService

// One multi-chunk batch through several workers that mixes valid
// queries, u >= n (the counting sort's extra bucket), v >= n, and queries
// against a quarantined shard. Chunks answer in shard order and flush
// their counters once, so this checks that every result still lands at
// its own index and every counter comes out exact.
TEST(QueryService, MultiChunkBatchKeepsPositionsAndExactCounters) {
  const Graph g = test_graph(600, 41);
  const auto enc = test_encoding(g);
  const std::uint64_t n = g.num_vertices();
  constexpr std::size_t kBad = 2;
  QueryService svc(
      Snapshot::build(enc.labeling, 8)->with_quarantined_shard(kBad, "test"),
      {.threads = 3, .chunk = 64, .heal = false});
  const ShardMap map = svc.snapshot()->shard_map();

  Rng rng = stream_rng(4242, 0);
  std::vector<QueryRequest> batch;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    QueryRequest q{rng.next_below(n), rng.next_below(n)};
    if (i % 10 == 1 && g.degree(static_cast<Vertex>(q.u)) != 0) {
      q.v = g.neighbors(static_cast<Vertex>(q.u)).front();  // a positive
    } else if (i % 10 == 3) {
      q.u = n + rng.next_below(5);
    } else if (i % 10 == 6) {
      q.v = n + i;
    } else if (i % 10 == 9) {
      q.u = ~std::uint64_t{0};
    }
    batch.push_back(q);
  }
  const auto results = svc.query_batch(batch);
  ASSERT_EQ(results.size(), batch.size());

  std::uint64_t ok = 0, positive = 0, range = 0, quarantined = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const QueryRequest& q = batch[i];
    if (q.u >= n || q.v >= n) {
      ASSERT_EQ(results[i].status, QueryStatus::kOutOfRange) << "i=" << i;
      ++range;
    } else if (map.shard_of(q.u) == kBad || map.shard_of(q.v) == kBad) {
      ASSERT_EQ(results[i].status, QueryStatus::kCorrupt) << "i=" << i;
      ++quarantined;
    } else {
      ASSERT_EQ(results[i].status, QueryStatus::kOk) << "i=" << i;
      const bool oracle = thin_fat_adjacent(
          enc.labeling[static_cast<Vertex>(q.u)],
          enc.labeling[static_cast<Vertex>(q.v)]);
      ASSERT_EQ(results[i].adjacent, oracle) << "i=" << i;
      ++ok;
      positive += oracle ? 1u : 0u;
    }
  }
  ASSERT_GT(quarantined, 0u);
  ASSERT_GT(positive, 0u);

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.queries, batch.size());
  EXPECT_EQ(stats.batches, (batch.size() + 63) / 64);
  EXPECT_EQ(stats.view_hits, ok);
  EXPECT_EQ(stats.positive, positive);
  EXPECT_EQ(stats.range_errors, range);
  EXPECT_EQ(stats.quarantine_hits, quarantined);
  EXPECT_EQ(stats.corruptions, 0u);
  std::uint64_t samples = 0;
  for (const std::uint64_t c : stats.latency_buckets) samples += c;
  EXPECT_EQ(samples, stats.queries);
}

TEST(QueryService, BatchMatchesOracle) {
  const Graph g = test_graph(400);
  const auto enc = test_encoding(g);
  QueryService svc(Snapshot::build(enc.labeling, 8),
                   {.threads = 4, .chunk = 32});

  Rng rng = stream_rng(1234, 0);
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 2000; ++i) {
    batch.push_back({rng.next_below(g.num_vertices()),
                     rng.next_below(g.num_vertices())});
  }
  const auto results = svc.query_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(results[i].status, QueryStatus::kOk);
    const bool oracle = g.has_edge(static_cast<Vertex>(batch[i].u),
                                   static_cast<Vertex>(batch[i].v)) &&
                        batch[i].u != batch[i].v;
    EXPECT_EQ(results[i].adjacent, oracle) << batch[i].u << "," << batch[i].v;
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.queries, batch.size());
  // Every adjacency query on a healthy snapshot answers from its plans.
  EXPECT_EQ(stats.view_hits, batch.size());
  EXPECT_EQ(stats.corruptions, 0u);
}

TEST(QueryService, OutOfRangeAndCorruptAreInBand) {
  const Graph g = test_graph(100);
  const auto enc = test_encoding(g);

  // Smuggle one undecodable label into the labeling: the snapshot stores
  // it faithfully (the store is scheme-agnostic), the decoder throws, and
  // the engine must convert that into kCorrupt, not a dead worker.
  std::vector<Label> labels(enc.labeling.labels());
  BitWriter garbage;
  garbage.write_bits(~std::uint64_t{0}, 64);
  labels[7] = Label::from_writer(std::move(garbage));

  QueryService svc(Snapshot::build(Labeling(std::move(labels)), 4),
                   {.threads = 2});
  EXPECT_EQ(svc.query({0, 100}).status, QueryStatus::kOutOfRange);
  EXPECT_EQ(svc.query({3, 7}).status, QueryStatus::kCorrupt);
  EXPECT_EQ(svc.query({3, 4}).status, QueryStatus::kOk);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.range_errors, 1u);
  EXPECT_EQ(stats.corruptions, 1u);
}

TEST(QueryService, DistanceModeMatchesOracle) {
  const Graph g = test_graph(150);
  const DistanceScheme scheme(2, 2.5);
  const auto enc = scheme.encode(g);
  QueryService svc(Snapshot::build(enc.labeling, 4),
                   {.threads = 2, .kind = QueryKind::kDistance});

  Rng rng = stream_rng(77, 0);
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 300; ++i) {
    batch.push_back({rng.next_below(g.num_vertices()),
                     rng.next_below(g.num_vertices())});
  }
  const auto results = svc.query_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto oracle = DistanceScheme::distance(
        enc.labeling[static_cast<Vertex>(batch[i].u)],
        enc.labeling[static_cast<Vertex>(batch[i].v)]);
    ASSERT_EQ(results[i].status, QueryStatus::kOk);
    EXPECT_EQ(results[i].distance,
              oracle ? static_cast<std::int64_t>(*oracle) : -1);
  }
}

/// A Lemma 7 labeling written as a v3 store of `shards` shards.
std::string write_distance_store(const DistanceEncoding& enc,
                                 const std::string& name,
                                 std::size_t shards) {
  const std::string path = testing::TempDir() + "/" + name;
  store::StoreWriter::write_file(path, enc.labeling, shards);
  return path;
}

// Distance queries over an mmap'd v3 store answer from the mapped bits
// through DistanceViews: every query is a view hit and no label is
// materialized.
TEST(QueryService, DistanceViewsServeMappedStoreWithoutCache) {
  const Graph g = test_graph(600);
  const auto enc = DistanceScheme(2, 2.5).encode(g);
  ASSERT_GT(enc.num_fat, 0u);
  const std::string path = write_distance_store(enc, "dist_views.plgl", 4);
  QueryService svc(Snapshot::from_file(path, 4),
                   {.threads = 2, .kind = QueryKind::kDistance});

  // Self pairs, edges, two-hop pairs and uniform pairs: answers 0, 1, 2
  // and beyond-f, across thin and fat endpoints.
  Rng rng = stream_rng(78, 0);
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<Vertex>(rng.next_below(g.num_vertices()));
    batch.push_back({u, u});
    batch.push_back({u, rng.next_below(g.num_vertices())});
    const auto nb = g.neighbors(u);
    if (nb.empty()) continue;
    const Vertex x = nb[rng.next_below(nb.size())];
    batch.push_back({u, x});
    const auto nb2 = g.neighbors(x);
    batch.push_back({nb2[rng.next_below(nb2.size())], u});
  }
  const auto results = svc.query_batch(batch);
  std::size_t within = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto oracle = DistanceScheme::distance(
        enc.labeling[static_cast<Vertex>(batch[i].u)],
        enc.labeling[static_cast<Vertex>(batch[i].v)]);
    ASSERT_EQ(results[i].status, QueryStatus::kOk);
    ASSERT_EQ(results[i].distance,
              oracle ? static_cast<std::int64_t>(*oracle) : -1);
    within += oracle ? 1u : 0u;
  }
  EXPECT_GT(within, 0u);
  EXPECT_LT(within, batch.size());

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.queries, batch.size());
  EXPECT_EQ(stats.view_hits, stats.queries);
  EXPECT_EQ(stats.corruptions, 0u);
  std::remove(path.c_str());
}

// A distance shard that fails its lazy CRC: label_bits_at() refuses it,
// the materializing fallback's get() throws, and every failure is charged
// to that shard — whichever side of the query it is on — so it is the
// one demoted, while the clean shard keeps serving.
TEST(QueryService, DistanceCrcFailureIsChargedToTheFailingShard) {
  const Graph g = test_graph(400, 119);
  const auto enc = DistanceScheme(2, 2.5).encode(g);
  const std::string path = write_distance_store(enc, "dist_blame.plgl", 4);

  // A map-flip seed whose one flip lands in a shard's payload: that shard
  // admits and fails its CRC on first touch, the others stay clean. The
  // flip positions are a pure function of (seed, span size).
  std::shared_ptr<const Snapshot> snap;
  std::size_t bad = 4;
  std::size_t good = 4;
  for (std::uint64_t seed = 1; seed < 64 && bad == 4; ++seed) {
    fault::ScopedFault fp(fault::FaultPlan::parse_spec(
        "seed=" + std::to_string(seed) + ",map-flip=1"));
    snap = Snapshot::from_file(path, 4, StoreVerify::kStrict,
                               /*allow_quarantine=*/true);
    bad = good = 4;
    for (std::size_t s = 0; s < snap->num_shards(); ++s) {
      if (snap->shard_quarantined(s)) continue;
      const bool intact =
          snap->label_bits_at(snap->shard_map().shard_begin(s)).words !=
          nullptr;
      if (!intact && bad == 4) bad = s;
      if (intact && good == 4) good = s;
    }
    if (good == 4) bad = 4;
  }
  ASSERT_LT(bad, 4u) << "no seed put its flip in one shard's payload";
  ASSERT_LT(good, 4u);

  QueryService svc(snap, ServiceOptions{.threads = 1,
                                        .kind = QueryKind::kDistance,
                                        .quarantine_after = 3,
                                        .heal = false});
  const std::uint64_t u = snap->shard_map().shard_begin(good);
  const std::uint64_t v = snap->shard_map().shard_begin(bad);
  snap.reset();
  EXPECT_EQ(svc.query({u, v}).status, QueryStatus::kCorrupt);
  EXPECT_EQ(svc.query({v, u}).status, QueryStatus::kCorrupt);
  EXPECT_EQ(svc.query({u, v}).status, QueryStatus::kCorrupt);
  const auto after = svc.snapshot();
  EXPECT_TRUE(after->shard_quarantined(bad));
  EXPECT_FALSE(after->shard_quarantined(good));
  EXPECT_EQ(after->num_quarantined(), 1u);
  EXPECT_EQ(svc.query({u, u}).status, QueryStatus::kOk);
  EXPECT_EQ(svc.query({u, v}).status, QueryStatus::kCorrupt);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.corruptions, 3u);
  EXPECT_EQ(stats.quarantine_hits, 1u);
  EXPECT_EQ(stats.view_hits, 1u);
  std::remove(path.c_str());
}

// Lemma 7 labels with f > kPlaneJoinMaxF have no complete DistanceView, so
// every query takes the reference path: both labels materialized, then
// DistanceScheme::distance. Served from an in-memory snapshot and from a
// mapped v3 store, with and without spot checks.
TEST(QueryService, DistanceAboveJoinBoundAnswersFromReferenceDecoder) {
  const Graph g = test_graph(300);
  const auto enc = DistanceScheme(9, 2.5).encode(g);
  const std::string path = write_distance_store(enc, "dist_f9.plgl", 4);

  Rng rng = stream_rng(79, 0);
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t u = rng.next_below(g.num_vertices());
    batch.push_back({u, u});
    batch.push_back({u, rng.next_below(g.num_vertices())});
  }
  std::size_t within = 0;
  for (const bool mapped : {false, true}) {
    for (const bool spot_check : {false, true}) {
      QueryService svc(mapped ? Snapshot::from_file(path, 4)
                              : Snapshot::build(enc.labeling, 4),
                       {.threads = 2,
                        .chunk = 64,
                        .spot_check = spot_check,
                        .kind = QueryKind::kDistance});
      const auto results = svc.query_batch(batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto oracle = DistanceScheme::distance(
            enc.labeling[static_cast<Vertex>(batch[i].u)],
            enc.labeling[static_cast<Vertex>(batch[i].v)]);
        ASSERT_EQ(results[i].status, QueryStatus::kOk)
            << "mapped=" << mapped << " spot_check=" << spot_check;
        ASSERT_EQ(results[i].distance,
                  oracle ? static_cast<std::int64_t>(*oracle) : -1);
        within += oracle ? 1u : 0u;
      }
      const ServiceStats stats = svc.stats();
      EXPECT_EQ(stats.queries, batch.size());
      EXPECT_EQ(stats.view_hits, 0u);
      EXPECT_EQ(stats.corruptions, 0u);
    }
  }
  EXPECT_GT(within, 4 * batch.size() / 2);  // the self pairs and more
  std::remove(path.c_str());
}

TEST(QueryService, SpotCheckPassesOnCleanStore) {
  const Graph g = test_graph(100);
  const auto enc = test_encoding(g);
  QueryService svc(Snapshot::build(enc.labeling, 4),
                   {.threads = 2, .spot_check = true});
  for (Vertex u = 0; u < 30; ++u) {
    EXPECT_EQ(svc.query({u, u + 1}).status, QueryStatus::kOk);
  }
  EXPECT_EQ(svc.stats().corruptions, 0u);
}

// The N-thread hammer: many caller threads issue batches concurrently;
// every single answer must equal the single-threaded oracle.
TEST(QueryService, ConcurrentHammerMatchesOracle) {
  const Graph g = test_graph(500, 5);
  const auto enc = test_encoding(g);
  QueryService svc(Snapshot::build(enc.labeling, 8),
                   {.threads = 4, .chunk = 64});

  constexpr int kCallers = 4;
  constexpr int kBatchesPerCaller = 10;
  constexpr int kBatchSize = 400;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      // Per-caller deterministic stream: reproducible regardless of the
      // interleaving (the satellite contract for stream_rng).
      Rng rng = stream_rng(0xbeef, static_cast<std::uint64_t>(c));
      for (int b = 0; b < kBatchesPerCaller; ++b) {
        std::vector<QueryRequest> batch;
        batch.reserve(kBatchSize);
        for (int i = 0; i < kBatchSize; ++i) {
          batch.push_back({rng.next_below(g.num_vertices()),
                           rng.next_below(g.num_vertices())});
        }
        const auto results = svc.query_batch(batch);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const bool oracle =
              batch[i].u != batch[i].v &&
              g.has_edge(static_cast<Vertex>(batch[i].u),
                         static_cast<Vertex>(batch[i].v));
          if (results[i].status != QueryStatus::kOk ||
              results[i].adjacent != oracle) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(svc.stats().queries,
            static_cast<std::uint64_t>(kCallers) * kBatchesPerCaller *
                kBatchSize);
}

// Hot swap under fire: a swapper thread continuously reloads alternating
// snapshots (different tau → different labels, same answers) while caller
// threads verify every answer against the oracle. Any torn snapshot view
// or use-after-free shows up as a wrong answer here — and as a TSan
// report in the sanitize job.
TEST(QueryService, HotSwapUnderQueryStorm) {
  const Graph g = test_graph(400, 11);
  const auto enc_a = thin_fat_encode(g, 8);
  const auto enc_b = thin_fat_encode(g, 24);

  QueryService svc(Snapshot::build(enc_a.labeling, 8),
                   {.threads = 4, .chunk = 32});

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::thread swapper([&] {
    for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
      svc.reload(Snapshot::build(
          (i % 2 == 0 ? enc_b : enc_a).labeling, 8));
      std::this_thread::yield();
    }
  });

  // Callers keep going past their 15 batches until the swapper has
  // installed two snapshots, so the storm always overlaps real swaps
  // however fast the batches are (the cap only bounds a stuck swapper).
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&, c] {
      Rng rng = stream_rng(0x50, static_cast<std::uint64_t>(c));
      for (int b = 0; b < 15 || (svc.generation() < 2 && b < 100000); ++b) {
        std::vector<QueryRequest> batch;
        for (int i = 0; i < 200; ++i) {
          batch.push_back({rng.next_below(g.num_vertices()),
                           rng.next_below(g.num_vertices())});
        }
        const auto results = svc.query_batch(batch);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const bool oracle =
              batch[i].u != batch[i].v &&
              g.has_edge(static_cast<Vertex>(batch[i].u),
                         static_cast<Vertex>(batch[i].v));
          if (results[i].status != QueryStatus::kOk ||
              results[i].adjacent != oracle) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  stop.store(true, std::memory_order_release);
  swapper.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(svc.generation(), 0u);
  EXPECT_EQ(svc.stats().corruptions, 0u);
}

// ----------------------------------------------------- const read path

// The audit test backing the thread-safety contract documented on
// LabelStore/Label/thin_fat: N threads share ONE LabelStore and decode
// concurrently. Under TSan this proves the const read path performs no
// hidden mutation.
TEST(ConstReadPath, SharedLabelStoreDecodesRaceFree) {
  const Graph g = test_graph(300, 21);
  const auto enc = test_encoding(g);
  const LabelStore store =
      LabelStore::parse(LabelStore::serialize(enc.labeling));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng = stream_rng(42, static_cast<std::uint64_t>(t));
      for (int i = 0; i < 1500; ++i) {
        const std::uint64_t u = rng.next_below(store.size());
        const std::uint64_t v = rng.next_below(store.size());
        const bool adj = thin_fat_adjacent(store.get(u), store.get(v));
        const bool oracle = u != v && g.has_edge(static_cast<Vertex>(u),
                                                 static_cast<Vertex>(v));
        if (adj != oracle || !store.verify_label(u)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------------------- serve loop

TEST(ServeLoop, AnswersProtocolCommands) {
  const Graph g = test_graph(100, 3);
  const auto enc = test_encoding(g);
  QueryService svc(Snapshot::build(enc.labeling, 4), {.threads = 2});

  // Pick one known edge and one known non-edge for determinism.
  Vertex eu = 0, ev = 0;
  for (Vertex v = 0; v < g.num_vertices() && ev == 0; ++v) {
    if (g.degree(v) > 0) {
      eu = v;
      ev = g.neighbors(v)[0];
    }
  }
  ASSERT_NE(eu, ev);

  std::istringstream in(
      "PING\n"
      "# a comment, then a blank line\n"
      "\n"
      "A " + std::to_string(eu) + " " + std::to_string(ev) + "\n" +
      std::to_string(eu) + " " + std::to_string(eu) + "\n"
      "A 0 100000\n"
      "D 0 1\n"
      "BATCH 2\n"
      "A " + std::to_string(eu) + " " + std::to_string(ev) + "\n"
      "A " + std::to_string(eu) + " " + std::to_string(eu) + "\n"
      "NONSENSE x y z\n"
      "STATS\n"
      "QUIT\n"
      "A 0 1\n");  // after QUIT: must not be answered
  std::ostringstream out;
  const std::uint64_t answered = serve_loop(svc, in, out);

  EXPECT_EQ(answered, 5u);
  const std::string reply = out.str();
  std::istringstream lines(reply);
  std::string line;
  std::vector<std::string> got;
  while (std::getline(lines, line)) got.push_back(line);
  ASSERT_GE(got.size(), 8u);
  EXPECT_EQ(got[0], "pong");
  EXPECT_EQ(got[1], "1");        // known edge
  EXPECT_EQ(got[2], "0");        // self query
  EXPECT_EQ(got[3], "range");    // out of range
  EXPECT_EQ(got[4].substr(0, 3), "err");  // D against adjacency store
  EXPECT_EQ(got[5], "1");        // batch line 1
  EXPECT_EQ(got[6], "0");        // batch line 2
  EXPECT_EQ(got[7].substr(0, 3), "err");  // nonsense
  EXPECT_NE(got[8].find("\"queries\":5"), std::string::npos);
}

TEST(ServeLoop, ReloadHotSwapsFromFile) {
  const Graph g = test_graph(80, 17);
  const auto enc_a = thin_fat_encode(g, 6);
  const auto enc_b = thin_fat_encode(g, 20);
  const std::string path_b = testing::TempDir() + "serve_reload.plgl";
  LabelStore::save_file(path_b, enc_b.labeling);

  QueryService svc(Snapshot::build(enc_a.labeling, 4), {.threads = 2});
  std::istringstream in(
      "RELOAD " + path_b + "\n"
      "RELOAD /nonexistent/store.plgl\n"
      "QUIT\n");
  std::ostringstream out;
  serve_loop(svc, in, out, {.num_shards = 4});

  const std::string reply = out.str();
  EXPECT_NE(reply.find("reloaded " + path_b), std::string::npos);
  EXPECT_NE(reply.find("generation=1"), std::string::npos);
  EXPECT_NE(reply.find("err reload failed"), std::string::npos);
  // The failed reload left the good snapshot in place.
  EXPECT_EQ(svc.generation(), 1u);
  EXPECT_EQ(svc.snapshot()->size(), g.num_vertices());
}

}  // namespace
}  // namespace plg::service
