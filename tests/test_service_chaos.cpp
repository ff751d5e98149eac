// Service chaos suite: overload control, deadlines, quarantine, and
// self-healing under seeded fault injection (src/service/ + the
// service-level hooks in util/fault_injection).
//
// Suite names deliberately embed the tsan CI job's regex prefixes
// (ThreadPool / QueryService / Snapshot / ServeLoop), so every test here
// runs under ThreadSanitizer automatically. Faults are driven by
// FaultPlan specs with a finite fault_budget: the storm is deterministic
// in *count* (the budget is claimed via one shared atomic), the service
// must stay correct throughout, and once the budget exhausts the system
// must heal back to full service without a restart — which is exactly
// the PR's acceptance bar.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/thin_fat.h"
#include "gen/chung_lu.h"
#include "service/engine.h"
#include "service/serve.h"
#include "service/snapshot.h"
#include "service/thread_pool.h"
#include "util/errors.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace plg::service {
namespace {

Graph chaos_graph(std::size_t n = 400, std::uint64_t seed = 7) {
  Rng rng(seed);
  return chung_lu_power_law(n, 2.5, 8.0, rng);
}

bool oracle_adjacent(const Graph& g, const QueryRequest& q) {
  return q.u != q.v && g.has_edge(static_cast<Vertex>(q.u),
                                  static_cast<Vertex>(q.v));
}

/// Polls `pred` every couple of milliseconds until it holds or `timeout`
/// expires; returns the final verdict.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout) {
  const auto t_end = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < t_end) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// ------------------------------------------------- ThreadPool admission

TEST(ThreadPoolAdmission, RejectNewShedsTheIncomingJob) {
  ThreadPool pool(PoolOptions{1, 2, ShedPolicy::kRejectNew});
  // Gate the single worker so the queue can only fill, never drain. Wait
  // for the gate job to actually start, so it occupies the worker and
  // not a queue slot when the try_submit storm begins.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<int> ran{0}, shed{0};
  pool.submit(0, [&started, &release] {
    started.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // With the worker busy, the cap-2 queue admits 2 jobs; the rest are
  // rejected and their shed callbacks run inline on this thread.
  int rejected = 0;
  for (int i = 0; i < 6; ++i) {
    const bool ok = pool.try_submit(
        0, ThreadPool::Job{
               [&ran] { ran.fetch_add(1, std::memory_order_relaxed); },
               [&shed] { shed.fetch_add(1, std::memory_order_relaxed); }});
    if (!ok) ++rejected;
  }
  EXPECT_EQ(rejected, 4);
  EXPECT_EQ(shed.load(), 4);  // shed ran synchronously on rejection
  release.store(true, std::memory_order_release);
  pool.drain();
  // Exactly one of run/shed per job, never both.
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(shed.load(), 4);
}

TEST(ThreadPoolAdmission, DropOldestShedsTheQueueHead) {
  ThreadPool pool(PoolOptions{1, 2, ShedPolicy::kDropOldest});
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  pool.submit(0, [&started, &release] {
    started.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Tag jobs so we can see *which* were displaced: with cap 2 and 5
  // submissions, jobs 0..2 are displaced head-first; 3 and 4 survive.
  std::vector<int> ran_ids, shed_ids;
  for (int i = 0; i < 5; ++i) {
    const bool ok = pool.try_submit(
        0, ThreadPool::Job{[&ran_ids, i] { ran_ids.push_back(i); },
                           [&shed_ids, i] { shed_ids.push_back(i); }});
    EXPECT_TRUE(ok);  // drop-oldest always admits the new job
  }
  release.store(true, std::memory_order_release);
  pool.drain();
  // shed_ids mutated only from this thread (displacement runs on the
  // submitter), ran_ids only on the worker; drain() ordered both.
  ASSERT_EQ(shed_ids.size(), 3u);
  EXPECT_EQ(shed_ids, (std::vector<int>{0, 1, 2}));
  ASSERT_EQ(ran_ids.size(), 2u);
  EXPECT_EQ(ran_ids, (std::vector<int>{3, 4}));
}

TEST(ThreadPoolAdmission, DrainWaitsForQueuedAndRunningJobs) {
  ThreadPool pool(PoolOptions{2, 0, ShedPolicy::kRejectNew});
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit(static_cast<unsigned>(i), [&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.drain();
  EXPECT_EQ(done.load(), 8);
}

// ---------------------------------------------------- overload shedding

TEST(QueryServiceOverload, FullQueuesAnswerOverloadedInBand) {
  const Graph g = chaos_graph(200, 11);
  const auto enc = thin_fat_encode(g, 12);
  QueryService svc(Snapshot::build(enc.labeling, 4),
                   {.threads = 1,
                    .chunk = 1,
                    .queue_cap = 1,
                    .shed_policy = ShedPolicy::kRejectNew});

  // Stall every chunk 10 ms: the single worker falls far behind the
  // submit loop, so all but the first couple of chunks find the cap-1
  // queue full and shed.
  fault::ScopedFault fp(fault::FaultPlan::parse_spec("stall-every=1,stall-ms=10"));

  Rng rng = stream_rng(42, 1);
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 32; ++i) {
    batch.push_back({rng.next_below(g.num_vertices()),
                     rng.next_below(g.num_vertices())});
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = svc.query_batch(batch);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_EQ(results.size(), batch.size());

  // Bounded time: even with every executed chunk stalled, the shed
  // chunks cost nothing — far below 32 x 10 ms of serial service.
  EXPECT_LT(elapsed, std::chrono::seconds(20));

  std::size_t overloaded = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].status == QueryStatus::kOverloaded) {
      ++overloaded;
    } else {
      ASSERT_EQ(results[i].status, QueryStatus::kOk);
      EXPECT_EQ(results[i].adjacent, oracle_adjacent(g, batch[i]));
    }
  }
  EXPECT_GT(overloaded, 0u);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.shed_queries, overloaded);
  EXPECT_GT(stats.shed_chunks, 0u);
  EXPECT_GT(fault::service_fault_counters().stalls, 0u);
}

TEST(QueryServiceOverload, UncappedQueueNeverSheds) {
  const Graph g = chaos_graph(100, 12);
  const auto enc = thin_fat_encode(g, 12);
  QueryService svc(Snapshot::build(enc.labeling, 2), {.threads = 2});
  std::vector<QueryRequest> batch(500, QueryRequest{1, 2});
  const auto results = svc.query_batch(batch);
  for (const auto& r : results) EXPECT_EQ(r.status, QueryStatus::kOk);
  EXPECT_EQ(svc.stats().shed_queries, 0u);
}

// ------------------------------------------------ deadlines/cancellation

TEST(QueryServiceDeadline, ExpiredDeadlineCancelsEverything) {
  const Graph g = chaos_graph(200, 13);
  const auto enc = thin_fat_encode(g, 12);
  QueryService svc(Snapshot::build(enc.labeling, 4),
                   {.threads = 2, .chunk = 8});
  std::vector<QueryRequest> batch(64, QueryRequest{0, 1});
  BatchOptions bopt;
  bopt.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);  // already past
  const auto results = svc.query_batch(batch, bopt);
  ASSERT_EQ(results.size(), batch.size());
  for (const auto& r : results) {
    EXPECT_EQ(r.status, QueryStatus::kDeadlineExceeded);
  }
  EXPECT_EQ(svc.stats().deadline_exceeded, batch.size());
}

TEST(QueryServiceDeadline, SlowWorkersYieldPartialResults) {
  const Graph g = chaos_graph(200, 14);
  const auto enc = thin_fat_encode(g, 12);
  QueryService svc(Snapshot::build(enc.labeling, 4),
                   {.threads = 1, .chunk = 4});

  // Every chunk stalls 20 ms; the deadline allows roughly one stall.
  // The first chunk's queries may answer, later chunks trip the shared
  // cancellation flag — a partial result, never a wedged caller.
  fault::ScopedFault fp(fault::FaultPlan::parse_spec("stall-every=1,stall-ms=20"));
  std::vector<QueryRequest> batch(32, QueryRequest{1, 2});
  BatchOptions bopt;
  bopt.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(25);
  const auto results = svc.query_batch(batch, bopt);
  ASSERT_EQ(results.size(), batch.size());
  std::size_t expired = 0;
  for (const auto& r : results) {
    if (r.status == QueryStatus::kDeadlineExceeded) {
      ++expired;
    } else {
      ASSERT_EQ(r.status, QueryStatus::kOk);
    }
  }
  EXPECT_GT(expired, 0u);
  EXPECT_EQ(svc.stats().deadline_exceeded, expired);
}

// A deadline that expires while one big chunk is running: the per-query
// cancel check stops the chunk part-way, its answered prefix is counted
// as queries and the rest as deadline_exceeded — both flushed by the
// chunk's early exit. Whether a given attempt lands mid-chunk depends on
// this machine's speed, so the deadline is searched for: doubled when
// nothing was answered, halved when everything was.
TEST(QueryServiceDeadline, DeadlineMidChunkFlushesBothCounts) {
  const Graph g = chaos_graph(400, 23);
  const auto enc = thin_fat_encode(g, 12);
  Rng rng = stream_rng(23, 1);
  std::vector<QueryRequest> batch;
  for (int i = 0; i < (1 << 16); ++i) {
    batch.push_back({rng.next_below(g.num_vertices()),
                     rng.next_below(g.num_vertices())});
  }
  bool mid_chunk = false;
  std::chrono::microseconds budget(1000);
  for (int attempt = 0; attempt < 24 && !mid_chunk; ++attempt) {
    QueryService svc(Snapshot::build(enc.labeling, 4),
                     {.threads = 1, .chunk = batch.size()});
    BatchOptions bopt;
    bopt.deadline = std::chrono::steady_clock::now() + budget;
    const auto results = svc.query_batch(batch, bopt);
    ASSERT_EQ(results.size(), batch.size());
    std::uint64_t answered = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].status == QueryStatus::kDeadlineExceeded) continue;
      ASSERT_EQ(results[i].status, QueryStatus::kOk);
      ASSERT_EQ(results[i].adjacent, oracle_adjacent(g, batch[i]));
      ++answered;
    }
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.queries, answered);
    EXPECT_EQ(stats.queries + stats.deadline_exceeded, batch.size());
    std::uint64_t samples = 0;
    for (const std::uint64_t c : stats.latency_buckets) samples += c;
    EXPECT_EQ(samples, stats.queries);
    mid_chunk = answered > 0 && answered < batch.size();
    budget = answered == 0 ? budget * 2 : budget / 2;
  }
  EXPECT_TRUE(mid_chunk) << "no attempt's deadline expired mid-chunk";
}

TEST(QueryServiceDeadline, GenerousDeadlineAnswersEverything) {
  const Graph g = chaos_graph(200, 15);
  const auto enc = thin_fat_encode(g, 12);
  QueryService svc(Snapshot::build(enc.labeling, 4),
                   {.threads = 4, .chunk = 16});
  Rng rng = stream_rng(99, 2);
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 500; ++i) {
    batch.push_back({rng.next_below(g.num_vertices()),
                     rng.next_below(g.num_vertices())});
  }
  BatchOptions bopt;
  bopt.deadline = std::chrono::steady_clock::now() + std::chrono::minutes(5);
  const auto results = svc.query_batch(batch, bopt);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].status, QueryStatus::kOk);
    EXPECT_EQ(results[i].adjacent, oracle_adjacent(g, batch[i]));
  }
}

// -------------------------------------------------- snapshot quarantine

TEST(SnapshotQuarantine, AdmissionFailureQuarantinesInsteadOfThrowing) {
  const Graph g = chaos_graph(200, 16);
  const auto enc = thin_fat_encode(g, 12);

  // Every 2nd shard admission gets one bit flipped between serialize and
  // the strict re-parse: those shards must quarantine, the others serve.
  std::shared_ptr<const Snapshot> snap;
  {
    fault::ScopedFault fp(fault::FaultPlan::parse_spec("seed=5,shard-fail=2"));
    snap = Snapshot::build(enc.labeling, 8, /*allow_quarantine=*/true);
  }
  ASSERT_EQ(snap->num_shards(), 8u);
  EXPECT_EQ(snap->num_quarantined(), 4u);
  for (std::size_t s = 0; s < snap->num_shards(); ++s) {
    if (!snap->shard_quarantined(s)) {
      EXPECT_TRUE(snap->shard_error(s).empty());
      continue;
    }
    EXPECT_TRUE(snap->shard_healable(s));
    EXPECT_FALSE(snap->shard_error(s).empty());
    EXPECT_TRUE(snap->vertex_quarantined(snap->shard_map().shard_begin(s)));
  }

  // With the faults off, healing every quarantined shard restores a
  // fully healthy snapshot whose labels match the healthy original.
  for (std::size_t s = 0; s < snap->num_shards(); ++s) {
    if (snap->shard_quarantined(s)) snap = snap->heal_shard(s);
  }
  EXPECT_EQ(snap->num_quarantined(), 0u);
  for (std::uint64_t v = 0; v < snap->size(); ++v) {
    EXPECT_EQ(snap->get(v), enc.labeling[static_cast<Vertex>(v)]);
  }
}

TEST(SnapshotQuarantine, BuildWithoutQuarantineStillThrows) {
  const Graph g = chaos_graph(100, 17);
  const auto enc = thin_fat_encode(g, 12);
  fault::ScopedFault fp(fault::FaultPlan::parse_spec("seed=5,shard-fail=1"));
  EXPECT_THROW(Snapshot::build(enc.labeling, 4), CorruptionError);
}

TEST(SnapshotQuarantine, RuntimeDemotionKeepsHealSource) {
  const Graph g = chaos_graph(150, 18);
  const auto enc = thin_fat_encode(g, 12);
  auto snap = Snapshot::build(enc.labeling, 4);
  ASSERT_EQ(snap->num_quarantined(), 0u);

  auto demoted = snap->with_quarantined_shard(1, "bit rot detected");
  EXPECT_EQ(demoted->num_quarantined(), 1u);
  EXPECT_TRUE(demoted->shard_quarantined(1));
  EXPECT_TRUE(demoted->shard_healable(1));
  EXPECT_EQ(demoted->shard_error(1), "bit rot detected");
  EXPECT_NE(demoted->id(), snap->id());
  // Healthy shards are shared, not rebuilt: same bytes, same answers.
  EXPECT_FALSE(demoted->shard_quarantined(0));

  auto healed = demoted->heal_shard(1);
  EXPECT_EQ(healed->num_quarantined(), 0u);
  for (std::uint64_t v = 0; v < healed->size(); ++v) {
    EXPECT_EQ(healed->get(v), enc.labeling[static_cast<Vertex>(v)]);
  }
}

TEST(SnapshotQuarantine, SwapIfRefusesStaleExpected) {
  const Graph g = chaos_graph(80, 19);
  const auto enc = thin_fat_encode(g, 12);
  auto a = Snapshot::build(enc.labeling, 2);
  auto b = Snapshot::build(enc.labeling, 4);
  SnapshotStore store(a);
  EXPECT_FALSE(store.swap_if(b.get(), Snapshot::build(enc.labeling, 2)));
  EXPECT_EQ(store.generation(), 0u);
  EXPECT_TRUE(store.swap_if(a.get(), b));
  EXPECT_EQ(store.generation(), 1u);
  EXPECT_EQ(store.acquire()->num_shards(), 4u);
}

// ------------------------------------------------------- self-healing

TEST(QueryServiceSelfHealing, QuarantinedShardHealsAndServesAgain) {
  const Graph g = chaos_graph(200, 20);
  const auto enc = thin_fat_encode(g, 12);

  // Fail every shard admission while the budget lasts: the initial build
  // quarantines all 4 shards (4 faults), the healer's first re-admission
  // attempts may burn the rest, and then healing must succeed — without
  // the plan ever being reconfigured mid-run.
  fault::ScopedFault fp(
      fault::FaultPlan::parse_spec("seed=9,shard-fail=1,budget=6"));
  auto snap = Snapshot::build(enc.labeling, 4, /*allow_quarantine=*/true);
  ASSERT_EQ(snap->num_quarantined(), 4u);

  QueryService svc(std::move(snap), {.threads = 2,
                                     .heal = true,
                                     .heal_base_ms = 1,
                                     .heal_max_ms = 4,
                                     .heal_seed = 77});
  // While quarantined, queries answer kCorrupt in-band (no throw, no
  // blocked caller).
  const auto early = svc.query({0, 1});
  if (early.status == QueryStatus::kCorrupt) {
    EXPECT_GT(svc.stats().quarantine_hits, 0u);
  }

  ASSERT_TRUE(eventually(
      [&svc] { return svc.stats().quarantined_shards == 0; },
      std::chrono::seconds(30)))
      << "healer did not clear quarantine; stats: "
      << svc.stats().to_json();

  const ServiceStats stats = svc.stats();
  EXPECT_GE(stats.heal_attempts, 4u);
  EXPECT_GE(stats.heal_successes, 4u);

  // The healed service serves every query correctly — same process, no
  // reload, no restart.
  Rng rng = stream_rng(5, 3);
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 300; ++i) {
    batch.push_back({rng.next_below(g.num_vertices()),
                     rng.next_below(g.num_vertices())});
  }
  const auto results = svc.query_batch(batch);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].status, QueryStatus::kOk) << "i=" << i;
    EXPECT_EQ(results[i].adjacent, oracle_adjacent(g, batch[i]));
  }
}

TEST(QueryServiceSelfHealing, QueryTimeCorruptionDemotesShard) {
  const Graph g = chaos_graph(200, 21);
  const auto enc = thin_fat_encode(g, 12);
  // heal=false isolates the demotion mechanics from the healer's timing.
  QueryService svc(Snapshot::build(enc.labeling, 4),
                   {.threads = 1,
                    .chunk = 1,
                    .quarantine_after = 3,
                    .heal = false});

  // The first 3 query fetches are injected decode failures (then the
  // budget is spent): all against vertex 0's shard, crossing the
  // quarantine_after=3 threshold and demoting shard 0.
  fault::ScopedFault fp(fault::FaultPlan::parse_spec("query-fail=1,budget=3"));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(svc.query({0, 1}).status, QueryStatus::kCorrupt);
  }
  ASSERT_TRUE(eventually(
      [&svc] { return svc.stats().quarantined_shards == 1; },
      std::chrono::seconds(10)));

  // Budget exhausted: this would be a clean fetch, but the shard is now
  // quarantined, so it answers kCorrupt via the quarantine path.
  EXPECT_EQ(svc.query({0, 1}).status, QueryStatus::kCorrupt);
  EXPECT_GT(svc.stats().quarantine_hits, 0u);
  // Other shards are unaffected.
  const auto far = svc.snapshot()->shard_map().shard_begin(3);
  EXPECT_EQ(svc.query({far, far}).status, QueryStatus::kOk);
}

// ------------------------------------------------------------ the storm

TEST(QueryServiceChaos, SeededStormStaysCorrectAndHeals) {
  const Graph g = chaos_graph(400, 22);
  const auto enc = thin_fat_encode(g, 12);

  QueryService svc(Snapshot::build(enc.labeling, 8),
                   {.threads = 4,
                    .chunk = 16,
                    .queue_cap = 4,
                    .shed_policy = ShedPolicy::kDropOldest,
                    .quarantine_after = 2,
                    .heal = true,
                    .heal_base_ms = 1,
                    .heal_max_ms = 4,
                    .heal_seed = 123});

  // One seeded plan drives the whole storm: worker stalls, query-time
  // decode failures, and mid-reload shard corruption, capped at 250
  // total injections so the run both storms hard and provably recovers.
  constexpr std::uint64_t kBudget = 250;
  fault::ScopedFault fp(fault::FaultPlan::parse_spec(
      "seed=31,stall-every=7,stall-ms=1,query-fail=5,shard-fail=3,budget=250"));

  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> answered_ok{0};

  // Reload storm: hot-swap snapshots while shard-fail corrupts some of
  // their admissions — quarantined shards enter live service and the
  // healer chases them, all under query fire.
  std::thread reloader([&] {
    for (int i = 0; i < 10; ++i) {
      svc.reload(Snapshot::build(enc.labeling, 8, /*allow_quarantine=*/true));
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  // Four hammer threads with per-thread deterministic query streams.
  std::vector<std::thread> hammers;
  for (unsigned t = 0; t < 4; ++t) {
    hammers.emplace_back([&, t] {
      Rng rng = stream_rng(1000, t);
      for (int round = 0; round < 30; ++round) {
        std::vector<QueryRequest> batch;
        for (int i = 0; i < 64; ++i) {
          batch.push_back({rng.next_below(g.num_vertices()),
                           rng.next_below(g.num_vertices())});
        }
        const auto results = svc.query_batch(batch);
        for (std::size_t i = 0; i < results.size(); ++i) {
          // Degraded statuses are legal under the storm; *wrong answers*
          // are not. Every kOk answer must equal the oracle.
          if (results[i].status != QueryStatus::kOk) continue;
          answered_ok.fetch_add(1, std::memory_order_relaxed);
          if (results[i].adjacent != oracle_adjacent(g, batch[i])) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& h : hammers) h.join();
  reloader.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(answered_ok.load(), 0u);

  // The acceptance bar: the seeded storm injected its full budget of
  // service-level faults (>= 200), deterministically.
  const fault::ServiceFaultCounters injected = fault::service_fault_counters();
  EXPECT_EQ(injected.total(), kBudget);
  EXPECT_GT(injected.stalls, 0u);
  EXPECT_GT(injected.shard_fails, 0u);
  EXPECT_GT(injected.query_fails, 0u);

  // Budget exhausted -> the healer wins: quarantine clears and the full
  // service comes back, in-process.
  ASSERT_TRUE(eventually(
      [&svc] { return svc.stats().quarantined_shards == 0; },
      std::chrono::seconds(30)))
      << "storm did not heal; stats: " << svc.stats().to_json();

  // Verify in slices of 4 chunks (one per worker): the service keeps its
  // storm-sized queue_cap=4, and a single oversized batch could
  // legitimately shed on a slow machine even with the faults off.
  Rng rng = stream_rng(2000, 9);
  for (int slice = 0; slice < 8; ++slice) {
    std::vector<QueryRequest> batch;
    for (int i = 0; i < 64; ++i) {
      batch.push_back({rng.next_below(g.num_vertices()),
                       rng.next_below(g.num_vertices())});
    }
    const auto results = svc.query_batch(batch);
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].status, QueryStatus::kOk)
          << "slice=" << slice << " i=" << i;
      EXPECT_EQ(results[i].adjacent, oracle_adjacent(g, batch[i]));
    }
  }
}

// ------------------------------------------------- serve protocol edges

TEST(ServeLoopShutdown, EofDrainsAndEmitsFinalStats) {
  const Graph g = chaos_graph(100, 23);
  const auto enc = thin_fat_encode(g, 12);
  QueryService svc(Snapshot::build(enc.labeling, 4), {.threads = 2});
  std::istringstream in("A 0 1\nA 1 2\n");  // ends at EOF, no QUIT
  std::ostringstream out;
  const std::uint64_t answered = serve_loop(svc, in, out);
  EXPECT_EQ(answered, 2u);
  const std::string reply = out.str();
  // Final line is one JSON stats object.
  const auto last_nl = reply.find_last_of('\n', reply.size() - 2);
  const std::string last = reply.substr(last_nl + 1);
  EXPECT_EQ(last.substr(0, 11), "{\"workers\":");
  EXPECT_NE(last.find("\"queries\":2"), std::string::npos);
}

TEST(ServeLoopShutdown, StopFlagEndsTheLoop) {
  const Graph g = chaos_graph(100, 24);
  const auto enc = thin_fat_encode(g, 12);
  QueryService svc(Snapshot::build(enc.labeling, 4), {.threads = 2});
  std::atomic<bool> stop{true};  // pre-set: the loop must exit at once
  std::istringstream in("A 0 1\nA 1 2\nA 2 3\n");
  std::ostringstream out;
  ServeOptions opt;
  opt.stop = &stop;
  const std::uint64_t answered = serve_loop(svc, in, out, opt);
  EXPECT_EQ(answered, 0u);
  // Even an immediately-stopped session leaves a stats summary.
  EXPECT_NE(out.str().find("\"queries\":0"), std::string::npos);
}

TEST(ServeLoopShutdown, OversizedLinesAreRejectedInBand) {
  const Graph g = chaos_graph(100, 25);
  const auto enc = thin_fat_encode(g, 12);
  QueryService svc(Snapshot::build(enc.labeling, 4), {.threads = 2});
  ServeOptions opt;
  opt.max_line = 16;
  std::istringstream in(std::string(500, 'A') + "\nPING\nQUIT\n");
  std::ostringstream out;
  serve_loop(svc, in, out, opt);
  const std::string reply = out.str();
  // The oversized line is one error; the protocol stays in sync after.
  EXPECT_NE(reply.find("err line too long"), std::string::npos);
  EXPECT_NE(reply.find("pong"), std::string::npos);
}

TEST(ServeLoopShutdown, OversizedBatchLineAbortsTheBatch) {
  const Graph g = chaos_graph(100, 26);
  const auto enc = thin_fat_encode(g, 12);
  QueryService svc(Snapshot::build(enc.labeling, 4), {.threads = 2});
  ServeOptions opt;
  opt.max_line = 16;
  std::istringstream in("BATCH 2\nA 0 1\n" + std::string(100, '9') +
                        "\nPING\nQUIT\n");
  std::ostringstream out;
  serve_loop(svc, in, out, opt);
  const std::string reply = out.str();
  EXPECT_NE(reply.find("err batch line 1: line too long"),
            std::string::npos);
  EXPECT_NE(reply.find("pong"), std::string::npos);
}

TEST(ServeLoopShutdown, TruncatedBatchAtEofStillDrainsCleanly) {
  const Graph g = chaos_graph(100, 31);
  const auto enc = thin_fat_encode(g, 12);
  QueryService svc(Snapshot::build(enc.labeling, 4), {.threads = 2});
  std::istringstream in("BATCH 3\nA 0 1\n");  // 2 of 3 lines, then EOF
  std::ostringstream out;
  serve_loop(svc, in, out);
  const std::string reply = out.str();
  EXPECT_NE(reply.find("err batch truncated at line 1"), std::string::npos);
  // The EOF epilogue still runs: a final parseable stats line.
  EXPECT_NE(reply.find("{\"workers\":"), std::string::npos);
}

TEST(ServeLoopShutdown, UnknownVerbIsAnErrNotADisconnect) {
  const Graph g = chaos_graph(100, 32);
  const auto enc = thin_fat_encode(g, 12);
  QueryService svc(Snapshot::build(enc.labeling, 4), {.threads = 2});
  std::istringstream in("FROBNICATE 1 2\nA 0 1\nQUIT\n");
  std::ostringstream out;
  const std::uint64_t answered = serve_loop(svc, in, out);
  EXPECT_EQ(answered, 1u);  // the query after the bad verb still answers
  EXPECT_NE(out.str().find("err "), std::string::npos);
}

TEST(ServeLoopDeadlineVerb, SetsAndClearsTheSessionDeadline) {
  const Graph g = chaos_graph(100, 27);
  const auto enc = thin_fat_encode(g, 12);
  QueryService svc(Snapshot::build(enc.labeling, 4), {.threads = 2});
  std::istringstream in(
      "DEADLINE 5000\n"
      "A 0 1\n"
      "DEADLINE 0\n"
      "DEADLINE nope\n"
      "QUIT\n");
  std::ostringstream out;
  const std::uint64_t answered = serve_loop(svc, in, out);
  EXPECT_EQ(answered, 1u);
  const std::string reply = out.str();
  EXPECT_NE(reply.find("ok deadline_ms=5000"), std::string::npos);
  EXPECT_NE(reply.find("ok deadline_ms=0"), std::string::npos);
  EXPECT_NE(reply.find("err expected: DEADLINE <ms>"), std::string::npos);
}

TEST(ServeLoopHealthVerb, ReportsOkThenDegraded) {
  const Graph g = chaos_graph(100, 28);
  const auto enc = thin_fat_encode(g, 12);
  QueryService svc(Snapshot::build(enc.labeling, 4),
                   {.threads = 2, .heal = false});
  {
    std::istringstream in("HEALTH\nQUIT\n");
    std::ostringstream out;
    serve_loop(svc, in, out);
    EXPECT_NE(out.str().find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(out.str().find("\"quarantined_shards\":0"), std::string::npos);
  }
  svc.reload(svc.snapshot()->with_quarantined_shard(2, "chaos"));
  {
    std::istringstream in("HEALTH\nQUIT\n");
    std::ostringstream out;
    serve_loop(svc, in, out);
    EXPECT_NE(out.str().find("\"status\":\"degraded\""), std::string::npos);
    EXPECT_NE(out.str().find("\"quarantined_shards\":1"), std::string::npos);
  }
}

TEST(ServeLoopReload, CorruptFileReplyNamesTheFailingSection) {
  const Graph g = chaos_graph(100, 29);
  const auto enc = thin_fat_encode(g, 12);
  QueryService svc(Snapshot::build(enc.labeling, 4), {.threads = 2});

  // Persist a store, then corrupt it on disk with the deterministic
  // buffer corruptor (pure helper, no global plan needed).
  const std::string path = testing::TempDir() + "chaos_reload.plgl";
  LabelStore::save_file(path, enc.labeling);
  {
    std::ifstream f(path, std::ios::binary);
    std::vector<std::uint8_t> blob((std::istreambuf_iterator<char>(f)),
                                   std::istreambuf_iterator<char>());
    f.close();
    fault::FaultPlan plan;
    plan.seed = 3;
    plan.bit_flips = 8;
    fault::corrupt_buffer(blob, plan);
    std::ofstream o(path, std::ios::binary | std::ios::trunc);
    o.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  }

  std::istringstream in("RELOAD " + path + "\nPING\nQUIT\n");
  std::ostringstream out;
  serve_loop(svc, in, out, {.num_shards = 4});
  const std::string reply = out.str();
  EXPECT_NE(reply.find("err reload failed: corrupt section '"),
            std::string::npos);
  EXPECT_NE(reply.find("at byte"), std::string::npos);
  EXPECT_NE(reply.find("pong"), std::string::npos);
  // The old snapshot keeps serving.
  EXPECT_EQ(svc.generation(), 0u);
}

TEST(ServeLoopReload, QuarantinedReloadReportsShardCount) {
  const Graph g = chaos_graph(100, 30);
  const auto enc = thin_fat_encode(g, 12);
  QueryService svc(Snapshot::build(enc.labeling, 4),
                   {.threads = 2, .heal = false});
  const std::string path = testing::TempDir() + "chaos_reload_q.plgl";
  LabelStore::save_file(path, enc.labeling);

  // The file is intact; the *shard admissions* fail under the plan, so
  // the reload succeeds degraded, naming its quarantined shard count.
  fault::ScopedFault fp(
      fault::FaultPlan::parse_spec("seed=8,shard-fail=2,budget=2"));
  std::istringstream in("RELOAD " + path + "\nQUIT\n");
  std::ostringstream out;
  serve_loop(svc, in, out, {.num_shards = 4});
  const std::string reply = out.str();
  EXPECT_NE(reply.find("reloaded " + path), std::string::npos);
  EXPECT_NE(reply.find("quarantined=2"), std::string::npos);
  EXPECT_EQ(svc.generation(), 1u);
  EXPECT_EQ(svc.stats().quarantined_shards, 2u);
}

}  // namespace
}  // namespace plg::service
