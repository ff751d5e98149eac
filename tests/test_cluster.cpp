// Tests for the distributed serving tier (src/cluster/).
//
// Three layers, cheapest first:
//   * policy units — backoff schedules, retry classification, hedge
//     delays, and the health state machine are pure functions/values,
//     asserted seeded-deterministically with no sockets or threads;
//   * config/partition units — the pair-coverage invariant, placement
//     determinism, and the per-node store files;
//   * in-process integration — real NetServer nodes over partition
//     files behind a Router, plus hostile fakes (tarpit, wrong-id echo,
//     half-a-header stalls) for the robustness paths. Every completed
//     query is checked against the direct label-decode oracle.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/config.h"
#include "cluster/partition.h"
#include "cluster/policy.h"
#include "cluster/router.h"
#include "core/distance_scheme.h"
#include "core/thin_fat.h"
#include "gen/chung_lu.h"
#include "service/engine.h"
#include "service/frame.h"
#include "service/net_client.h"
#include "service/net_server.h"
#include "service/snapshot.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace plg::cluster {
namespace {

namespace wire = service::wire;
using service::NetClient;
using service::NetResponse;
using service::QueryKind;
using service::QueryRequest;
using service::QueryResult;
using service::QueryStatus;

using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ policy units

TEST(ClusterPolicy, BackoffDeterministicCappedAndJittered) {
  RetryPolicy p;
  p.base_ms = 2;
  p.max_ms = 40;
  p.seed = 1234;

  EXPECT_EQ(backoff_ms(p, 0, 0), 0u);  // no sleep before the first attempt

  for (std::uint64_t stream = 0; stream < 4; ++stream) {
    for (std::uint32_t k = 1; k <= 12; ++k) {
      const std::uint32_t a = backoff_ms(p, stream, k);
      const std::uint32_t b = backoff_ms(p, stream, k);
      EXPECT_EQ(a, b) << "same (seed, stream, retry) must reproduce";
      // capped/2 .. capped (+1 rounding): the +-50% jitter window.
      const std::uint64_t capped =
          std::min<std::uint64_t>(std::uint64_t{p.base_ms} << (k - 1),
                                  p.max_ms);
      EXPECT_GE(a, capped / 2);
      EXPECT_LE(a, capped + 1);
    }
  }
  // Streams decorrelate: not every node sleeps the same schedule.
  bool differs = false;
  for (std::uint32_t k = 1; k <= 8 && !differs; ++k) {
    differs = backoff_ms(p, 0, k) != backoff_ms(p, 1, k);
  }
  EXPECT_TRUE(differs);
  // Huge retry indexes saturate instead of shifting into UB.
  EXPECT_LE(backoff_ms(p, 0, 63), p.max_ms + 1);
}

TEST(ClusterPolicy, RetryClassification) {
  EXPECT_TRUE(retriable_code(wire::ResultCode::kOverloaded));
  EXPECT_FALSE(retriable_code(wire::ResultCode::kNo));
  EXPECT_FALSE(retriable_code(wire::ResultCode::kYes));
  EXPECT_FALSE(retriable_code(wire::ResultCode::kRange));
  EXPECT_FALSE(retriable_code(wire::ResultCode::kCorrupt));
  EXPECT_FALSE(retriable_code(wire::ResultCode::kDeadline));
  EXPECT_FALSE(retriable_code(wire::ResultCode::kUnavailable));

  EXPECT_TRUE(retriable_frame_status(wire::FrameStatus::kShutdown));
  EXPECT_TRUE(retriable_frame_status(wire::FrameStatus::kOverCapacity));
  EXPECT_FALSE(retriable_frame_status(wire::FrameStatus::kOk));
  EXPECT_FALSE(retriable_frame_status(wire::FrameStatus::kBadMagic));
  EXPECT_FALSE(retriable_frame_status(wire::FrameStatus::kBadPayload));
  EXPECT_FALSE(retriable_frame_status(wire::FrameStatus::kWrongScheme));
}

TEST(ClusterPolicy, HealthStateMachine) {
  NodeHealth h(/*suspect_after=*/1, /*quarantine_after=*/3);
  EXPECT_EQ(h.state(), NodeState::kHealthy);

  EXPECT_EQ(h.record_failure(), HealthEvent::kBecameSuspect);
  EXPECT_EQ(h.state(), NodeState::kSuspect);
  EXPECT_EQ(h.record_failure(), HealthEvent::kNone);
  EXPECT_EQ(h.record_failure(), HealthEvent::kBecameQuarantined);
  EXPECT_EQ(h.state(), NodeState::kQuarantined);
  EXPECT_EQ(h.record_failure(), HealthEvent::kNone);  // stays quarantined

  EXPECT_EQ(h.record_success(), HealthEvent::kRecovered);
  EXPECT_EQ(h.state(), NodeState::kHealthy);
  EXPECT_EQ(h.consecutive_failures(), 0u);
  EXPECT_EQ(h.record_success(), HealthEvent::kNone);

  // A success mid-streak resets the failure counter.
  NodeHealth h2(2, 3);
  EXPECT_EQ(h2.record_failure(), HealthEvent::kNone);
  EXPECT_EQ(h2.record_success(), HealthEvent::kNone);  // was still healthy
  EXPECT_EQ(h2.record_failure(), HealthEvent::kNone);
  EXPECT_EQ(h2.record_failure(), HealthEvent::kBecameSuspect);

  // Degenerate thresholds are clamped sane (>= 1, suspect <= quarantine).
  NodeHealth h3(0, 0);
  EXPECT_EQ(h3.record_failure(), HealthEvent::kBecameQuarantined);
}

TEST(ClusterPolicy, HedgeDelayWarmupAndClamp) {
  HedgePolicy p;
  p.min_us = 100;
  p.max_us = 10'000;
  p.quantile = 0.95;
  p.warmup_samples = 8;

  service::LatencyHistogram hist;
  // Cold histogram: conservative (hedge late) until warmed up.
  EXPECT_EQ(hedge_delay_ns(p, hist), p.max_us * 1000);
  for (int i = 0; i < 7; ++i) hist.record(std::uint64_t{1} << 19);
  EXPECT_EQ(hedge_delay_ns(p, hist), p.max_us * 1000);

  // 100 samples near 2^19 ns (~0.5 ms): p95 bucket is 19, estimate is
  // the bucket's upper bound 2^20 ns = ~1.05 ms, inside the clamp.
  for (int i = 7; i < 100; ++i) hist.record(std::uint64_t{1} << 19);
  EXPECT_EQ(hedge_delay_ns(p, hist), std::uint64_t{1} << 20);

  // A sub-floor estimate clamps up to min_us.
  service::LatencyHistogram fast;
  for (int i = 0; i < 100; ++i) fast.record(1'000);  // ~1 us answers
  EXPECT_EQ(hedge_delay_ns(p, fast), p.min_us * 1000);

  // A straggler-heavy tail clamps down to max_us.
  service::LatencyHistogram slow;
  for (int i = 0; i < 100; ++i) slow.record(std::uint64_t{1} << 33);  // ~8.6 s
  EXPECT_EQ(hedge_delay_ns(p, slow), p.max_us * 1000);
}

// ------------------------------------------------------------ config units

ClusterConfig make_config(std::uint32_t n, std::uint32_t r,
                          std::uint32_t shards = 64) {
  ClusterConfig cfg;
  cfg.nodes.assign(n, NodeEndpoint{});
  cfg.replication = r;
  cfg.key_shards = shards;
  cfg.seed = 0x5eed;
  return cfg;
}

TEST(ClusterConfig, ValidateEnforcesPairCoverage) {
  EXPECT_NO_THROW(make_config(3, 2).validate());
  EXPECT_NO_THROW(make_config(1, 1).validate());
  EXPECT_NO_THROW(make_config(5, 3).validate());

  EXPECT_THROW(make_config(0, 1).validate(), std::invalid_argument);
  EXPECT_THROW(make_config(3, 0).validate(), std::invalid_argument);
  EXPECT_THROW(make_config(3, 4).validate(), std::invalid_argument);
  EXPECT_THROW(make_config(4, 2).validate(), std::invalid_argument);  // 2R = N
  EXPECT_THROW(make_config(2, 1).validate(), std::invalid_argument);  // 2R = N
  ClusterConfig no_shards = make_config(3, 2, 0);
  EXPECT_THROW(no_shards.validate(), std::invalid_argument);
}

TEST(ClusterConfig, PairCoverageHoldsForEveryShardPair) {
  for (const auto& [n, r] : std::vector<std::pair<std::uint32_t,
                                                  std::uint32_t>>{
           {3, 2}, {5, 3}, {4, 3}}) {
    const ClusterConfig cfg = make_config(n, r);
    const auto pref = cfg.preference_lists();
    ASSERT_EQ(pref.size(), cfg.key_shards);
    for (const auto& owners : pref) {
      ASSERT_EQ(owners.size(), r);
    }
    const std::size_t floor = 2ull * r - n;  // |A ∩ B| >= 2R - N
    for (std::uint32_t a = 0; a < cfg.key_shards; ++a) {
      for (std::uint32_t b = a; b < cfg.key_shards; ++b) {
        std::size_t common = 0;
        for (const std::uint32_t x : pref[a]) {
          for (const std::uint32_t y : pref[b]) common += x == y ? 1 : 0;
        }
        ASSERT_GE(common, std::max<std::size_t>(1, floor))
            << "shards " << a << "," << b << " of N=" << n << " R=" << r;
      }
    }
  }
}

TEST(ClusterConfig, PlacementIsDeterministicAndSpread) {
  const ClusterConfig cfg = make_config(3, 2);
  const auto p1 = cfg.preference_lists();
  const auto p2 = cfg.preference_lists();
  EXPECT_EQ(p1, p2);

  // Every node owns some shards, and primaries are not all one node.
  std::vector<std::size_t> owned(3, 0), primary(3, 0);
  for (const auto& owners : p1) {
    primary[owners[0]] += 1;
    for (const std::uint32_t o : owners) owned[o] += 1;
  }
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_GT(owned[i], 0u) << "node " << i;
    EXPECT_GT(primary[i], 0u) << "node " << i;
  }

  // A different seed produces a different placement.
  ClusterConfig other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_NE(p1, other.preference_lists());
}

TEST(ClusterConfig, EligibleNodesKeepsPreferenceOrderOfU) {
  const ClusterConfig cfg = make_config(3, 2);
  const auto pref = cfg.preference_lists();
  for (std::uint64_t u = 0; u < 200; ++u) {
    for (std::uint64_t v = 0; v < 200; v += 7) {
      const auto elig = cfg.eligible_nodes(u, v);
      ASSERT_FALSE(elig.empty());
      const auto& a = pref[cfg.shard_of(u)];
      const auto& b = pref[cfg.shard_of(v)];
      // Subsequence of a, and every element also in b.
      std::size_t ai = 0;
      for (const std::uint32_t e : elig) {
        while (ai < a.size() && a[ai] != e) ++ai;
        ASSERT_LT(ai, a.size());
        ASSERT_NE(std::find(b.begin(), b.end(), e), b.end());
      }
    }
  }
}

TEST(ClusterConfig, ParseNodes) {
  const auto nodes =
      ClusterConfig::parse_nodes("127.0.0.1:9001,:9002,host.example:9003");
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0].host, "127.0.0.1");
  EXPECT_EQ(nodes[0].port, 9001);
  EXPECT_EQ(nodes[1].host, "127.0.0.1");  // empty host defaults loopback
  EXPECT_EQ(nodes[1].port, 9002);
  EXPECT_EQ(nodes[2].host, "host.example");
  EXPECT_EQ(nodes[2].port, 9003);

  EXPECT_THROW(ClusterConfig::parse_nodes(""), std::invalid_argument);
  EXPECT_THROW(ClusterConfig::parse_nodes("nohost"), std::invalid_argument);
  EXPECT_THROW(ClusterConfig::parse_nodes("h:"), std::invalid_argument);
  EXPECT_THROW(ClusterConfig::parse_nodes("h:0"), std::invalid_argument);
  EXPECT_THROW(ClusterConfig::parse_nodes("h:70000"), std::invalid_argument);
}

// --------------------------------------------------------- partition units

/// Small thin/fat test corpus shared by partition + router tests.
struct AdjCorpus {
  Graph g;
  ThinFatEncoding enc;

  explicit AdjCorpus(std::size_t n = 300) {
    Rng rng(11);
    g = chung_lu_power_law(n, 2.5, 8.0, rng);
    enc = thin_fat_encode(g, 12);
  }

  bool adjacent(std::uint64_t u, std::uint64_t v) const {
    return thin_fat_adjacent(enc.labeling[static_cast<Vertex>(u)],
                             enc.labeling[static_cast<Vertex>(v)]);
  }
};

std::string fresh_dir(const char* tag) {
  std::string tmpl = testing::TempDir() + "plg_" + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  EXPECT_NE(::mkdtemp(buf.data()), nullptr);
  return std::string(buf.data());
}

TEST(ClusterPartition, WritesReplicatedFullIdSpaceStores) {
  const AdjCorpus corpus(200);
  const ClusterConfig cfg = make_config(3, 2);
  const std::string dir = fresh_dir("part");

  const auto infos = write_partitions(corpus.enc.labeling, cfg, dir, 4);
  ASSERT_EQ(infos.size(), 3u);

  std::uint64_t owned_total = 0;
  for (std::uint32_t node = 0; node < 3; ++node) {
    EXPECT_EQ(infos[node].path, partition_path(dir, node));
    owned_total += infos[node].owned;

    // Every partition is an ordinary strict-verifiable store holding the
    // full global id space.
    const auto snap = service::Snapshot::from_file(infos[node].path, 4,
                                                   StoreVerify::kStrict);
    ASSERT_EQ(snap->size(), corpus.enc.labeling.size());
    std::uint64_t stored = 0;
    for (std::uint64_t id = 0; id < snap->size(); ++id) {
      const Label l = snap->get(id);
      if (cfg.node_owns(node, id)) {
        EXPECT_EQ(l.size_bits(),
                  corpus.enc.labeling[static_cast<Vertex>(id)].size_bits());
        stored += 1;
      } else {
        EXPECT_EQ(l.size_bits(), 0u) << "non-owned slot must be empty";
      }
    }
    EXPECT_EQ(stored, infos[node].owned);
  }
  // Each label lands on exactly R nodes.
  EXPECT_EQ(owned_total, corpus.enc.labeling.size() * cfg.replication);
}

TEST(ClusterPartition, NonOwnerQueryAnswersCorruptInBand) {
  // A query misrouted to a node that does not own an endpoint decodes
  // that endpoint's empty slot: kCorrupt in band, counted, never a guess.
  const AdjCorpus corpus(200);
  const ClusterConfig cfg = make_config(3, 2);
  const std::string dir = fresh_dir("nonowner");
  write_partitions(corpus.enc.labeling, cfg, dir, 4);
  const std::uint32_t node = 1;
  std::vector<std::uint64_t> owned;
  std::vector<std::uint64_t> foreign;
  for (std::uint64_t id = 0; id < corpus.enc.labeling.size(); ++id) {
    (cfg.node_owns(node, id) ? owned : foreign).push_back(id);
  }
  ASSERT_GE(owned.size(), 2u);
  ASSERT_FALSE(foreign.empty());

  service::ServiceOptions sopt;
  sopt.threads = 1;
  service::QueryService svc(
      service::Snapshot::from_file(partition_path(dir, node), 4,
                                   StoreVerify::kStrict),
      sopt);
  const QueryResult ok = svc.query(QueryRequest{owned[0], owned[1]});
  EXPECT_EQ(ok.status, QueryStatus::kOk);
  EXPECT_EQ(ok.adjacent, corpus.adjacent(owned[0], owned[1]));
  EXPECT_EQ(svc.stats().corruptions, 0u);

  const QueryRequest misrouted[] = {{foreign[0], owned[0]},
                                    {owned[0], foreign[0]},
                                    {foreign[0], foreign[0]}};
  std::uint64_t want = 0;
  for (const QueryRequest& req : misrouted) {
    EXPECT_EQ(svc.query(req).status, QueryStatus::kCorrupt)
        << req.u << "," << req.v;
    EXPECT_EQ(svc.stats().corruptions, ++want);
  }
}

// ------------------------------------------------- in-process integration

/// Real NetServer nodes over partition files, addressable by a Router.
struct ClusterHarness {
  struct NodeProc {
    std::shared_ptr<const service::Snapshot> snap;
    std::unique_ptr<service::QueryService> svc;
    std::unique_ptr<service::NetServer> server;
  };

  ClusterConfig cfg;
  std::string dir;
  QueryKind kind;
  std::vector<NodeProc> nodes;

  ClusterHarness(const Labeling& labeling, QueryKind k, std::uint32_t n_nodes,
                 std::uint32_t repl)
      : cfg(make_config(n_nodes, repl)), dir(fresh_dir("cluster")), kind(k) {
    write_partitions(labeling, cfg, dir, 4);
    nodes.resize(n_nodes);
    for (std::uint32_t i = 0; i < n_nodes; ++i) start_node(i);
  }

  ~ClusterHarness() {
    for (std::uint32_t i = 0; i < nodes.size(); ++i) stop_node(i);
  }

  void start_node(std::uint32_t i, std::uint16_t port = 0) {
    NodeProc& n = nodes[i];
    n.snap = service::Snapshot::from_file(partition_path(dir, i), 4,
                                          StoreVerify::kStrict,
                                          /*allow_quarantine=*/true);
    service::ServiceOptions sopt;
    sopt.threads = 2;
    sopt.kind = kind;
    n.svc = std::make_unique<service::QueryService>(n.snap, sopt);
    service::NetServerOptions nopt;
    nopt.port = port;
    n.server = std::make_unique<service::NetServer>(*n.svc, nopt);
    n.server->start();
    cfg.nodes[i] = NodeEndpoint{"127.0.0.1", n.server->port()};
  }

  void stop_node(std::uint32_t i) {
    if (!nodes[i].server) return;
    nodes[i].server->stop();
    nodes[i].server->join();
    nodes[i].server.reset();
    nodes[i].svc.reset();
  }
};

/// Router knobs sized for loopback tests: fast failure detection, tight
/// backoff, hedge clamp well under the per-try budget.
RouterOptions fast_router_opts(QueryKind kind = QueryKind::kAdjacency) {
  RouterOptions o;
  o.kind = kind;
  o.per_try_ms = 2'000;
  o.batch_budget_ms = 10'000;
  o.connect_timeout_ms = 500;
  o.retry.max_attempts = 3;
  o.retry.base_ms = 1;
  o.retry.max_ms = 5;
  o.hedge.min_us = 100;
  o.hedge.max_us = 20'000;
  o.hedge.warmup_samples = 8;
  o.suspect_after = 1;
  o.quarantine_after = 2;
  o.probe_tick_ms = 2;
  o.probe_base_ms = 2;
  o.probe_max_ms = 20;
  o.probe_timeout_ms = 200;
  o.flow_threads = 2;
  return o;
}

std::vector<QueryResult> run_batch(
    Router& r, const std::vector<std::pair<std::uint64_t, std::uint64_t>>& qs,
    const service::BatchOptions& bopt = {}) {
  std::vector<QueryRequest> reqs(qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    reqs[i].u = qs[i].first;
    reqs[i].v = qs[i].second;
  }
  return r.query_batch(reqs, bopt);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> random_pairs(
    std::size_t count, std::uint64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> qs(count);
  for (auto& q : qs) {
    q.first = rng.next_below(n);
    q.second = rng.next_below(n);
  }
  return qs;
}

template <typename Pred>
bool wait_until(Pred pred, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

TEST(ClusterRouter, MatchesOracleWhenAllNodesHealthy) {
  const AdjCorpus corpus;
  ClusterHarness h(corpus.enc.labeling, QueryKind::kAdjacency, 3, 2);
  Router router(h.cfg, fast_router_opts());

  auto qs = random_pairs(400, corpus.g.num_vertices(), 21);
  qs.emplace_back(corpus.g.num_vertices() + 5, 0);  // out of range
  const auto results = run_batch(router, qs);
  ASSERT_EQ(results.size(), qs.size());
  for (std::size_t i = 0; i + 1 < qs.size(); ++i) {
    ASSERT_EQ(results[i].status, QueryStatus::kOk) << "query " << i;
    EXPECT_EQ(results[i].adjacent, corpus.adjacent(qs[i].first, qs[i].second))
        << "query " << i;
  }
  EXPECT_EQ(results.back().status, QueryStatus::kOutOfRange);
  EXPECT_EQ(router.unavailable_queries(), 0u);
}

TEST(ClusterRouter, FailsOverWhenOneNodeDies) {
  const AdjCorpus corpus;
  ClusterHarness h(corpus.enc.labeling, QueryKind::kAdjacency, 3, 2);
  RouterOptions opt = fast_router_opts();
  opt.probe = false;  // keep the dead node dead for the whole test
  Router router(h.cfg, opt);

  h.stop_node(0);

  // Pair coverage for N=3, R=2 guarantees |owners(u) ∩ owners(v)| >= 1,
  // so some pairs are eligible ONLY on the dead node. Those — and only
  // those — may answer kUnavailable; every pair with a live replica must
  // fail over and answer correctly.
  std::size_t failed_over = 0;
  for (int round = 0; round < 3; ++round) {
    const auto qs = random_pairs(200, corpus.g.num_vertices(),
                                 100 + static_cast<std::uint64_t>(round));
    const auto results = run_batch(router, qs);
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const auto elig = h.cfg.eligible_nodes(qs[i].first, qs[i].second);
      const bool live_replica =
          std::find(elig.begin(), elig.end(), 1u) != elig.end() ||
          std::find(elig.begin(), elig.end(), 2u) != elig.end();
      if (live_replica) {
        ASSERT_EQ(results[i].status, QueryStatus::kOk)
            << "round " << round << " query " << i;
        EXPECT_EQ(results[i].adjacent,
                  corpus.adjacent(qs[i].first, qs[i].second));
        failed_over += elig[0] == 0u ? 1 : 0;  // primary was the dead node
      } else {
        ASSERT_EQ(results[i].status, QueryStatus::kUnavailable)
            << "round " << round << " query " << i;
      }
    }
  }
  // The interesting path ran: dead-primary flows that retried to a live
  // replica and answered correctly.
  EXPECT_GT(failed_over, 0u);
  EXPECT_EQ(router.node_state(0), NodeState::kQuarantined);
  const NodeStatsView v = router.node_stats(0);
  EXPECT_GE(v.transport_errors + v.timeouts, 1u);
  EXPECT_GE(v.to_quarantined, 1u);
}

TEST(ClusterRouter, AllReplicasDownAnswersUnavailableInBoundedTime) {
  const AdjCorpus corpus(120);
  ClusterHarness h(corpus.enc.labeling, QueryKind::kAdjacency, 3, 2);
  RouterOptions opt = fast_router_opts();
  opt.batch_budget_ms = 5'000;
  Router router(h.cfg, opt);
  for (std::uint32_t i = 0; i < 3; ++i) h.stop_node(i);

  const auto qs = random_pairs(64, corpus.g.num_vertices(), 33);
  const auto t0 = Clock::now();
  const auto results = run_batch(router, qs);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - t0);

  // Bounded: well inside the batch budget (connects fail fast), and
  // every slot is written with the in-band degradation answer.
  EXPECT_LT(elapsed.count(), 5'000);
  ASSERT_EQ(results.size(), qs.size());
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.status, QueryStatus::kUnavailable);
  }
  EXPECT_EQ(router.unavailable_queries(), qs.size());
}

TEST(ClusterRouter, PartialOutageUnavailableOnlyForDeadKeyRanges) {
  const AdjCorpus corpus;
  ClusterHarness h(corpus.enc.labeling, QueryKind::kAdjacency, 3, 2);
  RouterOptions opt = fast_router_opts();
  opt.probe = false;
  Router router(h.cfg, opt);

  h.stop_node(1);
  h.stop_node(2);

  // Warm-up batch lets the router quarantine the dead nodes; afterwards
  // the kOk/kUnavailable split must match eligibility exactly.
  run_batch(router, random_pairs(64, corpus.g.num_vertices(), 44));
  ASSERT_TRUE(wait_until(
      [&] {
        return router.node_state(1) == NodeState::kQuarantined &&
               router.node_state(2) == NodeState::kQuarantined;
      },
      5'000));

  const auto qs = random_pairs(300, corpus.g.num_vertices(), 55);
  const auto results = run_batch(router, qs);
  std::size_t ok = 0, unavailable = 0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto elig = h.cfg.eligible_nodes(qs[i].first, qs[i].second);
    const bool reachable =
        std::find(elig.begin(), elig.end(), 0u) != elig.end();
    if (reachable) {
      ASSERT_EQ(results[i].status, QueryStatus::kOk) << "query " << i;
      EXPECT_EQ(results[i].adjacent,
                corpus.adjacent(qs[i].first, qs[i].second));
      ++ok;
    } else {
      ASSERT_EQ(results[i].status, QueryStatus::kUnavailable)
          << "query " << i;
      ++unavailable;
    }
  }
  // The split is non-trivial in both directions for N=3, R=2.
  EXPECT_GT(ok, 0u);
  EXPECT_GT(unavailable, 0u);
}

TEST(ClusterRouter, ProberReadmitsRestartedNode) {
  const AdjCorpus corpus(150);
  ClusterHarness h(corpus.enc.labeling, QueryKind::kAdjacency, 3, 2);
  Router router(h.cfg, fast_router_opts());

  const std::uint16_t old_port = h.cfg.nodes[0].port;
  h.stop_node(0);
  run_batch(router, random_pairs(64, corpus.g.num_vertices(), 66));
  ASSERT_TRUE(wait_until(
      [&] { return router.node_state(0) == NodeState::kQuarantined; },
      5'000));

  // Rebind the node on its old port (SO_REUSEADDR; retry the race with
  // lingering sockets) and let the background prober re-admit it.
  ASSERT_TRUE(wait_until(
      [&] {
        try {
          h.start_node(0, old_port);
          return true;
        } catch (const std::exception&) {
          return false;
        }
      },
      5'000));
  EXPECT_TRUE(wait_until(
      [&] { return router.node_state(0) == NodeState::kHealthy; }, 5'000));
  const NodeStatsView v = router.node_stats(0);
  EXPECT_GE(v.probes, 1u);
  EXPECT_GE(v.recovered, 1u);

  const auto qs = random_pairs(100, corpus.g.num_vertices(), 77);
  const auto results = run_batch(router, qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(results[i].status, QueryStatus::kOk);
    EXPECT_EQ(results[i].adjacent, corpus.adjacent(qs[i].first, qs[i].second));
  }
}

// A listener that accepts connections and reads requests but never
// responds — the SIGSTOP stand-in for hedge tests.
class Tarpit {
 public:
  Tarpit() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd_, 0);
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 64), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { loop(); });
  }

  ~Tarpit() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    for (const int c : conns_) ::close(c);
    ::close(fd_);
  }

  std::uint16_t port() const noexcept { return port_; }

 private:
  void loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      pollfd p{};
      p.fd = fd_;
      p.events = POLLIN;
      if (::poll(&p, 1, 20) <= 0) continue;
      const int c = ::accept4(fd_, nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (c >= 0) conns_.push_back(c);  // hold it open, answer nothing
      // Drain request bytes so senders never block, then go silent.
      std::array<std::uint8_t, 4096> sink{};
      for (const int fd : conns_) {
        while (::recv(fd, sink.data(), sink.size(), MSG_DONTWAIT) > 0) {
        }
      }
    }
  }

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::vector<int> conns_;
};

TEST(ClusterRouter, HedgeRescuesStalledReplica) {
  const AdjCorpus corpus(150);
  // N=2, R=2: both nodes own every shard; roughly half the shards rank
  // the tarpit first, so its flows only complete via the hedge.
  ClusterHarness h(corpus.enc.labeling, QueryKind::kAdjacency, 2, 2);
  Tarpit tarpit;
  h.stop_node(0);
  h.cfg.nodes[0] = NodeEndpoint{"127.0.0.1", tarpit.port()};

  RouterOptions opt = fast_router_opts();
  opt.hedge.max_us = 20'000;  // cold-histogram hedge after <= 20 ms
  opt.probe = false;
  Router router(h.cfg, opt);

  const auto t0 = Clock::now();
  for (int round = 0; round < 5; ++round) {
    const auto qs = random_pairs(100, corpus.g.num_vertices(),
                                 200 + static_cast<std::uint64_t>(round));
    const auto results = run_batch(router, qs);
    for (std::size_t i = 0; i < qs.size(); ++i) {
      ASSERT_EQ(results[i].status, QueryStatus::kOk);
      EXPECT_EQ(results[i].adjacent,
                corpus.adjacent(qs[i].first, qs[i].second));
    }
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - t0);
  // Without hedging, every tarpit-primary flow would eat the full 2 s
  // per-try timeout; with it, each costs at most the 20 ms hedge delay.
  EXPECT_LT(elapsed.count(), 2'000);
  EXPECT_GE(router.node_stats(1).hedge_wins, 1u);
  EXPECT_GE(router.node_stats(1).hedges +
                router.node_stats(0).hedges, 1u);
}

// Echo server that answers every batch with a correct-shape kOk frame
// carrying the WRONG request id — the correlation contract violator.
class WrongIdServer {
 public:
  WrongIdServer() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd_, 0);
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 16), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { loop(); });
  }

  ~WrongIdServer() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    ::close(fd_);
  }

  std::uint16_t port() const noexcept { return port_; }

 private:
  static bool read_exact(int fd, std::uint8_t* dst, std::size_t n,
                         const std::atomic<bool>& stop) {
    std::size_t got = 0;
    while (got < n && !stop.load(std::memory_order_relaxed)) {
      pollfd p{};
      p.fd = fd;
      p.events = POLLIN;
      if (::poll(&p, 1, 20) <= 0) continue;
      const ssize_t r = ::recv(fd, dst + got, n - got, 0);
      if (r > 0) {
        got += static_cast<std::size_t>(r);
        continue;
      }
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR)) {
        continue;
      }
      return false;
    }
    return got == n;
  }

  void loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      pollfd p{};
      p.fd = fd_;
      p.events = POLLIN;
      if (::poll(&p, 1, 20) <= 0) continue;
      const int c = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (c < 0) continue;
      serve_conn(c);
      ::close(c);
    }
  }

  void serve_conn(int c) {
    std::array<std::uint8_t, wire::kHeaderSize> hdr_bytes{};
    std::array<std::uint8_t, 4096> payload{};
    while (!stop_.load(std::memory_order_relaxed)) {
      if (!read_exact(c, hdr_bytes.data(), hdr_bytes.size(), stop_)) return;
      wire::FrameHeader hdr;
      if (wire::decode_header(hdr_bytes.data(), hdr_bytes.size(),
                              payload.size(), hdr) != wire::HeaderError::kOk) {
        return;
      }
      if (hdr.length > payload.size() ||
          !read_exact(c, payload.data(), hdr.length, stop_)) {
        return;
      }
      const std::size_t n = hdr.length / wire::kQueryRecordSize;
      std::vector<std::uint8_t> out;
      wire::put_header(out, hdr.verb, wire::FrameStatus::kOk,
                       hdr.request_id + 1,  // the lie under test
                       static_cast<std::uint32_t>(n));
      out.insert(out.end(), n,
                 static_cast<std::uint8_t>(wire::ResultCode::kNo));
      std::size_t sent = 0;
      while (sent < out.size()) {
        const ssize_t w = ::send(c, out.data() + sent, out.size() - sent,
                                 MSG_NOSIGNAL);
        if (w <= 0) return;
        sent += static_cast<std::size_t>(w);
      }
    }
  }

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(ClusterRouter, WrongRequestIdEchoIsAProtocolErrorNotAnAnswer) {
  WrongIdServer liar;
  ClusterConfig cfg = make_config(1, 1);
  cfg.nodes[0] = NodeEndpoint{"127.0.0.1", liar.port()};

  RouterOptions opt = fast_router_opts();
  opt.per_try_ms = 300;
  opt.batch_budget_ms = 3'000;
  opt.probe = false;
  opt.hedge.enabled = false;
  Router router(cfg, opt);

  const auto results = run_batch(router, {{1, 2}, {3, 4}});
  // A frame that fails the id echo must never be matched as an answer:
  // the queries degrade to kUnavailable rather than absorbing the
  // mis-correlated kNo payload.
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.status, QueryStatus::kUnavailable);
  }
  const NodeStatsView v = router.node_stats(0);
  EXPECT_GE(v.protocol_errors, 1u);
  EXPECT_EQ(v.ok, 0u);
}

TEST(ClusterRouter, ServesBehindNetServerWithComposedStats) {
  const AdjCorpus corpus(150);
  ClusterHarness h(corpus.enc.labeling, QueryKind::kAdjacency, 3, 2);
  Router router(h.cfg, fast_router_opts());

  // The plgtool-route shape, in process: Router as the NetServer's
  // BatchHandler, driven by a plain NetClient.
  service::NetServerOptions nopt;
  nopt.port = 0;
  service::NetServer front(router, nopt);
  front.start();

  NetClient c;
  c.set_timeout_ms(10'000);
  ASSERT_TRUE(c.connect(front.port()));

  const auto qs = random_pairs(100, corpus.g.num_vertices(), 88);
  NetResponse resp;
  ASSERT_TRUE(c.batch(wire::Verb::kAdjBatch, 7, qs, resp));
  ASSERT_EQ(resp.header.verb, wire::Verb::kAdjBatch);
  ASSERT_EQ(resp.header.request_id, 7u);
  ASSERT_EQ(resp.payload.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto expect = corpus.adjacent(qs[i].first, qs[i].second)
                            ? wire::ResultCode::kYes
                            : wire::ResultCode::kNo;
    EXPECT_EQ(resp.payload[i], static_cast<std::uint8_t>(expect))
        << "query " << i;
  }

  std::string json;
  ASSERT_TRUE(c.stats_json(8, json));
  // {"net":{..},"service":{..router report..}}: one cluster block, and
  // none of an engine's snapshot fields (a router holds no labels).
  EXPECT_EQ(json.rfind("{\"net\":{", 0), 0u) << json;
  const std::size_t cluster = json.find("\"cluster\":{");
  ASSERT_NE(cluster, std::string::npos) << json;
  EXPECT_EQ(json.find("\"cluster\":{", cluster + 1), std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"snapshot\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"state\":\"healthy\""), std::string::npos);
  EXPECT_NE(json.find("\"hedge_wins\":"), std::string::npos);

  front.stop();
  front.join();
}

TEST(ClusterRouter, RoutesDistanceBatches) {
  Rng rng(13);
  Graph g = chung_lu_power_law(150, 2.5, 8.0, rng);
  const DistanceScheme scheme(3, 2.5);
  const auto enc = scheme.encode(g);

  ClusterHarness h(enc.labeling, QueryKind::kDistance, 3, 2);
  Router router(h.cfg, fast_router_opts(QueryKind::kDistance));

  const auto qs = random_pairs(150, g.num_vertices(), 99);
  const auto results = run_batch(router, qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(results[i].status, QueryStatus::kOk) << "query " << i;
    const auto d = DistanceScheme::distance(
        enc.labeling[static_cast<Vertex>(qs[i].first)],
        enc.labeling[static_cast<Vertex>(qs[i].second)]);
    const std::int64_t expect = d ? static_cast<std::int64_t>(*d) : -1;
    EXPECT_EQ(results[i].distance, expect) << "query " << i;
  }
}

// ------------------------------------------------------ NetClient deadlines

TEST(NetClientDeadlines, ReadTimesOutOnMidFrameStall) {
  // A server that sends half a header and goes silent: the client's
  // read deadline must fire instead of blocking forever.
  const int lfd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(lfd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  NetClient c;
  c.set_timeout_ms(300);
  ASSERT_TRUE(c.connect(ntohs(addr.sin_port)));
  const int conn = [&] {
    pollfd p{};
    p.fd = lfd;
    p.events = POLLIN;
    EXPECT_GT(::poll(&p, 1, 2'000), 0);
    return ::accept4(lfd, nullptr, nullptr, SOCK_CLOEXEC);
  }();
  ASSERT_GE(conn, 0);

  // 8 of the 16 header bytes (valid magic + version), then silence.
  std::vector<std::uint8_t> half;
  wire::put_empty_request(half, wire::Verb::kPing, 1);
  half.resize(8);
  ASSERT_EQ(::send(conn, half.data(), half.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(half.size()));

  NetResponse resp;
  const auto t0 = Clock::now();
  EXPECT_FALSE(c.read_response(resp));
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Clock::now() - t0)
                      .count();
  EXPECT_GE(ms, 250);
  EXPECT_LT(ms, 5'000);

  ::close(conn);
  ::close(lfd);
}

TEST(NetClientDeadlines, ConnectIsBoundedAgainstFullBacklog) {
  // A listener that never accepts, with its backlog pre-filled: further
  // connects cannot complete the handshake. Whether this connect
  // ultimately succeeds or fails is kernel-dependent; what the client
  // must guarantee is a bounded return.
  const int lfd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::vector<int> fillers;
  for (int i = 0; i < 16; ++i) {
    const int f =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (f < 0) break;
    ::connect(f, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    fillers.push_back(f);
  }

  NetClient c;
  c.set_timeout_ms(300);
  const auto t0 = Clock::now();
  c.connect(port);  // success or failure: only boundedness is asserted
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Clock::now() - t0)
                      .count();
  EXPECT_LT(ms, 5'000);

  for (const int f : fillers) ::close(f);
  ::close(lfd);
}

TEST(NetClientDeadlines, ConnectFailFaultKeyInjectsFailures) {
  const AdjCorpus corpus(80);
  ClusterHarness h(corpus.enc.labeling, QueryKind::kAdjacency, 3, 2);

  fault::FaultPlan plan;
  plan.connect_fail_every = 1;  // every outbound connect fails
  fault::enable(plan);
  NetClient c;
  c.set_timeout_ms(500);
  EXPECT_FALSE(c.connect(h.cfg.nodes[0].port));
  EXPECT_GE(fault::service_fault_counters().connect_fails, 1u);
  fault::disable();

  EXPECT_TRUE(c.connect(h.cfg.nodes[0].port));
}

}  // namespace
}  // namespace plg::cluster
