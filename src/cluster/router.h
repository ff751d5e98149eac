// Router: the stateless scatter/gather front-end of the distributed
// serving tier. Implements service::BatchHandler, so the existing
// NetServer hosts it unchanged — `plgtool route` is just `serve --tcp`
// with a Router behind the event loop instead of a QueryService.
//
// A batch is split into *flows* keyed by the eligible-node signature
// owners(u) ∩ owners(v) (non-empty by the ClusterConfig pair-coverage
// invariant). Flows run concurrently on a small worker pool, one
// in-flight exchange per flow:
//
//   * Deadline budgets: every exchange gets min(per_try_ms, time left
//     until the batch deadline); the batch call itself always returns
//     by the overall deadline (bopt.deadline, or now + batch_budget_ms
//     when the caller set none) — the never-hang BatchHandler contract.
//   * Retries: a failed exchange (connect failure, transport error,
//     timeout, retriable error frame, in-band kOverloaded) moves to the
//     next replica in preference order after a capped exponential
//     backoff with stream_rng jitter (policy.h), up to max_attempts.
//   * Hedging: once a node's latency histogram is warm, a request that
//     outlives the node's p95 (clamped; policy.h) fires a duplicate to
//     the next healthy replica; first complete, id-verified response
//     wins and the loser's connection is closed. A SIGSTOP'd node costs
//     one hedge delay, not a full per-try timeout.
//   * Correlation: request_ids are monotonically increasing per pooled
//     connection, and every response frame — error frames included —
//     must echo the id of the request in flight on that connection
//     before it is matched against a hedged pair; a mismatch counts a
//     protocol error and closes the connection (the frame stream can no
//     longer be trusted).
//   * Health: per-node healthy -> suspect -> quarantined on consecutive
//     failures (any success resets). Quarantined nodes take no traffic;
//     a background prober pings them with capped-backoff jitter and
//     re-admits on success — the shard-level self-healer's pattern
//     lifted to node level.
//   * Degradation: when every eligible replica for a flow is
//     quarantined or exhausts its attempts, the flow's queries answer
//     kUnavailable in-band and the batch still completes on time.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/config.h"
#include "cluster/policy.h"
#include "service/engine.h"
#include "service/net_client.h"
#include "service/thread_pool.h"
#include "util/locks.h"
#include "util/thread_annotations.h"

namespace plg::cluster {

struct RouterOptions {
  service::QueryKind kind = service::QueryKind::kAdjacency;

  // --- deadline budgets ---
  /// Budget per node attempt (connect + send + response). Clamped by
  /// the remaining batch budget.
  std::uint32_t per_try_ms = 250;
  /// Overall batch budget when the caller sets no BatchOptions
  /// deadline; guarantees bounded-time completion regardless.
  std::uint32_t batch_budget_ms = 2'000;
  /// Budget for establishing a fresh connection within an attempt.
  std::uint32_t connect_timeout_ms = 250;

  RetryPolicy retry;  ///< attempts + capped backoff + jitter seed
  HedgePolicy hedge;  ///< adaptive straggler hedging

  // --- health machine + prober ---
  std::uint32_t suspect_after = 1;
  std::uint32_t quarantine_after = 3;
  bool probe = true;               ///< run the background prober thread
  std::uint32_t probe_base_ms = 5;    ///< first probe-retry backoff
  std::uint32_t probe_max_ms = 200;   ///< probe backoff cap
  std::uint32_t probe_timeout_ms = 100;  ///< per-probe connect+ping budget
  std::uint32_t probe_tick_ms = 5;    ///< prober wakeup granularity

  // --- resources ---
  unsigned flow_threads = 4;       ///< concurrent scatter workers
  std::size_t pool_cap = 8;        ///< idle connections kept per node
  std::size_t max_frame_payload = std::size_t{1} << 20;
};

/// Point-in-time copy of one node's counters (tests, stats JSON).
struct NodeStatsView {
  NodeState state = NodeState::kHealthy;
  std::uint64_t sent = 0;          ///< request frames sent (hedges incl.)
  std::uint64_t ok = 0;            ///< id-verified kOk responses
  std::uint64_t retries = 0;       ///< attempts after the first
  std::uint64_t hedges = 0;        ///< hedge requests fired at this node
  std::uint64_t hedge_wins = 0;    ///< hedges that beat the primary
  std::uint64_t transport_errors = 0;
  std::uint64_t protocol_errors = 0;  ///< bad id echo / malformed frame
  std::uint64_t timeouts = 0;
  std::uint64_t to_suspect = 0;       ///< health transitions
  std::uint64_t to_quarantined = 0;
  std::uint64_t recovered = 0;
  std::uint64_t probes = 0;           ///< background probes attempted
};

class Router final : public service::BatchHandler {
 public:
  /// Validates the config (throws std::invalid_argument) and spawns the
  /// flow pool + prober. No connections are opened until traffic.
  Router(ClusterConfig cfg, RouterOptions opt);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  std::vector<service::QueryResult> query_batch(
      const std::vector<service::QueryRequest>& batch,
      const service::BatchOptions& bopt) override;

  service::QueryKind kind() const noexcept override { return opt_.kind; }
  /// `{"queries","deadline_exceeded","latency_ns","latency_hist",
  /// "cluster":{..per-node table..}}`; latency is per exchange, summed
  /// over the nodes' histograms.
  std::string stats_json() const override;
  void drain() override;

  const ClusterConfig& config() const noexcept { return cfg_; }
  NodeStatsView node_stats(std::uint32_t node) const;
  NodeState node_state(std::uint32_t node) const;
  std::uint64_t unavailable_queries() const noexcept {
    return unavailable_.load(std::memory_order_relaxed);
  }

 private:
  /// One pooled connection plus its monotonically increasing request-id
  /// counter (correlation contract: ids are per-connection).
  struct PooledConn {
    service::NetClient client;
    std::uint32_t next_request_id = 1;
  };

  /// Per-node state. The mutex guards the connection pool and the
  /// health machine; counters are relaxed atomics (statistics only).
  struct Node {
    NodeEndpoint ep;
    mutable util::Mutex mu;
    std::vector<PooledConn> idle PLG_GUARDED_BY(mu);
    NodeHealth health PLG_GUARDED_BY(mu);
    std::uint32_t probe_fails PLG_GUARDED_BY(mu) = 0;
    std::chrono::steady_clock::time_point next_probe PLG_GUARDED_BY(mu){};

    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> hedges{0};
    std::atomic<std::uint64_t> hedge_wins{0};
    std::atomic<std::uint64_t> transport_errors{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> to_suspect{0};
    std::atomic<std::uint64_t> to_quarantined{0};
    std::atomic<std::uint64_t> recovered{0};
    std::atomic<std::uint64_t> probes{0};
    service::LatencyHistogram latency;
  };

  /// One group of batch indices sharing an eligible-node signature.
  struct Flow {
    std::vector<std::uint32_t> nodes;  ///< preference-ordered eligible set
    std::vector<std::size_t> idx;      ///< positions in the batch
  };

  /// One in-flight request arm (primary or hedge) of an exchange.
  struct Arm {
    std::uint32_t node = 0;
    std::optional<PooledConn> conn;
    std::uint32_t request_id = 0;
    bool is_hedge = false;
    std::chrono::steady_clock::time_point sent_at{};
    std::vector<std::uint8_t> buf;  ///< incremental response bytes
  };

  /// Outcome of one exchange attempt against (up to) two arms.
  struct ExchangeOutcome {
    bool answered = false;  ///< results filled for all asked queries
    std::vector<std::size_t> overloaded;  ///< in-band retriable leftovers
  };

  void run_flow(const std::vector<service::QueryRequest>& batch,
                const Flow& flow,
                std::chrono::steady_clock::time_point overall_deadline,
                std::vector<service::QueryResult>& results);

  ExchangeOutcome exchange(const std::vector<service::QueryRequest>& batch,
                           const std::vector<std::size_t>& asked,
                           std::uint32_t primary, const Flow& flow,
                           std::chrono::steady_clock::time_point deadline,
                           std::vector<service::QueryResult>& results);

  /// Pops an idle pooled connection or opens a fresh one within
  /// `timeout_ms`. nullopt = node unreachable (counted by the caller).
  std::optional<PooledConn> acquire_conn(Node& n, std::uint32_t timeout_ms);
  void release_conn(Node& n, PooledConn&& conn);

  /// Records one exchange-level observation against a node's health
  /// machine, bumping transition counters and waking the prober on
  /// demotion to quarantine.
  void record_outcome(std::uint32_t node, bool success);

  /// Next routable node in `flow.nodes` at or after `start` (wrapping),
  /// healthy preferred over suspect, quarantined skipped; -1 if none.
  int pick_node(const Flow& flow, std::uint32_t start,
                int exclude = -1) const;

  /// Drains readable bytes into the arm's buffer. Returns false when
  /// the connection died (EOF / transport error).
  static bool pump_arm(Arm& a);
  /// Classification of an arm's buffered bytes against the shared codec
  /// (header validated against max_frame_payload).
  enum class ArmFrame : std::uint8_t {
    kNeedMore,   ///< not yet one complete frame
    kComplete,   ///< exactly one complete frame buffered
    kMalformed,  ///< bad header bytes or surplus bytes after the frame
  };
  ArmFrame arm_frame(const Arm& a, service::wire::FrameHeader& hdr) const;

  void prober_main();
  bool probe_once(const NodeEndpoint& ep);

  std::chrono::steady_clock::time_point now() const {
    return std::chrono::steady_clock::now();
  }

  ClusterConfig cfg_;
  RouterOptions opt_;
  std::vector<std::vector<std::uint32_t>> pref_;  ///< shard -> owners
  std::vector<std::unique_ptr<Node>> nodes_;
  service::ThreadPool pool_;
  std::atomic<unsigned> next_worker_{0};

  // Router-level counters (relaxed; statistics only).
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> unavailable_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};

  // Drain gate: query_batch calls in flight.
  mutable util::Mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::uint64_t active_batches_ PLG_GUARDED_BY(drain_mu_) = 0;

  // Prober machinery (condvar pairs with probe_mu_; thread joined in
  // the destructor).
  util::Mutex probe_mu_;
  std::condition_variable probe_cv_;
  bool probe_stop_ PLG_GUARDED_BY(probe_mu_) = false;
  bool probe_poke_ PLG_GUARDED_BY(probe_mu_) = false;
  std::thread prober_;
};

}  // namespace plg::cluster
