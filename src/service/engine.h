// QueryService: the concurrent batch engine tying together the sharded
// snapshot store, the per-worker thread pool, and the metrics registry.
//
// The paper's schemes make adjacency decidable from two labels with no
// shared graph state — an embarrassingly parallel query workload. The
// engine exploits exactly that: a batch is split into fixed-size chunks,
// chunks are dealt round-robin onto per-worker queues, and each worker
// answers its chunk against an immutable Snapshot with zero cross-worker
// communication. The only synchronization in a batch is one atomic
// shared_ptr acquire at the start and one latch at the end.
//
// Consistency model: query_batch() acquires the current snapshot once and
// answers the whole batch from it. A reload() mid-batch affects only
// subsequent batches — callers never observe a half-swapped view.
//
// Failure model: queries never throw and callers never block
// indefinitely. An out-of-range id yields kOutOfRange; a label that
// fails its spot checksum or whose decode throws DecodeError yields
// kCorrupt and bumps the corruption-fallback counter. Under overload
// (bounded queues full) chunks are load-shed and their queries answer
// kOverloaded — the batch still completes, because the pool guarantees a
// shed chunk's fallback runs (and counts the latch down) in place of the
// chunk itself. A batch past its deadline cancels cooperatively: workers
// check the shared cancellation flag between queries, and everything
// unanswered returns kDeadlineExceeded. Queries routed to a quarantined
// shard answer kCorrupt in-band; repeated query-time corruption in one
// shard (ServiceOptions::quarantine_after) demotes the shard, and a
// background healer re-admits quarantined shards through the strict CRC
// gate with capped exponential backoff (jitter from stream_rng, so heal
// schedules are reproducible under a fixed seed). The service keeps
// serving through all of it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/label.h"
#include "service/metrics.h"
#include "service/snapshot.h"
#include "service/thread_pool.h"
#include "util/locks.h"
#include "util/thread_annotations.h"

namespace plg::service {

/// Which decoder the snapshot's labels were built for.
enum class QueryKind : std::uint8_t {
  kAdjacency,  ///< thin/fat labels; LabelView, else thin_fat_adjacent
  kDistance,   ///< Lemma 7 labels; DistanceView, else DistanceScheme
};

struct QueryRequest {
  std::uint64_t u = 0;
  std::uint64_t v = 0;
};

// plglint: exhaustive-switch
enum class QueryStatus : std::uint8_t {
  kOk = 0,
  kOutOfRange,  ///< an endpoint id is outside the snapshot
  kCorrupt,     ///< checksum/decode failure, or the shard is quarantined
  kOverloaded,  ///< chunk load-shed by admission control; retry later
  kDeadlineExceeded,  ///< batch deadline expired before this query ran
  kUnavailable,  ///< cluster: every replica holding the labels is down
};

struct QueryResult {
  QueryStatus status = QueryStatus::kOk;
  bool adjacent = false;     ///< kAdjacency: the answer
  std::int64_t distance = -1;  ///< kDistance: d(u,v) if <= f, else -1
};

struct ServiceOptions {
  unsigned threads = 0;          ///< worker count; 0 = hardware concurrency
  std::size_t chunk = 256;       ///< queries per dispatched task
  bool spot_check = false;       ///< verify per-label checksum before decode
  QueryKind kind = QueryKind::kAdjacency;

  // --- admission control (0 cap = unbounded, nothing ever shed) ---
  std::size_t queue_cap = 0;     ///< per-worker queue bound, in chunks
  ShedPolicy shed_policy = ShedPolicy::kRejectNew;

  // --- quarantine & self-healing ---
  /// Demote a shard to quarantine after this many query-time corruption
  /// fallbacks against it on one snapshot. 0 disables demotion (storage
  /// corruption then stays a per-query kCorrupt, the PR 1 behavior).
  std::uint32_t quarantine_after = 0;
  /// Run the background healer thread (re-admits quarantined shards).
  bool heal = true;
  std::uint32_t heal_base_ms = 1;    ///< first retry backoff
  std::uint32_t heal_max_ms = 100;   ///< backoff cap
  std::uint64_t heal_seed = 0x5eed;  ///< stream_rng seed for retry jitter
};

/// Per-batch execution options.
struct BatchOptions {
  /// Absolute deadline. Queries not answered by then return
  /// kDeadlineExceeded; the batch call itself still returns promptly
  /// (workers cancel cooperatively between queries). Unset = no limit.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// The seam between a batch front-end (NetServer, serve_loop) and
/// whatever answers batches behind it. Two implementations exist: the
/// local QueryService (labels in this process) and cluster::Router
/// (scatter/gather over remote nodes) — the TCP serving plane hosts
/// either without knowing which. Implementations must tolerate
/// query_batch from multiple threads concurrently and must return every
/// batch in bounded time (the never-hang contract the front-end's drain
/// logic relies on).
class BatchHandler {
 public:
  virtual ~BatchHandler() = default;

  /// Answers every request; every result slot is written (answered,
  /// shed, cancelled, or unavailable) before returning.
  virtual std::vector<QueryResult> query_batch(
      const std::vector<QueryRequest>& batch, const BatchOptions& bopt) = 0;

  /// Which decoder/verb this handler serves.
  virtual QueryKind kind() const noexcept = 0;

  /// Point-in-time counters for the STATS verb and final logging.
  virtual ServiceStats stats() const = 0;

  /// Extra JSON fields spliced into the STATS object after the standard
  /// report (e.g. the router's per-node table). Either empty or a
  /// comma-joinable `"key":value` fragment without braces.
  virtual std::string extra_stats_json() const { return std::string(); }

  /// Blocks until in-flight work has settled (graceful shutdown).
  virtual void drain() = 0;
};

class QueryService final : public BatchHandler {
 public:
  QueryService(std::shared_ptr<const Snapshot> snapshot, ServiceOptions opt);
  ~QueryService() override;

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Answers every request against one consistent snapshot. Blocks the
  /// calling thread until the whole batch is done (every result slot is
  /// written — answered, shed, or cancelled); safe to call from multiple
  /// threads concurrently (batches interleave at chunk level).
  std::vector<QueryResult> query_batch(const std::vector<QueryRequest>& batch,
                                       const BatchOptions& bopt) override;

  std::vector<QueryResult> query_batch(
      const std::vector<QueryRequest>& batch) {
    return query_batch(batch, BatchOptions{});
  }

  /// Single-query convenience: a batch of one, answered by a pool worker
  /// like any batch (worker state is only touched from its own thread).
  QueryResult query(const QueryRequest& req);

  /// Atomically installs a new snapshot; in-flight batches finish on the
  /// old one, and later batches answer from the new one.
  void reload(std::shared_ptr<const Snapshot> next);

  /// Blocks until every worker queue is empty and every worker idle.
  /// Callers must stop submitting batches first (graceful shutdown).
  void drain() override;

  /// The snapshot new batches would use right now.
  std::shared_ptr<const Snapshot> snapshot() const { return store_.acquire(); }

  std::uint64_t generation() const noexcept { return store_.generation(); }
  unsigned threads() const noexcept { return pool_.size(); }
  const ServiceOptions& options() const noexcept { return opt_; }
  QueryKind kind() const noexcept override { return opt_.kind; }

  /// Aggregated counters + latency histogram + snapshot info.
  ServiceStats stats() const override;

 private:
  struct WorkerState;
  struct ChunkTally;

  /// Shared, caller-stack-owned control block for one batch. Workers
  /// poll `cancelled` between queries; the submitting thread owns the
  /// lifetime (the latch in query_batch outlives every chunk).
  struct BatchControl {
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::atomic<bool> cancelled{false};
  };

  /// Answers one chunk in shard order. Counters are tallied locally and
  /// flushed once per chunk; the clock is read once per chunk, or before
  /// every query when the batch has a deadline.
  void run_chunk(unsigned worker, const Snapshot& snap, BatchControl& ctl,
                 const QueryRequest* reqs, QueryResult* results,
                 std::size_t count);

  /// Answers one query; a DecodeError becomes kCorrupt, charged to the
  /// shard of the endpoint that failed.
  QueryResult answer(const Snapshot& snap, const QueryRequest& q,
                     ChunkTally& tally);

  /// Cold path: records a query-time corruption against v's shard and,
  /// past the quarantine_after threshold, demotes the shard and wakes
  /// the healer. Deliberately NOT on the noexcept-hot-path — it takes
  /// heal_mu_ and may build a snapshot — answer() calls it at most once
  /// per corrupt query, which is already the slow lane.
  void note_shard_corruption(const Snapshot& snap, std::uint64_t v)
      PLG_EXCLUDES(heal_mu_);

  /// Healer thread body: waits for quarantine work, re-admits shards
  /// with capped exponential backoff + deterministic jitter.
  void healer_main();

  /// One heal pass over the current snapshot. Returns true when no
  /// healable quarantined shard remains (the healer can sleep).
  bool heal_once(std::uint64_t attempt);

  ServiceOptions opt_;
  SnapshotStore store_;
  ThreadPool pool_;
  MetricsRegistry metrics_;
  std::vector<std::unique_ptr<WorkerState>> states_;

  // Healer state. The condvar pairs with heal_mu_; the thread is joined
  // in the destructor before pool teardown.
  util::Mutex heal_mu_;
  std::condition_variable heal_cv_;
  bool heal_stop_ PLG_GUARDED_BY(heal_mu_) = false;
  bool heal_poke_ PLG_GUARDED_BY(heal_mu_) = false;
  /// Snapshot id the corruption tallies below refer to; a new snapshot
  /// resets them (old counts are about retired bits).
  std::uint64_t corrupt_snap_id_ PLG_GUARDED_BY(heal_mu_) = 0;
  std::vector<std::uint32_t> shard_corruptions_ PLG_GUARDED_BY(heal_mu_);
  std::thread healer_;
};

}  // namespace plg::service
