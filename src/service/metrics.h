// Lock-free service observability: per-worker counters and latency
// histograms, aggregated on demand into a JSON stats report.
//
// Design rule: the hot path never takes a lock and never writes a cache
// line another worker writes. Each worker owns one cache-line-aligned
// WorkerMetrics slot; counters are std::atomic<u64> written with relaxed
// ordering (they are statistics, not synchronization — the only
// requirement is no torn reads, which atomics give for free). The engine
// tallies each chunk's queries in plain locals and flushes them into the
// slot once per chunk, so a query costs no atomic RMW at all. Aggregation
// (stats(), the cold path) reads every slot with relaxed loads; totals
// trail the chunks still running, which is exactly the precision a stats
// endpoint needs — a finished batch is fully counted.
//
// Latency histogram: 64 power-of-two buckets of nanoseconds — bucket b
// counts samples with floor(log2(ns)) == b (bucket 0 also takes 0 ns).
// Log-scale buckets keep record() to a clz + one relaxed fetch_add and
// bound quantile error to 2x, plenty for p50/p99 trend lines. The engine
// records one sample per answered query, but the sample's value is its
// chunk's mean execute time per query (record_n), so the histogram shows
// the spread between chunks, not between queries of one chunk.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace plg::service {

inline constexpr int kLatencyBuckets = 64;

/// Index of the histogram bucket for a sample of `ns` nanoseconds.
constexpr int latency_bucket(std::uint64_t ns) noexcept {
  return ns == 0 ? 0 : 63 - __builtin_clzll(ns);
}

/// Lower bound (ns) of bucket b — for rendering.
constexpr std::uint64_t latency_bucket_floor(int b) noexcept {
  return b == 0 ? 0 : (std::uint64_t{1} << b);
}

class LatencyHistogram {
 public:
  // plglint: noexcept-hot-path
  void record(std::uint64_t ns) noexcept {
    buckets_[latency_bucket(ns)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Records `count` samples of `ns` each with one RMW — how the engine
  /// files a chunk's mean per-query time once per chunk.
  // plglint: noexcept-hot-path
  void record_n(std::uint64_t ns, std::uint64_t count) noexcept {
    buckets_[latency_bucket(ns)].fetch_add(count, std::memory_order_relaxed);
  }

  std::uint64_t bucket(int b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kLatencyBuckets] = {};
};

/// One worker's slot. alignas(64) prevents false sharing between
/// neighboring workers' counters (the histogram is already line-sized).
///
/// Relaxed-atomic contract — why these members carry no PLG_GUARDED_BY
/// and no mutex exists to name in one:
///
///   * Single writer: slot w is incremented only from pool worker w's
///     thread (the engine indexes metrics_.slot(worker) inside a job
///     pinned to that worker), so increments never contend. The engine
///     adds each chunk's totals once, when the chunk ends.
///   * Torn-read freedom is the only cross-thread requirement.
///     aggregate() may run on any thread concurrently with increments;
///     std::atomic<u64> guarantees each individual load is untorn, and
///     relaxed ordering is sufficient because no reader derives a
///     happens-before edge from these values — they are statistics, not
///     synchronization. A total that trails an in-flight increment by a
///     few counts is within a stats endpoint's precision.
///   * No invariant spans two counters (e.g. hits+misses == lookups is
///     only eventually true), so there is no multi-word state a lock
///     would be needed to make atomic.
///
/// Under the thread-safety analysis this type is therefore correct with
/// NO capability: adding a mutex here would put two atomic RMWs and a
/// lock on the per-chunk flush to protect data that needs neither. The
/// plglint `mutex-guard` rule keeps the inverse honest — if a future
/// change does add a mutex to this header, the build fails until
/// something is declared PLG_GUARDED_BY it.
struct alignas(64) WorkerMetrics {
  std::atomic<std::uint64_t> queries{0};        ///< requests answered
  std::atomic<std::uint64_t> batches{0};        ///< chunks executed
  std::atomic<std::uint64_t> positive{0};       ///< adjacent / within-f
  std::atomic<std::uint64_t> view_hits{0};      ///< answered from the bits
  std::atomic<std::uint64_t> corruptions{0};    ///< spot-check failures
  std::atomic<std::uint64_t> range_errors{0};   ///< id out of snapshot
  std::atomic<std::uint64_t> deadline_exceeded{0};  ///< queries cancelled
  std::atomic<std::uint64_t> quarantine_hits{0};    ///< hit quarantined shard
  /// Per-query execute time (ns): one sample per answered query, valued
  /// at its chunk's mean (the chunk's execute time / queries answered),
  /// so bucket totals equal `queries`. Excludes the chunk's reordering.
  LatencyHistogram latency;
};

/// Cross-thread counters that have no owning worker. Shed callbacks run
/// on whichever thread hit the full queue, and heal attempts run on the
/// healer thread — so unlike WorkerMetrics these are *multi*-writer.
/// Still lock-free and relaxed for the same reason as above: they are
/// statistics with no invariant spanning two counters, and fetch_add is
/// atomic regardless of how many writers contend. The cost model
/// differs, though: these RMWs can bounce a cache line between cores,
/// which is acceptable precisely because they count *exceptional* events
/// (shedding, healing), never the per-query hot path.
struct SharedCounters {
  std::atomic<std::uint64_t> shed_chunks{0};     ///< chunks load-shed
  std::atomic<std::uint64_t> shed_queries{0};    ///< queries in shed chunks
  std::atomic<std::uint64_t> heal_attempts{0};   ///< shard heal tries
  std::atomic<std::uint64_t> heal_successes{0};  ///< shards re-admitted
};

/// Connection-plane counters for the TCP front-end (NetServer). Owned by
/// the server, not the engine: a stdin-served process has no connection
/// plane and reports all-zero. Multi-writer relaxed atomics by the same
/// contract as SharedCounters — bytes_in/out and frame counts are
/// bumped from the event-loop thread, rejected_admission from whichever
/// dispatcher hit the full queue, and the stats aggregation may read
/// concurrently from any thread.
struct NetCounters {
  std::atomic<std::uint64_t> accepted{0};        ///< connections admitted
  std::atomic<std::uint64_t> rejected_accept{0};  ///< closed at accept (caps)
  std::atomic<std::uint64_t> rejected_admission{0};  ///< frames shed in-band
  std::atomic<std::uint64_t> protocol_errors{0};  ///< malformed frames
  std::atomic<std::uint64_t> timeouts_idle{0};    ///< idle-timeout closes
  std::atomic<std::uint64_t> timeouts_write{0};   ///< write-stall closes
  std::atomic<std::uint64_t> frames_in{0};        ///< request frames parsed
  std::atomic<std::uint64_t> frames_out{0};       ///< response frames sent
  std::atomic<std::uint64_t> bytes_in{0};         ///< socket bytes read
  std::atomic<std::uint64_t> bytes_out{0};        ///< socket bytes written
  std::atomic<std::uint64_t> accept_errors{0};    ///< accept() hard errors
};

/// Plain-value aggregate of every worker slot at one instant.
struct ServiceStats {
  std::uint64_t workers = 0;
  std::uint64_t queries = 0;
  std::uint64_t batches = 0;
  std::uint64_t positive = 0;
  std::uint64_t view_hits = 0;
  // Always 0: kept only because bench/stack still reads them.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t range_errors = 0;
  std::uint64_t shed_chunks = 0;
  std::uint64_t shed_queries = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t quarantine_hits = 0;
  std::uint64_t heal_attempts = 0;
  std::uint64_t heal_successes = 0;
  std::uint64_t quarantined_shards = 0;
  std::uint64_t snapshot_generation = 0;
  std::uint64_t snapshot_labels = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t snapshot_shards = 0;

  // Connection-plane totals (all zero unless served over TCP; filled by
  // NetServer::stats from its NetCounters).
  std::uint64_t net_accepted = 0;
  std::uint64_t net_rejected_accept = 0;
  std::uint64_t net_rejected_admission = 0;
  std::uint64_t net_protocol_errors = 0;
  std::uint64_t net_timeouts_idle = 0;
  std::uint64_t net_timeouts_write = 0;
  std::uint64_t net_frames_in = 0;
  std::uint64_t net_frames_out = 0;
  std::uint64_t net_bytes_in = 0;
  std::uint64_t net_bytes_out = 0;
  std::uint64_t net_open_connections = 0;

  std::uint64_t latency_buckets[kLatencyBuckets] = {};

  /// Copies one point-in-time read of `net` into the net_* fields.
  void fill_net(const NetCounters& net, std::uint64_t open_connections);

  /// Bucket-resolution quantile: lower bound (ns) of the bucket holding
  /// the q-quantile sample (q in [0,1]). 0 when no samples recorded.
  std::uint64_t latency_quantile_ns(double q) const noexcept;

  /// Serializes the whole report as a single-line JSON object (the
  /// `plgtool serve` STATS reply and the bench artifact schema).
  std::string to_json() const;
};

/// The registry: fixed worker count, slots allocated once, no resizing —
/// pointers into it stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(unsigned workers) : slots_(workers) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  WorkerMetrics& slot(unsigned worker) noexcept { return slots_[worker]; }
  unsigned workers() const noexcept {
    return static_cast<unsigned>(slots_.size());
  }

  /// The multi-writer exceptional-event counters (see SharedCounters).
  SharedCounters& shared() noexcept { return shared_; }
  const SharedCounters& shared() const noexcept { return shared_; }

  /// Cold-path aggregation across all worker slots. Lock-free by the
  /// WorkerMetrics relaxed-atomic contract above: every load is an
  /// untorn relaxed atomic read, and the result is a point-in-time
  /// estimate, not a linearizable snapshot. Safe to call from any
  /// thread, concurrently with serving.
  ServiceStats aggregate() const;

 private:
  std::vector<WorkerMetrics> slots_;
  SharedCounters shared_;
};

}  // namespace plg::service
