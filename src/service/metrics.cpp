#include "service/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace plg::service {

std::uint64_t latency_quantile_ns(
    const std::uint64_t (&buckets)[kLatencyBuckets], double q) noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t c : buckets) total += c;
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the quantile sample, 1-based; walk buckets until covered.
  const std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(total - 1)) + 1;
  std::uint64_t seen = 0;
  for (int b = 0; b < kLatencyBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) return latency_bucket_floor(b);
  }
  return latency_bucket_floor(kLatencyBuckets - 1);
}

void append_latency_json(std::string& out,
                         const std::uint64_t (&buckets)[kLatencyBuckets]) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"latency_ns\":{\"p50\":%" PRIu64 ",\"p90\":%" PRIu64
                ",\"p99\":%" PRIu64 "},\"latency_hist\":[",
                latency_quantile_ns(buckets, 0.50),
                latency_quantile_ns(buckets, 0.90),
                latency_quantile_ns(buckets, 0.99));
  out += buf;
  // Emit the histogram sparsely as [bucket_floor_ns, count] pairs; most of
  // the 64 buckets are empty and a dense dump would bury the signal.
  bool first = true;
  for (int b = 0; b < kLatencyBuckets; ++b) {
    if (buckets[b] == 0) continue;
    std::snprintf(buf, sizeof(buf), "%s[%" PRIu64 ",%" PRIu64 "]",
                  first ? "" : ",", latency_bucket_floor(b), buckets[b]);
    out += buf;
    first = false;
  }
  out += ']';
}

ServiceStats MetricsRegistry::aggregate() const {
  ServiceStats out;
  out.workers = slots_.size();
  for (const WorkerMetrics& w : slots_) {
    out.queries += w.queries.load(std::memory_order_relaxed);
    out.batches += w.batches.load(std::memory_order_relaxed);
    out.positive += w.positive.load(std::memory_order_relaxed);
    out.view_hits += w.view_hits.load(std::memory_order_relaxed);
    out.corruptions += w.corruptions.load(std::memory_order_relaxed);
    out.range_errors += w.range_errors.load(std::memory_order_relaxed);
    out.deadline_exceeded +=
        w.deadline_exceeded.load(std::memory_order_relaxed);
    out.quarantine_hits += w.quarantine_hits.load(std::memory_order_relaxed);
    w.latency.add_to(out.latency_buckets);
  }
  out.shed_chunks = shared_.shed_chunks.load(std::memory_order_relaxed);
  out.shed_queries = shared_.shed_queries.load(std::memory_order_relaxed);
  out.heal_attempts = shared_.heal_attempts.load(std::memory_order_relaxed);
  out.heal_successes =
      shared_.heal_successes.load(std::memory_order_relaxed);
  return out;
}

std::string NetCounters::to_json() const {
  const auto get = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"accepted\":%" PRIu64 ",\"open\":%" PRIu64
      ",\"rejected_accept\":%" PRIu64 ",\"accept_errors\":%" PRIu64
      ",\"rejected_admission\":%" PRIu64
      ",\"protocol_errors\":%" PRIu64 ",\"timeouts_idle\":%" PRIu64
      ",\"timeouts_write\":%" PRIu64 ",\"frames_in\":%" PRIu64
      ",\"frames_out\":%" PRIu64 ",\"bytes_in\":%" PRIu64
      ",\"bytes_out\":%" PRIu64 "}",
      get(accepted), get(open), get(rejected_accept), get(accept_errors),
      get(rejected_admission), get(protocol_errors), get(timeouts_idle),
      get(timeouts_write), get(frames_in), get(frames_out), get(bytes_in),
      get(bytes_out));
  return buf;
}

std::string ServiceStats::to_json() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workers\":%" PRIu64 ",\"queries\":%" PRIu64 ",\"batches\":%" PRIu64
      ",\"positive\":%" PRIu64 ",\"view_hits\":%" PRIu64
      ",\"corruptions\":%" PRIu64 ",\"range_errors\":%" PRIu64
      ",\"shed_chunks\":%" PRIu64 ",\"shed_queries\":%" PRIu64
      ",\"deadline_exceeded\":%" PRIu64
      ",\"quarantine_hits\":%" PRIu64 ",\"heal_attempts\":%" PRIu64
      ",\"heal_successes\":%" PRIu64 ",\"snapshot\":{\"generation\":%" PRIu64
      ",\"labels\":%" PRIu64 ",\"bytes\":%" PRIu64 ",\"shards\":%" PRIu64
      ",\"quarantined\":%" PRIu64 "},",
      workers, queries, batches, positive, view_hits, corruptions,
      range_errors, shed_chunks, shed_queries, deadline_exceeded,
      quarantine_hits, heal_attempts, heal_successes, snapshot_generation,
      snapshot_labels, snapshot_bytes, snapshot_shards, quarantined_shards);
  std::string json(buf);
  append_latency_json(json, latency_buckets);
  json += '}';
  return json;
}

}  // namespace plg::service
