#include "cluster/policy.h"

#include <algorithm>

#include "util/random.h"

namespace plg::cluster {

std::uint32_t backoff_ms(const RetryPolicy& p, std::uint64_t stream,
                         std::uint32_t retry_index) {
  if (retry_index == 0) return 0;
  const std::uint32_t base = std::max<std::uint32_t>(1, p.base_ms);
  const std::uint32_t cap = std::max<std::uint32_t>(base, p.max_ms);
  // base * 2^(k-1), saturating at the cap (shift bounded to avoid UB).
  const std::uint32_t shift = std::min<std::uint32_t>(retry_index - 1, 20);
  const std::uint64_t raw = std::uint64_t{base} << shift;
  const std::uint64_t capped = std::min<std::uint64_t>(raw, cap);
  // +-50% jitter, deterministic per (seed, stream, retry_index): the
  // rng stream is keyed by node, and we discard retry_index-1 draws so
  // consecutive retries see successive values of one stream.
  Rng rng = stream_rng(p.seed, stream);
  for (std::uint32_t i = 1; i < retry_index; ++i) rng();
  const std::uint64_t span = std::max<std::uint64_t>(1, capped);
  const std::uint64_t jitter = rng.next_below(span);  // [0, capped)
  return static_cast<std::uint32_t>(capped / 2 + jitter / 2 + 1);
}

bool retriable_code(service::wire::ResultCode c) noexcept {
  switch (c) {
    case service::wire::ResultCode::kOverloaded:
      return true;
    case service::wire::ResultCode::kNo:
    case service::wire::ResultCode::kYes:
    case service::wire::ResultCode::kRange:
    case service::wire::ResultCode::kCorrupt:
    case service::wire::ResultCode::kDeadline:
    case service::wire::ResultCode::kUnavailable:
      return false;
  }
  return false;
}

bool retriable_frame_status(service::wire::FrameStatus s) noexcept {
  switch (s) {
    case service::wire::FrameStatus::kShutdown:
    case service::wire::FrameStatus::kOverCapacity:
      return true;
    case service::wire::FrameStatus::kOk:
    case service::wire::FrameStatus::kWrongScheme:
    case service::wire::FrameStatus::kBadVerb:
    case service::wire::FrameStatus::kBadMagic:
    case service::wire::FrameStatus::kBadVersion:
    case service::wire::FrameStatus::kBadReserved:
    case service::wire::FrameStatus::kOversize:
    case service::wire::FrameStatus::kBadPayload:
      return false;
  }
  return false;
}

std::uint64_t hedge_delay_ns(const HedgePolicy& p,
                             const service::LatencyHistogram& hist) {
  const std::uint64_t floor_ns = p.min_us * 1000;
  const std::uint64_t cap_ns = std::max(p.max_us * 1000, floor_ns);
  std::uint64_t buckets[service::kLatencyBuckets] = {};
  hist.add_to(buckets);
  std::uint64_t samples = 0;
  for (const std::uint64_t c : buckets) samples += c;
  if (samples == 0 || samples < p.warmup_samples) return cap_ns;
  // Upper bound of the quantile's bucket: "slower than virtually all of
  // this node's answers" — the natural moment to suspect a straggler.
  const std::uint64_t lo = service::latency_quantile_ns(buckets, p.quantile);
  const std::uint64_t est = lo == 0 ? 1 : lo * 2;
  return std::clamp(est, floor_ns, cap_ns);
}

const char* node_state_name(NodeState s) noexcept {
  switch (s) {
    case NodeState::kHealthy:
      return "healthy";
    case NodeState::kSuspect:
      return "suspect";
    case NodeState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

NodeHealth::NodeHealth(std::uint32_t suspect_after,
                       std::uint32_t quarantine_after)
    : suspect_after_(std::max<std::uint32_t>(1, suspect_after)),
      quarantine_after_(
          std::max(std::max<std::uint32_t>(1, suspect_after),
                   std::max<std::uint32_t>(1, quarantine_after))) {}

HealthEvent NodeHealth::record_failure() noexcept {
  if (fails_ < UINT32_MAX) ++fails_;
  switch (state_) {
    case NodeState::kHealthy:
      if (fails_ >= quarantine_after_) {
        state_ = NodeState::kQuarantined;
        return HealthEvent::kBecameQuarantined;
      }
      if (fails_ >= suspect_after_) {
        state_ = NodeState::kSuspect;
        return HealthEvent::kBecameSuspect;
      }
      return HealthEvent::kNone;
    case NodeState::kSuspect:
      if (fails_ >= quarantine_after_) {
        state_ = NodeState::kQuarantined;
        return HealthEvent::kBecameQuarantined;
      }
      return HealthEvent::kNone;
    case NodeState::kQuarantined:
      return HealthEvent::kNone;
  }
  return HealthEvent::kNone;
}

HealthEvent NodeHealth::record_success() noexcept {
  fails_ = 0;
  if (state_ == NodeState::kHealthy) return HealthEvent::kNone;
  state_ = NodeState::kHealthy;
  return HealthEvent::kRecovered;
}

}  // namespace plg::cluster
