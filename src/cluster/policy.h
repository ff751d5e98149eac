// Pure decision logic for the scatter/gather router: retry
// classification, capped exponential backoff with deterministic jitter,
// adaptive hedge delays, and the per-node health state machine.
//
// Everything here is socket-free and side-effect-free (NodeHealth is a
// plain value the router guards with its per-node mutex), so the whole
// failure matrix is unit-testable with no servers, no threads, and no
// clocks — the seeded-deterministic tests assert exact backoff
// schedules and exact state transitions.
//
// The backoff and probe schedules reuse the self-healer's recipe
// (engine.h): capped exponential growth with jitter drawn from
// stream_rng(seed, stream), so a fixed seed reproduces the same retry
// timing in every run — chaos tests stay deterministic.
#pragma once

#include <cstdint>

#include "service/frame.h"
#include "service/metrics.h"

namespace plg::cluster {

// ------------------------------------------------------------- retries

struct RetryPolicy {
  /// Total tries per sub-batch, first attempt included.
  std::uint32_t max_attempts = 3;
  std::uint32_t base_ms = 1;  ///< backoff before the first retry
  std::uint32_t max_ms = 50;  ///< backoff cap
  std::uint64_t seed = 0x5eed;
};

/// Backoff before retry `retry_index` (1-based: the sleep before the
/// second attempt is retry_index 1). Capped exponential doubling of
/// base_ms with +-50% jitter from stream_rng(seed, stream) — `stream`
/// is the node index, so different nodes' retry storms decorrelate
/// while a fixed seed reproduces the exact schedule.
std::uint32_t backoff_ms(const RetryPolicy& p, std::uint64_t stream,
                         std::uint32_t retry_index);

/// In-band result codes worth re-asking another replica: only
/// kOverloaded (admission shed — another replica may have capacity).
/// kCorrupt / kRange / kDeadline / kUnavailable would fail identically
/// or have already consumed the budget.
bool retriable_code(service::wire::ResultCode c) noexcept;

/// Error-frame statuses worth re-asking another replica: shutdown and
/// over-capacity are node-local, transient conditions; protocol-level
/// rejects (bad magic and friends) mean the router itself misbehaved
/// and retrying elsewhere would just spread the damage.
bool retriable_frame_status(service::wire::FrameStatus s) noexcept;

// ------------------------------------------------------------- hedging

struct HedgePolicy {
  bool enabled = true;
  /// Hedge-delay clamp, in microseconds. The adaptive delay (per-node
  /// latency quantile) is clamped into [min_us, max_us]: the floor
  /// keeps loopback-fast nodes from hedging every request, the ceiling
  /// bounds how long a SIGSTOP'd straggler can hold a query hostage.
  std::uint64_t min_us = 200;
  std::uint64_t max_us = 50'000;
  double quantile = 0.95;
  /// Below this many recorded samples the node's histogram is noise;
  /// use max_us (hedge late, conservatively) until it warms up.
  std::uint64_t warmup_samples = 16;
};

/// Adaptive hedge delay in nanoseconds for a node whose completed
/// exchanges populated `hist` (its bucket total is the sample count the
/// warm-up checks). The quantile is bucket-resolution (2x error), which
/// is plenty: the hedge delay only needs to separate "typical" from
/// "stuck".
std::uint64_t hedge_delay_ns(const HedgePolicy& p,
                             const service::LatencyHistogram& hist);

// ------------------------------------------------- health state machine

/// Router-side node health: healthy -> suspect -> quarantined on
/// consecutive failures, reset to healthy by any success (the router's
/// own traffic or a background probe).
// plglint: exhaustive-switch
enum class NodeState : std::uint8_t {
  kHealthy = 0,
  kSuspect = 1,      ///< failing, still routable (deprioritized)
  kQuarantined = 2,  ///< not routed; only the prober talks to it
};

/// Transition produced by recording one observation.
// plglint: exhaustive-switch
enum class HealthEvent : std::uint8_t {
  kNone = 0,
  kBecameSuspect = 1,
  kBecameQuarantined = 2,
  kRecovered = 3,  ///< left suspect/quarantined for healthy
};

const char* node_state_name(NodeState s) noexcept;

/// Plain value; NOT thread-safe — the router guards each node's
/// instance with that node's mutex.
class NodeHealth {
 public:
  /// `suspect_after` / `quarantine_after`: consecutive failures that
  /// trigger each demotion (suspect_after <= quarantine_after; both
  /// >= 1 enforced by clamping).
  NodeHealth(std::uint32_t suspect_after, std::uint32_t quarantine_after);
  NodeHealth() : NodeHealth(1, 3) {}

  HealthEvent record_failure() noexcept;
  HealthEvent record_success() noexcept;

  NodeState state() const noexcept { return state_; }
  std::uint32_t consecutive_failures() const noexcept { return fails_; }

 private:
  std::uint32_t suspect_after_;
  std::uint32_t quarantine_after_;
  std::uint32_t fails_ = 0;
  NodeState state_ = NodeState::kHealthy;
};

}  // namespace plg::cluster
