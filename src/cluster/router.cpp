#include "cluster/router.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <latch>
#include <map>
#include <utility>

namespace plg::cluster {

namespace {

using service::BatchOptions;
using service::QueryRequest;
using service::QueryResult;
using service::QueryStatus;
namespace wire = service::wire;

using Clock = std::chrono::steady_clock;

std::uint32_t ms_until(Clock::time_point deadline, Clock::time_point t) {
  if (deadline <= t) return 0;
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - t)
          .count();
  // +1 rounds up: a sub-millisecond remainder still buys one tick.
  return left >= 1'000'000 ? 1'000'000u
                           : static_cast<std::uint32_t>(left) + 1;
}

/// One per-query wire code -> engine result. False on a code byte this
/// protocol version does not define (protocol error; the connection's
/// stream can no longer be trusted).
bool decode_code(std::uint8_t byte, std::int64_t dist_value,
                 QueryResult& out) noexcept {
  if (byte > static_cast<std::uint8_t>(wire::ResultCode::kUnavailable)) {
    return false;
  }
  out = QueryResult{};
  switch (static_cast<wire::ResultCode>(byte)) {
    case wire::ResultCode::kNo:
      out.status = QueryStatus::kOk;
      out.adjacent = false;
      out.distance = -1;
      return true;
    case wire::ResultCode::kYes:
      out.status = QueryStatus::kOk;
      out.adjacent = true;
      out.distance = dist_value;
      return true;
    case wire::ResultCode::kRange:
      out.status = QueryStatus::kOutOfRange;
      return true;
    case wire::ResultCode::kCorrupt:
      out.status = QueryStatus::kCorrupt;
      return true;
    case wire::ResultCode::kOverloaded:
      out.status = QueryStatus::kOverloaded;
      return true;
    case wire::ResultCode::kDeadline:
      out.status = QueryStatus::kDeadlineExceeded;
      return true;
    case wire::ResultCode::kUnavailable:
      out.status = QueryStatus::kUnavailable;
      return true;
  }
  return false;
}

}  // namespace

Router::Router(ClusterConfig cfg, RouterOptions opt)
    : cfg_(std::move(cfg)),
      opt_(opt),
      pool_(service::PoolOptions{opt.flow_threads, 0,
                                 service::ShedPolicy::kRejectNew}) {
  cfg_.validate();
  pref_ = cfg_.preference_lists();
  nodes_.reserve(cfg_.nodes.size());
  for (const NodeEndpoint& ep : cfg_.nodes) {
    auto n = std::make_unique<Node>();
    n->ep = ep;
    {
      util::MutexLock lk(n->mu);
      n->health = NodeHealth(opt_.suspect_after, opt_.quarantine_after);
    }
    nodes_.push_back(std::move(n));
  }
  if (opt_.probe) prober_ = std::thread(&Router::prober_main, this);
}

Router::~Router() {
  {
    util::MutexLock lk(probe_mu_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
  drain();
}

std::vector<QueryResult> Router::query_batch(
    const std::vector<QueryRequest>& batch, const BatchOptions& bopt) {
  {
    util::MutexLock lk(drain_mu_);
    ++active_batches_;
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  queries_.fetch_add(batch.size(), std::memory_order_relaxed);

  std::vector<QueryResult> results(batch.size());
  const Clock::time_point overall =
      bopt.deadline ? *bopt.deadline
                    : now() + std::chrono::milliseconds(opt_.batch_budget_ms);

  // Group queries by eligible-node signature: one flow per distinct
  // owners(u) ∩ owners(v), so an exchange asks one node exactly the
  // queries it can answer.
  std::map<std::vector<std::uint32_t>, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::vector<std::uint32_t>& a = pref_[cfg_.shard_of(batch[i].u)];
    const std::vector<std::uint32_t>& b = pref_[cfg_.shard_of(batch[i].v)];
    std::vector<std::uint32_t> sig;
    sig.reserve(a.size());
    for (const std::uint32_t nd : a) {
      if (std::find(b.begin(), b.end(), nd) != b.end()) sig.push_back(nd);
    }
    groups[sig].push_back(i);
  }
  std::vector<Flow> flows;
  flows.reserve(groups.size());
  for (auto& [sig, idx] : groups) {
    flows.push_back(Flow{sig, std::move(idx)});
  }

  if (flows.size() == 1) {
    run_flow(batch, flows[0], overall, results);
  } else if (!flows.empty()) {
    // Scatter flows across the worker pool; the latch lives on this
    // stack frame and outlives every job (we wait before returning).
    std::latch done(static_cast<std::ptrdiff_t>(flows.size()));
    for (const Flow& f : flows) {
      const unsigned w = next_worker_.fetch_add(1, std::memory_order_relaxed);
      pool_.submit(w, [this, &batch, &f, overall, &results, &done] {
        run_flow(batch, f, overall, results);
        done.count_down();
      });
    }
    done.wait();
  }

  {
    util::MutexLock lk(drain_mu_);
    --active_batches_;
  }
  drain_cv_.notify_all();
  return results;
}

void Router::run_flow(const std::vector<QueryRequest>& batch, const Flow& flow,
                      Clock::time_point overall_deadline,
                      std::vector<QueryResult>& results) {
  // Degradation default: a slot nothing answers reads kUnavailable, so
  // the batch is always fully written no matter which path exits.
  for (const std::size_t i : flow.idx) {
    results[i] = QueryResult{};
    results[i].status = QueryStatus::kUnavailable;
  }

  std::vector<std::size_t> pending = flow.idx;
  std::uint32_t rotation = 0;
  for (std::uint32_t attempt = 0;
       attempt < opt_.retry.max_attempts && !pending.empty(); ++attempt) {
    if (now() >= overall_deadline) break;
    const int primary = pick_node(flow, rotation);
    if (primary < 0) break;  // every eligible replica is quarantined
    if (attempt > 0) {
      nodes_[static_cast<std::size_t>(primary)]->retries.fetch_add(
          1, std::memory_order_relaxed);
      const std::uint32_t sleep_ms = backoff_ms(
          opt_.retry, static_cast<std::uint64_t>(primary), attempt);
      const Clock::time_point wake = std::min(
          overall_deadline, now() + std::chrono::milliseconds(sleep_ms));
      std::this_thread::sleep_until(wake);
      if (now() >= overall_deadline) break;
    }
    const Clock::time_point per_try = std::min(
        overall_deadline, now() + std::chrono::milliseconds(opt_.per_try_ms));
    ExchangeOutcome out = exchange(batch, pending,
                                   static_cast<std::uint32_t>(primary), flow,
                                   per_try, results);
    ++rotation;
    if (out.answered) pending = std::move(out.overloaded);
  }

  if (pending.empty()) return;
  if (now() >= overall_deadline) {
    std::uint64_t marked = 0;
    for (const std::size_t i : pending) {
      if (results[i].status == QueryStatus::kUnavailable) {
        results[i].status = QueryStatus::kDeadlineExceeded;
        ++marked;
      }
    }
    deadline_exceeded_.fetch_add(marked, std::memory_order_relaxed);
    return;
  }
  // Replicas exhausted with time to spare: the key range is genuinely
  // unreachable right now. Count the slots still carrying the default.
  std::uint64_t marked = 0;
  for (const std::size_t i : pending) {
    if (results[i].status == QueryStatus::kUnavailable) ++marked;
  }
  unavailable_.fetch_add(marked, std::memory_order_relaxed);
}

int Router::pick_node(const Flow& flow, std::uint32_t start,
                      int exclude) const {
  const std::size_t k = flow.nodes.size();
  int suspect = -1;
  for (std::size_t step = 0; step < k; ++step) {
    const std::uint32_t nd = flow.nodes[(start + step) % k];
    if (static_cast<int>(nd) == exclude) continue;
    NodeState st;
    {
      util::MutexLock lk(nodes_[nd]->mu);
      st = nodes_[nd]->health.state();
    }
    if (st == NodeState::kHealthy) return static_cast<int>(nd);
    if (st == NodeState::kSuspect && suspect < 0) {
      suspect = static_cast<int>(nd);
    }
  }
  return suspect;
}

std::optional<Router::PooledConn> Router::acquire_conn(
    Node& n, std::uint32_t timeout_ms) {
  {
    util::MutexLock lk(n.mu);
    if (!n.idle.empty()) {
      PooledConn c = std::move(n.idle.back());
      n.idle.pop_back();
      return c;
    }
  }
  PooledConn c;
  c.client.set_timeout_ms(timeout_ms == 0 ? 1 : timeout_ms);
  if (!c.client.connect(n.ep.port, n.ep.host)) return std::nullopt;
  return c;
}

void Router::release_conn(Node& n, PooledConn&& conn) {
  conn.client.set_timeout_ms(0);  // pool default; callers re-arm per use
  {
    util::MutexLock lk(n.mu);
    if (n.idle.size() < opt_.pool_cap) {
      n.idle.push_back(std::move(conn));
      return;
    }
  }
  conn.client.close();
}

void Router::record_outcome(std::uint32_t node, bool success) {
  Node& n = *nodes_[node];
  HealthEvent ev;
  {
    util::MutexLock lk(n.mu);
    ev = success ? n.health.record_success() : n.health.record_failure();
    if (ev == HealthEvent::kBecameQuarantined) {
      n.next_probe = now();
      n.probe_fails = 0;
    }
  }
  switch (ev) {
    case HealthEvent::kNone:
      break;
    case HealthEvent::kBecameSuspect:
      n.to_suspect.fetch_add(1, std::memory_order_relaxed);
      break;
    case HealthEvent::kBecameQuarantined:
      n.to_quarantined.fetch_add(1, std::memory_order_relaxed);
      {
        util::MutexLock lk(probe_mu_);
        probe_poke_ = true;
      }
      probe_cv_.notify_all();
      break;
    case HealthEvent::kRecovered:
      n.recovered.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

bool Router::pump_arm(Arm& a) {
  std::uint8_t tmp[4096];
  for (;;) {
    const ssize_t r =
        ::recv(a.conn->client.fd(), tmp, sizeof(tmp), MSG_DONTWAIT);
    if (r > 0) {
      a.buf.insert(a.buf.end(), tmp, tmp + r);
      continue;
    }
    if (r == 0) return false;  // orderly close mid-response
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

Router::ArmFrame Router::arm_frame(const Arm& a,
                                   wire::FrameHeader& hdr) const {
  if (a.buf.size() < wire::kHeaderSize) return ArmFrame::kNeedMore;
  const wire::HeaderError err =
      wire::decode_header(a.buf.data(), a.buf.size(), opt_.max_frame_payload,
                          hdr, /*require_request=*/false);
  if (err != wire::HeaderError::kOk && err != wire::HeaderError::kNeedMore) {
    return ArmFrame::kMalformed;
  }
  if (err == wire::HeaderError::kNeedMore) return ArmFrame::kNeedMore;
  const std::size_t need = wire::kHeaderSize + hdr.length;
  if (a.buf.size() < need) return ArmFrame::kNeedMore;
  // Exactly one response may be in flight per connection; surplus bytes
  // mean the peer broke the request/response rhythm.
  return a.buf.size() == need ? ArmFrame::kComplete : ArmFrame::kMalformed;
}

Router::ExchangeOutcome Router::exchange(
    const std::vector<QueryRequest>& batch,
    const std::vector<std::size_t>& asked, std::uint32_t primary,
    const Flow& flow, Clock::time_point deadline,
    std::vector<QueryResult>& results) {
  ExchangeOutcome out;
  const wire::Verb verb = opt_.kind == service::QueryKind::kAdjacency
                              ? wire::Verb::kAdjBatch
                              : wire::Verb::kDistBatch;

  std::vector<std::pair<std::uint64_t, std::uint64_t>> qs;
  qs.reserve(asked.size());
  for (const std::size_t i : asked) qs.emplace_back(batch[i].u, batch[i].v);

  // Opens a connection to `node`, sends the sub-batch, and arms the
  // response reader. Any failure is recorded against the node's health.
  auto start_arm = [&](std::uint32_t node, bool is_hedge, Arm& arm) -> bool {
    Node& n = *nodes_[node];
    const std::uint32_t left_ms = ms_until(deadline, now());
    if (left_ms == 0) return false;
    std::optional<PooledConn> conn = acquire_conn(
        n, std::min(opt_.connect_timeout_ms == 0 ? 1 : opt_.connect_timeout_ms,
                    left_ms));
    if (!conn) {
      n.transport_errors.fetch_add(1, std::memory_order_relaxed);
      record_outcome(node, false);
      return false;
    }
    arm.node = node;
    arm.is_hedge = is_hedge;
    arm.request_id = conn->next_request_id++;
    std::vector<std::uint8_t> frame;
    wire::put_batch_request(frame, verb, arm.request_id, qs.data(), qs.size());
    if (!conn->client.send_bytes_until(frame, deadline)) {
      conn->client.close();
      n.transport_errors.fetch_add(1, std::memory_order_relaxed);
      record_outcome(node, false);
      return false;
    }
    n.sent.fetch_add(1, std::memory_order_relaxed);
    if (is_hedge) n.hedges.fetch_add(1, std::memory_order_relaxed);
    arm.conn = std::move(*conn);
    arm.sent_at = now();
    return true;
  };

  // Decodes a winner's kOk payload into the result slots. False on a
  // size or code-byte violation (protocol error).
  auto decode_and_fill = [&](const std::uint8_t* payload,
                             std::uint32_t length) -> bool {
    const std::size_t nq = asked.size();
    if (verb == wire::Verb::kAdjBatch) {
      if (length != nq) return false;
    } else if (length != nq * wire::kDistRecordSize) {
      return false;
    }
    std::vector<std::size_t> overloaded;
    for (std::size_t q = 0; q < nq; ++q) {
      std::uint8_t code;
      std::int64_t dist = -1;
      if (verb == wire::Verb::kAdjBatch) {
        code = payload[q];
      } else {
        code = payload[q * wire::kDistRecordSize];
        dist = static_cast<std::int64_t>(
            wire::get_u64(payload + q * wire::kDistRecordSize + 1));
      }
      QueryResult r;
      if (!decode_code(code, dist, r)) return false;
      if (r.status == QueryStatus::kOverloaded) overloaded.push_back(asked[q]);
      results[asked[q]] = r;
    }
    out.overloaded = std::move(overloaded);
    return true;
  };

  std::vector<Arm> arms;
  {
    Arm a;
    if (!start_arm(primary, false, a)) return out;  // caller retries
    arms.push_back(std::move(a));
  }

  // Hedge schedule: adaptive delay from the primary's latency history.
  Node& pn = *nodes_[primary];
  Clock::time_point hedge_at = Clock::time_point::max();
  int hedge_node = -1;
  if (opt_.hedge.enabled && flow.nodes.size() > 1) {
    hedge_node = pick_node(flow, 0, static_cast<int>(primary));
    if (hedge_node >= 0) {
      const std::uint64_t delay_ns = hedge_delay_ns(opt_.hedge, pn.latency);
      hedge_at = arms[0].sent_at + std::chrono::nanoseconds(delay_ns);
    }
  }

  bool hedge_fired = false;
  while (!arms.empty()) {
    const Clock::time_point t = now();
    if (t >= deadline) break;  // surviving arms timed out
    Clock::time_point wake = deadline;
    if (!hedge_fired && hedge_node >= 0 && hedge_at < wake) wake = hedge_at;

    pollfd pfds[2] = {};
    const nfds_t cnt = static_cast<nfds_t>(arms.size());
    for (std::size_t i = 0; i < arms.size() && i < 2; ++i) {
      pfds[i].fd = arms[i].conn->client.fd();
      pfds[i].events = POLLIN;
    }
    const int rc = ::poll(pfds, cnt, static_cast<int>(ms_until(wake, t)));
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }

    std::vector<std::size_t> dead;
    for (std::size_t i = 0; i < arms.size() && i < 2; ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Arm& a = arms[i];
      Node& n = *nodes_[a.node];
      if (!pump_arm(a)) {
        n.transport_errors.fetch_add(1, std::memory_order_relaxed);
        record_outcome(a.node, false);
        a.conn->client.close();
        dead.push_back(i);
        continue;
      }
      wire::FrameHeader hdr;
      const ArmFrame st = arm_frame(a, hdr);
      if (st == ArmFrame::kNeedMore) continue;
      bool protocol_bad = st == ArmFrame::kMalformed;
      bool retriable_error = false;
      if (!protocol_bad) {
        // Correlation check FIRST, error frames included: a frame that
        // does not echo this connection's in-flight id must never be
        // matched against the hedged pair.
        if (hdr.request_id != a.request_id ||
            (hdr.verb != verb && hdr.verb != wire::Verb::kError)) {
          protocol_bad = true;
        } else if (hdr.verb == wire::Verb::kError) {
          retriable_error = retriable_frame_status(
              static_cast<wire::FrameStatus>(hdr.status));
          protocol_bad = !retriable_error;
        } else if (hdr.status !=
                   static_cast<std::uint8_t>(wire::FrameStatus::kOk)) {
          protocol_bad = true;
        } else if (!decode_and_fill(a.buf.data() + wire::kHeaderSize,
                                    hdr.length)) {
          protocol_bad = true;
        } else {
          // Winner: id-verified complete kOk response.
          n.ok.fetch_add(1, std::memory_order_relaxed);
          const std::uint64_t lat_ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  now() - a.sent_at)
                  .count());
          n.latency.record(lat_ns);
          record_outcome(a.node, true);
          if (a.is_hedge) n.hedge_wins.fetch_add(1, std::memory_order_relaxed);
          release_conn(n, std::move(*a.conn));
          a.conn.reset();
          // The loser's response may still be in flight on its
          // connection; it can never be reused for a fresh request.
          for (Arm& other : arms) {
            if (other.conn) other.conn->client.close();
          }
          out.answered = true;
          return out;
        }
      }
      if (protocol_bad) {
        n.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      } else {
        n.transport_errors.fetch_add(1, std::memory_order_relaxed);
      }
      record_outcome(a.node, false);
      a.conn->client.close();
      dead.push_back(i);
    }
    for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
      arms.erase(arms.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    if (arms.empty()) break;

    if (!hedge_fired && hedge_node >= 0 && now() >= hedge_at) {
      hedge_fired = true;
      Arm h;
      if (start_arm(static_cast<std::uint32_t>(hedge_node), true, h)) {
        arms.push_back(std::move(h));
      }
    }
  }

  // Deadline (or poll failure) with arms still in flight: every
  // survivor is a timeout against its node.
  for (Arm& a : arms) {
    Node& n = *nodes_[a.node];
    n.timeouts.fetch_add(1, std::memory_order_relaxed);
    record_outcome(a.node, false);
    if (a.conn) a.conn->client.close();
  }
  return out;
}

void Router::prober_main() {
  for (;;) {
    bool any_quarantined = false;
    for (const std::unique_ptr<Node>& n : nodes_) {
      util::MutexLock lk(n->mu);
      if (n->health.state() == NodeState::kQuarantined) {
        any_quarantined = true;
        break;
      }
    }
    {
      util::MutexLock lk(probe_mu_);
      if (probe_stop_) return;
      if (!probe_poke_) {
        if (any_quarantined) {
          lk.wait_for(probe_cv_,
                      std::chrono::milliseconds(
                          opt_.probe_tick_ms == 0 ? 1 : opt_.probe_tick_ms));
        } else {
          lk.wait(probe_cv_);
        }
      }
      probe_poke_ = false;
      if (probe_stop_) return;
    }
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      Node& n = *nodes_[i];
      bool due = false;
      {
        util::MutexLock lk(n.mu);
        due = n.health.state() == NodeState::kQuarantined &&
              now() >= n.next_probe;
      }
      if (!due) continue;
      n.probes.fetch_add(1, std::memory_order_relaxed);
      const bool ok = probe_once(n.ep);
      HealthEvent ev = HealthEvent::kNone;
      {
        util::MutexLock lk(n.mu);
        if (ok) {
          ev = n.health.record_success();
          n.probe_fails = 0;
        } else {
          if (n.probe_fails < UINT32_MAX) ++n.probe_fails;
          RetryPolicy probe_policy;
          probe_policy.base_ms = opt_.probe_base_ms;
          probe_policy.max_ms = opt_.probe_max_ms;
          probe_policy.seed = opt_.retry.seed ^ 0x70726f6265ull;  // "probe"
          n.next_probe =
              now() + std::chrono::milliseconds(
                          backoff_ms(probe_policy, i, n.probe_fails));
        }
      }
      if (ev == HealthEvent::kRecovered) {
        n.recovered.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

bool Router::probe_once(const NodeEndpoint& ep) {
  service::NetClient c;
  c.set_timeout_ms(opt_.probe_timeout_ms == 0 ? 1 : opt_.probe_timeout_ms);
  if (!c.connect(ep.port, ep.host)) return false;
  service::NetResponse resp;
  if (!c.ping(1, resp)) return false;
  return resp.header.verb == wire::Verb::kPing && resp.header.request_id == 1;
}

NodeStatsView Router::node_stats(std::uint32_t node) const {
  const Node& n = *nodes_[node];
  NodeStatsView v;
  {
    util::MutexLock lk(n.mu);
    v.state = n.health.state();
  }
  v.sent = n.sent.load(std::memory_order_relaxed);
  v.ok = n.ok.load(std::memory_order_relaxed);
  v.retries = n.retries.load(std::memory_order_relaxed);
  v.hedges = n.hedges.load(std::memory_order_relaxed);
  v.hedge_wins = n.hedge_wins.load(std::memory_order_relaxed);
  v.transport_errors = n.transport_errors.load(std::memory_order_relaxed);
  v.protocol_errors = n.protocol_errors.load(std::memory_order_relaxed);
  v.timeouts = n.timeouts.load(std::memory_order_relaxed);
  v.to_suspect = n.to_suspect.load(std::memory_order_relaxed);
  v.to_quarantined = n.to_quarantined.load(std::memory_order_relaxed);
  v.recovered = n.recovered.load(std::memory_order_relaxed);
  v.probes = n.probes.load(std::memory_order_relaxed);
  return v;
}

NodeState Router::node_state(std::uint32_t node) const {
  util::MutexLock lk(nodes_[node]->mu);
  return nodes_[node]->health.state();
}

std::string Router::stats_json() const {
  std::uint64_t buckets[service::kLatencyBuckets] = {};
  for (const std::unique_ptr<Node>& n : nodes_) n->latency.add_to(buckets);
  std::string out = "{\"queries\":" +
                    std::to_string(queries_.load(std::memory_order_relaxed));
  out += ",\"deadline_exceeded\":" +
         std::to_string(deadline_exceeded_.load(std::memory_order_relaxed));
  out += ',';
  service::append_latency_json(out, buckets);
  out += ",\"cluster\":{";
  out += "\"nodes_total\":" + std::to_string(cfg_.num_nodes());
  out += ",\"replication\":" + std::to_string(cfg_.replication);
  out += ",\"key_shards\":" + std::to_string(cfg_.key_shards);
  out += ",\"batches\":" +
         std::to_string(batches_.load(std::memory_order_relaxed));
  out += ",\"unavailable\":" +
         std::to_string(unavailable_.load(std::memory_order_relaxed));
  out += ",\"nodes\":[";
  for (std::uint32_t i = 0; i < cfg_.num_nodes(); ++i) {
    const NodeStatsView v = node_stats(i);
    if (i > 0) out += ',';
    out += "{\"host\":\"" + cfg_.nodes[i].host + "\"";
    out += ",\"port\":" + std::to_string(cfg_.nodes[i].port);
    out += ",\"state\":\"" + std::string(node_state_name(v.state)) + "\"";
    out += ",\"sent\":" + std::to_string(v.sent);
    out += ",\"ok\":" + std::to_string(v.ok);
    out += ",\"retries\":" + std::to_string(v.retries);
    out += ",\"hedges\":" + std::to_string(v.hedges);
    out += ",\"hedge_wins\":" + std::to_string(v.hedge_wins);
    out += ",\"transport_errors\":" + std::to_string(v.transport_errors);
    out += ",\"protocol_errors\":" + std::to_string(v.protocol_errors);
    out += ",\"timeouts\":" + std::to_string(v.timeouts);
    out += ",\"to_suspect\":" + std::to_string(v.to_suspect);
    out += ",\"to_quarantined\":" + std::to_string(v.to_quarantined);
    out += ",\"recovered\":" + std::to_string(v.recovered);
    out += ",\"probes\":" + std::to_string(v.probes);
    out += "}";
  }
  out += "]}}";
  return out;
}

void Router::drain() {
  {
    util::MutexLock lk(drain_mu_);
    while (active_batches_ > 0) lk.wait(drain_cv_);
  }
  pool_.drain();
}

}  // namespace plg::cluster
