// NetServer: hostile-client-proof epoll TCP front-end for QueryService.
//
// Threading model — one IO thread, N dispatcher threads, zero locks on
// the per-byte path:
//
//   * The IO thread owns epoll, the listener, the timer wheel, and ALL
//     per-connection state (buffers, cursors, in-flight counts). No
//     other thread ever touches a Conn, so the event loop runs lock-free
//     and the thread-safety story is "single-threaded by construction".
//   * Dispatchers pull admitted batch jobs from one bounded queue, run
//     the blocking QueryService::query_batch, encode the response frame
//     into a fresh byte vector, push it onto the completion queue, and
//     wake the IO thread through an eventfd. The two queues are the only
//     shared mutable state and each is guarded by one util::Mutex.
//   * Connections are addressed by monotonically increasing u64 tokens,
//     never pointers or fds — a completion for a connection that died
//     mid-flight fails the token lookup and is dropped, so there is no
//     use-after-close and no fd reuse hazard.
//
// Hostile-client defenses (the reason this layer exists):
//
//   * Bounded everything. Read buffer, write buffer, frame payload,
//     in-flight frames per connection, dispatcher queue, connection
//     count — every resource a client can grow has a hard cap, and the
//     cap is enforced BEFORE the allocation, not after.
//   * An announced frame length is validated against max_frame_payload
//     in the codec before any buffering decision; oversize frames are a
//     protocol error + close, never an allocation.
//   * Slowloris: a connection that sends nothing for idle_timeout_ms, or
//     whose peer stops draining responses for write_stall_timeout_ms
//     while output is pending, is closed by the timer wheel.
//   * Write-budget admission: a batch frame is only admitted once its
//     exact response size fits the connection's write budget
//     (write_buf_cap minus bytes already buffered or promised to
//     in-flight batches). A client that pipelines faster than it reads
//     is paused at the parser — its bytes stay in the kernel socket
//     buffer and TCP backpressure does the rest.
//   * Overload answers in-band: when the dispatcher queue is full the
//     frame is answered immediately with per-query kOverloaded codes —
//     the same admission-control contract as the engine's shed path, one
//     layer earlier and without burning a worker.
//   * fd exhaustion: a reserve fd is held open; on EMFILE/ENFILE it is
//     released, the pending connection accepted and closed (so the
//     listen queue drains instead of redelivering the same event
//     forever), and the reserve reacquired.
//
// Graceful drain: stop() (or the external stop flag, typically SIGTERM)
// closes the listener, stops admitting new frames, lets in-flight
// batches complete, flushes write buffers, then force-closes whatever
// remains at drain_timeout_ms. After the loop exits, dispatchers are
// joined and the engine is drained.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/engine.h"
#include "service/frame.h"
#include "service/metrics.h"
#include "service/timer_wheel.h"
#include "util/locks.h"
#include "util/thread_annotations.h"

namespace plg::service {

struct NetServerOptions {
  /// Listen address/port. Port 0 binds an ephemeral port (tests); the
  /// bound port is available from port() after start().
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;

  std::size_t max_connections = 1024;
  /// Hard cap on a frame's announced payload length. Oversize frames are
  /// a fatal protocol error; nothing attacker-sized is ever allocated.
  std::size_t max_frame_payload = 1u << 20;
  /// Per-connection cap on buffered + promised response bytes. Batch
  /// frames are admitted only when their exact response size fits.
  std::size_t write_buf_cap = 4u << 20;
  /// Per-connection cap on concurrently executing batch frames
  /// (pipelining depth); further frames wait in the read buffer.
  std::size_t max_inflight_frames = 8;

  /// When > 0, clamps each connection's kernel send buffer (SO_SNDBUF).
  /// Unbounded kernel buffering lets a never-reading peer hide behind
  /// auto-tuned socket memory, defeating the userspace write accounting
  /// that drives the stall timeout; clamping keeps per-connection kernel
  /// memory bounded and makes write stalls observable promptly.
  int so_sndbuf = 0;

  std::uint32_t idle_timeout_ms = 30'000;
  std::uint32_t write_stall_timeout_ms = 10'000;
  /// Timer-wheel granularity. Timeouts are detected within one tick.
  std::uint32_t tick_ms = 10;

  /// Dispatcher threads bridging the event loop to the blocking engine.
  unsigned dispatchers = 2;
  /// Bound on queued-not-yet-running batch jobs; a full queue sheds the
  /// frame in-band with per-query kOverloaded.
  std::size_t dispatch_queue_cap = 128;

  std::uint32_t drain_timeout_ms = 5'000;
  /// Optional external stop flag (the SIGTERM handler's atomic); polled
  /// every tick in addition to stop().
  const std::atomic<bool>* stop = nullptr;
};

class NetServer {
 public:
  /// Binds and listens (throws std::runtime_error on failure) but does
  /// not serve yet; port() is valid once constructed. The handler is
  /// either a local QueryService or a cluster Router — the serving
  /// plane is identical for both.
  NetServer(BatchHandler& handler, NetServerOptions opt);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Spawns the IO thread and dispatchers. Call once.
  void start();

  /// Requests graceful drain. Idempotent; safe from any thread and from
  /// signal context is NOT supported — signal handlers set the external
  /// stop flag instead.
  void stop() noexcept;

  /// Blocks until the event loop and dispatchers have exited. Idempotent.
  void join();

  /// The bound (possibly ephemeral) port.
  std::uint16_t port() const noexcept { return bound_port_; }

  /// The STATS reply: `{"net":<net_counters().to_json()>,
  /// "service":<handler.stats_json()>}`.
  std::string stats_json() const;

  const NetCounters& net_counters() const noexcept { return net_; }

 private:
  /// Per-connection state. Owned and touched exclusively by the IO
  /// thread (see the threading model above) — deliberately no mutex.
  struct Conn;

  /// One admitted batch frame, queued for a dispatcher.
  struct BatchJob {
    std::uint64_t token = 0;
    wire::Verb verb = wire::Verb::kAdjBatch;
    std::uint32_t request_id = 0;
    std::vector<QueryRequest> reqs;
    /// Absolute deadline fixed at admission (connection kDeadline verb),
    /// so time queued counts against the budget.
    std::optional<std::chrono::steady_clock::time_point> deadline;
  };

  /// An encoded response frame travelling back to the IO thread.
  struct Completion {
    std::uint64_t token = 0;
    std::vector<std::uint8_t> bytes;
  };

  enum class FrameAction : std::uint8_t {
    kConsumed,  ///< frame handled; advance the parse cursor
    kPaused,    ///< backpressure; retry the same frame later
    kFatal,     ///< framing broken; error frame queued, connection closing
  };

  void loop_main();
  void dispatcher_main();

  void do_accept();
  void handle_read(Conn& c);
  void handle_write(Conn& c);
  void parse_frames(Conn& c);
  FrameAction handle_frame(Conn& c, const wire::FrameHeader& hdr,
                           const std::uint8_t* payload);
  FrameAction admit_batch(Conn& c, const wire::FrameHeader& hdr,
                          const std::uint8_t* payload);

  /// Queues an error response (best-effort under the write cap) and, for
  /// fatal statuses, marks the connection closing (flush then close).
  void send_error(Conn& c, wire::FrameStatus status, std::uint32_t request_id);
  void queue_response(Conn& c, std::vector<std::uint8_t>&& bytes);
  void update_interest(Conn& c);
  void close_conn(std::uint64_t token);
  void drain_completions();
  std::uint64_t expire_timer(std::uint64_t id, std::uint64_t now_tick);
  void begin_drain();
  std::uint64_t now_tick() const;

  BatchHandler& handler_;
  NetServerOptions opt_;
  NetCounters net_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  /// Released and reacquired around the EMFILE accept-close dance.
  int reserve_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::chrono::steady_clock::time_point epoch_;

  // --- IO-thread-only state (no locks; see threading model) ---
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_token_ = kFirstConnToken;
  TimerWheel wheel_;
  bool draining_ = false;
  std::uint64_t drain_deadline_tick_ = 0;
  std::uint64_t last_emfile_log_tick_ = 0;

  static constexpr std::uint64_t kListenerToken = 0;
  static constexpr std::uint64_t kWakeToken = 1;
  static constexpr std::uint64_t kFirstConnToken = 2;

  // --- cross-thread state ---
  std::atomic<bool> stop_requested_{false};
  /// Frames admitted to dispatchers but not yet completed (drain gate).
  std::atomic<std::uint64_t> inflight_jobs_{0};

  util::Mutex disp_mu_;
  std::condition_variable disp_cv_;
  std::deque<BatchJob> disp_q_ PLG_GUARDED_BY(disp_mu_);
  bool disp_stop_ PLG_GUARDED_BY(disp_mu_) = false;

  util::Mutex comp_mu_;
  std::deque<Completion> comp_q_ PLG_GUARDED_BY(comp_mu_);

  std::thread io_thread_;
  std::vector<std::thread> dispatchers_;
  bool joined_ = false;
};

}  // namespace plg::service
