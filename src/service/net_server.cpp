#include "service/net_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/fault_injection.h"
#include "util/io_retry.h"

namespace plg::service {

namespace {

using wire::FrameStatus;
using wire::Verb;

std::size_t wbuf_pending_bytes(std::size_t size, std::size_t pos) noexcept {
  return size - pos;
}

/// Per-query wire code for one engine result.
wire::ResultCode result_code(Verb verb, const QueryResult& r) noexcept {
  switch (r.status) {
    case QueryStatus::kOk:
      // Adjacency folds the answer into the code; distance uses kYes =
      // "within f, distance field valid", kNo = "> f" (distance -1).
      if (verb == Verb::kAdjBatch) {
        return r.adjacent ? wire::ResultCode::kYes : wire::ResultCode::kNo;
      }
      return r.distance >= 0 ? wire::ResultCode::kYes : wire::ResultCode::kNo;
    case QueryStatus::kOutOfRange:
      return wire::ResultCode::kRange;
    case QueryStatus::kCorrupt:
      return wire::ResultCode::kCorrupt;
    case QueryStatus::kOverloaded:
      return wire::ResultCode::kOverloaded;
    case QueryStatus::kDeadlineExceeded:
      return wire::ResultCode::kDeadline;
    case QueryStatus::kUnavailable:
      return wire::ResultCode::kUnavailable;
  }
  return wire::ResultCode::kCorrupt;
}

/// Encodes a complete batch response frame. Shared by the dispatcher
/// (real results) and the admission shed path (all-kOverloaded results).
std::vector<std::uint8_t> encode_batch_response(
    Verb verb, std::uint32_t request_id,
    const std::vector<QueryResult>& results) {
  const std::size_t n = results.size();
  std::vector<std::uint8_t> out;
  out.reserve(wire::batch_response_size(verb, n));
  const std::size_t payload =
      verb == Verb::kDistBatch ? n * wire::kDistRecordSize : n;
  wire::put_header(out, verb, FrameStatus::kOk, request_id,
                   static_cast<std::uint32_t>(payload));
  for (const QueryResult& r : results) {
    out.push_back(static_cast<std::uint8_t>(result_code(verb, r)));
    if (verb == Verb::kDistBatch) {
      wire::put_u64(out, static_cast<std::uint64_t>(r.distance));
    }
  }
  return out;
}

std::runtime_error sys_error(const char* what) {
  return std::runtime_error(std::string("NetServer: ") + what + ": " +
                            std::strerror(errno));
}

}  // namespace

struct NetServer::Conn {
  int fd = -1;
  std::uint64_t token = 0;

  /// Read side: bytes [rpos, rbuf.size()) are received but unparsed.
  std::vector<std::uint8_t> rbuf;
  std::size_t rpos = 0;

  /// Write side: bytes [wpos, wbuf.size()) are queued but unsent.
  std::vector<std::uint8_t> wbuf;
  std::size_t wpos = 0;

  /// Response bytes promised to in-flight batches (admission reserved
  /// them against write_buf_cap but the dispatcher has not produced
  /// them yet).
  std::size_t reserved_write = 0;
  /// Batch frames admitted to dispatchers, not yet completed.
  std::size_t inflight = 0;

  /// Per-connection batch deadline (kDeadline verb); 0 = none.
  std::uint32_t deadline_ms = 0;

  std::uint64_t last_activity_tick = 0;
  std::uint64_t last_write_progress_tick = 0;

  std::uint32_t events = 0;  ///< epoll interest mask currently installed
  bool paused = false;       ///< parser stopped on backpressure
  bool closing = false;      ///< fatal error sent; flush then close
  bool read_closed = false;  ///< peer EOF; flush in-flight then close
  bool stall_armed = false;  ///< a write-stall wheel entry is live

  std::size_t wbuf_pending() const noexcept {
    return wbuf_pending_bytes(wbuf.size(), wpos);
  }
};

NetServer::NetServer(BatchHandler& handler, NetServerOptions opt)
    : handler_(handler),
      opt_(std::move(opt)),
      epoch_(std::chrono::steady_clock::now()) {
  if (opt_.tick_ms == 0) opt_.tick_ms = 1;
  if (opt_.dispatchers == 0) opt_.dispatchers = 1;
  if (opt_.max_inflight_frames == 0) opt_.max_inflight_frames = 1;
  if (opt_.dispatch_queue_cap == 0) opt_.dispatch_queue_cap = 1;

  auto fail = [this](const char* what) {
    const int saved = errno;
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (reserve_fd_ >= 0) ::close(reserve_fd_);
    errno = saved;
    throw sys_error(what);
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) fail("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opt_.port);
  if (::inet_pton(AF_INET, opt_.bind_address.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    fail("inet_pton");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    fail("bind");
  }
  if (::listen(listen_fd_, 512) != 0) fail("listen");

  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) !=
      0) {
    fail("getsockname");
  }
  bound_port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) fail("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) fail("eventfd");
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (reserve_fd_ < 0) fail("open /dev/null");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    fail("epoll_ctl listener");
  }
  ev.data.u64 = kWakeToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    fail("epoll_ctl eventfd");
  }
}

NetServer::~NetServer() {
  stop();
  join();
}

void NetServer::start() {
  io_thread_ = std::thread(&NetServer::loop_main, this);
  dispatchers_.reserve(opt_.dispatchers);
  for (unsigned i = 0; i < opt_.dispatchers; ++i) {
    dispatchers_.emplace_back(&NetServer::dispatcher_main, this);
  }
}

void NetServer::stop() noexcept {
  stop_requested_.store(true, std::memory_order_relaxed);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    util::io_write_all(wake_fd_, &one, sizeof(one));
  }
}

void NetServer::join() {
  if (joined_) return;
  joined_ = true;
  if (io_thread_.joinable()) io_thread_.join();
  for (std::thread& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  // Dispatchers are gone; nobody can write the eventfd any more.
  if (wake_fd_ >= 0) ::close(wake_fd_);
  wake_fd_ = -1;
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
  reserve_fd_ = -1;
  // Let in-flight engine work settle so final stats are complete.
  handler_.drain();
}

std::string NetServer::stats_json() const {
  return "{\"net\":" + net_.to_json() +
         ",\"service\":" + handler_.stats_json() + "}";
}

std::uint64_t NetServer::now_tick() const {
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - epoch_)
                      .count();
  // Tick 0 means "before the loop started"; live time starts at 1.
  return 1 + static_cast<std::uint64_t>(ms) / opt_.tick_ms;
}

// ---------------------------------------------------------------------------
// Event loop.

void NetServer::loop_main() {
  std::vector<epoll_event> events(128);
  for (;;) {
    const bool stop_now =
        stop_requested_.load(std::memory_order_relaxed) ||
        (opt_.stop != nullptr && opt_.stop->load(std::memory_order_relaxed));
    if (stop_now && !draining_) begin_drain();

    if (draining_) {
      // Close connections with nothing left to flush or wait for; the
      // rest get the drain timeout to finish.
      std::vector<std::uint64_t> done;
      for (const auto& [token, conn] : conns_) {
        if (conn->wbuf_pending() == 0 && conn->inflight == 0) {
          done.push_back(token);
        }
      }
      for (const std::uint64_t token : done) close_conn(token);
      if (conns_.empty()) break;
      if (now_tick() >= drain_deadline_tick_) {
        std::vector<std::uint64_t> all;
        all.reserve(conns_.size());
        for (const auto& [token, conn] : conns_) all.push_back(token);
        for (const std::uint64_t token : all) close_conn(token);
        break;
      }
    }

    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()),
                     static_cast<int>(opt_.tick_ms));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing sane left to do
    }

    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      const std::uint64_t token = events[i].data.u64;
      const std::uint32_t ev = events[i].events;
      if (token == kListenerToken) {
        do_accept();
        continue;
      }
      if (token == kWakeToken) {
        std::uint64_t counter = 0;
        std::size_t got = 0;
        while (util::io_read(wake_fd_, &counter, sizeof(counter), &got) ==
               util::IoStatus::kOk) {
        }
        drain_completions();
        continue;
      }
      auto it = conns_.find(token);
      if (it == conns_.end()) continue;  // closed earlier this sweep
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
        close_conn(token);
        continue;
      }
      if ((ev & EPOLLOUT) != 0) {
        handle_write(*it->second);
        it = conns_.find(token);  // handle_write may have closed it
        if (it == conns_.end()) continue;
      }
      if ((ev & EPOLLIN) != 0) handle_read(*it->second);
    }

    // Completions can arrive while we were handling socket events;
    // picking them up here (cheap when empty) shaves a wakeup.
    drain_completions();

    wheel_.advance(now_tick(), [this](std::uint64_t id, std::uint64_t tick) {
      return expire_timer(id, tick);
    });
  }

  // Teardown: force-close whatever survived, then release the loop's fds
  // and let the dispatchers run down. wake_fd_/reserve_fd_ stay open
  // until join() — dispatchers still write the eventfd.
  std::vector<std::uint64_t> all;
  all.reserve(conns_.size());
  for (const auto& [token, conn] : conns_) all.push_back(token);
  for (const std::uint64_t token : all) close_conn(token);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
  {
    util::MutexLock lk(disp_mu_);
    disp_stop_ = true;
  }
  disp_cv_.notify_all();
}

void NetServer::begin_drain() {
  draining_ = true;
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);  // closing removes it from the epoll set
    listen_fd_ = -1;
  }
  drain_deadline_tick_ =
      now_tick() + std::max<std::uint64_t>(1, opt_.drain_timeout_ms /
                                                  opt_.tick_ms);
  // Stop reading everywhere; buffered frames already parsed keep their
  // in-flight answers, new bytes stay with the client.
  for (auto& [token, conn] : conns_) update_interest(*conn);
}

// ---------------------------------------------------------------------------
// Accept path.

void NetServer::do_accept() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EMFILE || errno == ENFILE) {
        // fd exhaustion: release the reserve, accept-and-close the
        // pending connection so the listen queue drains instead of
        // redelivering this event forever, then reacquire the reserve.
        if (reserve_fd_ >= 0) {
          ::close(reserve_fd_);
          reserve_fd_ = -1;
        }
        const int victim = ::accept4(listen_fd_, nullptr, nullptr, 0);
        if (victim >= 0) ::close(victim);
        reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        net_.rejected_accept.fetch_add(1, std::memory_order_relaxed);
        net_.accept_errors.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t now = now_tick();
        const std::uint64_t second = std::max<std::uint64_t>(
            1, std::uint64_t{1000} / opt_.tick_ms);
        if (now - last_emfile_log_tick_ >= second) {
          last_emfile_log_tick_ = now;
          std::fprintf(stderr,
                       "plg net: out of file descriptors; shedding "
                       "connections\n");
        }
        continue;
      }
      net_.accept_errors.fetch_add(1, std::memory_order_relaxed);
      break;
    }

    if (fault::should_fail_accept()) {
      net_.rejected_accept.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    if (draining_) {
      net_.rejected_accept.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    if (conns_.size() >= opt_.max_connections) {
      // Counter first: once the client observes the error frame or the
      // close, the rejection must already be visible in stats.
      net_.rejected_accept.fetch_add(1, std::memory_order_relaxed);
      // Tell the client why, in-band, before closing — best effort; a
      // full socket buffer just means the frame is dropped.
      std::vector<std::uint8_t> resp;
      wire::put_error_response(resp, FrameStatus::kOverCapacity, 0,
                               wire::frame_status_name(
                                   FrameStatus::kOverCapacity));
      std::size_t done = 0;
      util::io_send(fd, resp.data(), resp.size(), &done);
      ::close(fd);
      continue;
    }

    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (opt_.so_sndbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opt_.so_sndbuf,
                   sizeof(opt_.so_sndbuf));
    }

    const std::uint64_t token = next_token_++;
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->token = token;
    conn->last_activity_tick = now_tick();
    conn->last_write_progress_tick = conn->last_activity_tick;
    conn->events = EPOLLIN;

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = token;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      net_.accept_errors.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    const std::uint64_t idle_ticks = std::max<std::uint64_t>(
        1, opt_.idle_timeout_ms / opt_.tick_ms);
    wheel_.schedule(token * 2, conn->last_activity_tick + idle_ticks);

    conns_.emplace(token, std::move(conn));
    net_.accepted.fetch_add(1, std::memory_order_relaxed);
    net_.open.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Read path.

void NetServer::handle_read(Conn& c) {
  if (c.closing || c.read_closed) return;
  const std::size_t cap = wire::kHeaderSize + opt_.max_frame_payload;
  for (;;) {
    const std::size_t unparsed = c.rbuf.size() - c.rpos;
    if (unparsed >= cap) break;  // parser stalled; let TCP push back
    std::uint8_t tmp[16384];
    const std::size_t want = std::min(sizeof(tmp), cap - unparsed);
    std::size_t got = 0;
    const util::IoStatus st = util::io_read(c.fd, tmp, want, &got);
    if (st == util::IoStatus::kWouldBlock) break;
    if (st == util::IoStatus::kEof) {
      c.read_closed = true;
      if (c.wbuf_pending() == 0 && c.inflight == 0) {
        close_conn(c.token);
        return;
      }
      break;
    }
    if (st == util::IoStatus::kError) {
      close_conn(c.token);
      return;
    }
    fault::on_net_read(tmp, got);
    net_.bytes_in.fetch_add(got, std::memory_order_relaxed);
    c.rbuf.insert(c.rbuf.end(), tmp, tmp + got);
    c.last_activity_tick = now_tick();
    parse_frames(c);
    if (c.closing) break;
  }
  if (c.closing && c.wbuf_pending() == 0 && c.inflight == 0) {
    close_conn(c.token);
    return;
  }
  update_interest(c);
}

void NetServer::parse_frames(Conn& c) {
  while (!c.closing && !c.paused) {
    const std::size_t avail = c.rbuf.size() - c.rpos;
    wire::FrameHeader hdr;
    const wire::HeaderError err =
        wire::decode_header(c.rbuf.data() + c.rpos, avail,
                            opt_.max_frame_payload, hdr);
    if (err == wire::HeaderError::kNeedMore) break;

    if (err == wire::HeaderError::kBadVerb) {
      // Framing intact (length already validated): answer the error and
      // skip the whole frame once it has fully arrived.
      const std::size_t total = wire::kHeaderSize + hdr.length;
      if (avail < total) break;
      net_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(c, FrameStatus::kBadVerb, hdr.request_id);
      c.rpos += total;
      continue;
    }
    if (err != wire::HeaderError::kOk) {
      net_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      FrameStatus status = FrameStatus::kBadMagic;
      switch (err) {
        case wire::HeaderError::kBadVersion:
          status = FrameStatus::kBadVersion;
          break;
        case wire::HeaderError::kBadReserved:
          status = FrameStatus::kBadReserved;
          break;
        case wire::HeaderError::kOversize:
          status = FrameStatus::kOversize;
          break;
        case wire::HeaderError::kBadMagic:
          break;  // the initializer above already says kBadMagic
        case wire::HeaderError::kOk:
        case wire::HeaderError::kNeedMore:
        case wire::HeaderError::kBadVerb:
          // Unreachable: all three are handled before this switch. Spelled
          // out (rather than `default`) so adding a HeaderError enumerator
          // without choosing its FrameStatus is a compile/lint error, not a
          // silent kBadMagic — the bug this switch used to have.
          break;
      }
      send_error(c, status, hdr.request_id);  // fatal: sets closing
      break;
    }

    const std::size_t total = wire::kHeaderSize + hdr.length;
    if (avail < total) break;
    const FrameAction act =
        handle_frame(c, hdr, c.rbuf.data() + c.rpos + wire::kHeaderSize);
    if (act == FrameAction::kPaused) {
      c.paused = true;
      break;
    }
    c.rpos += total;
    net_.frames_in.fetch_add(1, std::memory_order_relaxed);
    if (act == FrameAction::kFatal) break;
  }

  if (c.closing) {
    // Framing is untrusted from here on; drop whatever was buffered.
    c.rbuf.clear();
    c.rpos = 0;
    return;
  }
  if (c.rpos == c.rbuf.size()) {
    c.rbuf.clear();
    c.rpos = 0;
  } else if (c.rpos >= 4096) {
    c.rbuf.erase(c.rbuf.begin(),
                 c.rbuf.begin() + static_cast<std::ptrdiff_t>(c.rpos));
    c.rpos = 0;
  }
}

NetServer::FrameAction NetServer::handle_frame(Conn& c,
                                               const wire::FrameHeader& hdr,
                                               const std::uint8_t* payload) {
  switch (hdr.verb) {
    case Verb::kPing:
    case Verb::kStats: {
      if (hdr.length != 0) {
        net_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        send_error(c, FrameStatus::kBadPayload, hdr.request_id);
        return FrameAction::kFatal;
      }
      std::vector<std::uint8_t> resp;
      if (hdr.verb == Verb::kPing) {
        wire::put_header(resp, Verb::kPing, FrameStatus::kOk, hdr.request_id,
                         0);
      } else {
        const std::string json = stats_json();
        wire::put_header(resp, Verb::kStats, FrameStatus::kOk, hdr.request_id,
                         static_cast<std::uint32_t>(json.size()));
        resp.insert(resp.end(), json.begin(), json.end());
      }
      if (c.wbuf_pending() + c.reserved_write + resp.size() >
          opt_.write_buf_cap) {
        return FrameAction::kPaused;
      }
      queue_response(c, std::move(resp));
      return FrameAction::kConsumed;
    }
    case Verb::kDeadline: {
      if (hdr.length != 4) {
        net_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        send_error(c, FrameStatus::kBadPayload, hdr.request_id);
        return FrameAction::kFatal;
      }
      std::vector<std::uint8_t> resp;
      wire::put_header(resp, Verb::kDeadline, FrameStatus::kOk,
                       hdr.request_id, 0);
      if (c.wbuf_pending() + c.reserved_write + resp.size() >
          opt_.write_buf_cap) {
        return FrameAction::kPaused;
      }
      c.deadline_ms = wire::get_u32(payload);
      queue_response(c, std::move(resp));
      return FrameAction::kConsumed;
    }
    case Verb::kAdjBatch:
    case Verb::kDistBatch:
      return admit_batch(c, hdr, payload);
    case Verb::kError:
      break;  // response-only; decode_header already rejected it
  }
  net_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
  send_error(c, FrameStatus::kBadPayload, hdr.request_id);
  return FrameAction::kFatal;
}

NetServer::FrameAction NetServer::admit_batch(Conn& c,
                                              const wire::FrameHeader& hdr,
                                              const std::uint8_t* payload) {
  if (hdr.length == 0 || hdr.length % wire::kQueryRecordSize != 0) {
    net_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    send_error(c, FrameStatus::kBadPayload, hdr.request_id);
    return FrameAction::kFatal;
  }
  const std::size_t n = hdr.length / wire::kQueryRecordSize;
  const std::size_t resp_size = wire::batch_response_size(hdr.verb, n);
  if (resp_size > opt_.write_buf_cap) {
    // The response could never fit this connection's budget; no amount
    // of waiting helps. Same class as an oversize request.
    net_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    send_error(c, FrameStatus::kOversize, hdr.request_id);
    return FrameAction::kFatal;
  }

  const QueryKind expected = hdr.verb == Verb::kAdjBatch
                                 ? QueryKind::kAdjacency
                                 : QueryKind::kDistance;
  const bool semantic_reject =
      handler_.kind() != expected || draining_;
  if (semantic_reject) {
    const FrameStatus status =
        draining_ ? FrameStatus::kShutdown : FrameStatus::kWrongScheme;
    std::vector<std::uint8_t> resp;
    wire::put_error_response(resp, status, hdr.request_id,
                             wire::frame_status_name(status));
    if (c.wbuf_pending() + c.reserved_write + resp.size() >
        opt_.write_buf_cap) {
      return FrameAction::kPaused;
    }
    queue_response(c, std::move(resp));
    return FrameAction::kConsumed;
  }

  // Per-connection backpressure: bounded pipelining depth and a write
  // budget the exact response size must fit. Pausing leaves the frame in
  // the read buffer — nothing is dropped, the client just waits.
  if (c.inflight >= opt_.max_inflight_frames) return FrameAction::kPaused;
  if (c.wbuf_pending() + c.reserved_write + resp_size > opt_.write_buf_cap) {
    return FrameAction::kPaused;
  }

  BatchJob job;
  job.token = c.token;
  job.verb = hdr.verb;
  job.request_id = hdr.request_id;
  job.reqs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    job.reqs[i].u = wire::get_u64(payload + i * wire::kQueryRecordSize);
    job.reqs[i].v = wire::get_u64(payload + i * wire::kQueryRecordSize + 8);
  }
  if (c.deadline_ms > 0) {
    // Fixed at admission so time spent queued counts against the budget.
    job.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(c.deadline_ms);
  }

  bool shed = false;
  {
    util::MutexLock lk(disp_mu_);
    if (disp_q_.size() >= opt_.dispatch_queue_cap) {
      shed = true;
    } else {
      disp_q_.push_back(std::move(job));
    }
  }
  if (shed) {
    // Global admission control: answer in-band with per-query
    // kOverloaded — the engine's shed contract, one layer earlier.
    net_.rejected_admission.fetch_add(1, std::memory_order_relaxed);
    std::vector<QueryResult> overloaded(n);
    for (QueryResult& r : overloaded) r.status = QueryStatus::kOverloaded;
    queue_response(c,
                   encode_batch_response(hdr.verb, hdr.request_id,
                                         overloaded));
    return FrameAction::kConsumed;
  }
  disp_cv_.notify_one();
  c.inflight += 1;
  c.reserved_write += resp_size;
  inflight_jobs_.fetch_add(1, std::memory_order_relaxed);
  return FrameAction::kConsumed;
}

void NetServer::send_error(Conn& c, FrameStatus status,
                           std::uint32_t request_id) {
  std::vector<std::uint8_t> resp;
  wire::put_error_response(resp, status, request_id,
                           wire::frame_status_name(status));
  if (c.wbuf_pending() + c.reserved_write + resp.size() <=
      opt_.write_buf_cap) {
    queue_response(c, std::move(resp));
  }
  // else: the client is not draining its socket; it forfeits the
  // explanation. The close (below, for fatal statuses) still happens.
  if (static_cast<std::uint8_t>(status) >=
      static_cast<std::uint8_t>(FrameStatus::kBadMagic)) {
    c.closing = true;
  }
}

// ---------------------------------------------------------------------------
// Write path.

void NetServer::queue_response(Conn& c, std::vector<std::uint8_t>&& bytes) {
  const bool was_idle = c.wbuf_pending() == 0;
  if (was_idle && !c.wbuf.empty()) {
    c.wbuf.clear();
    c.wpos = 0;
  }
  c.wbuf.insert(c.wbuf.end(), bytes.begin(), bytes.end());
  net_.frames_out.fetch_add(1, std::memory_order_relaxed);
  if (was_idle) {
    c.last_write_progress_tick = now_tick();
    if (!c.stall_armed) {
      const std::uint64_t stall_ticks = std::max<std::uint64_t>(
          1, opt_.write_stall_timeout_ms / opt_.tick_ms);
      wheel_.schedule(c.token * 2 + 1,
                      c.last_write_progress_tick + stall_ticks);
      c.stall_armed = true;
    }
  }
  update_interest(c);
}

void NetServer::handle_write(Conn& c) {
  while (c.wbuf_pending() > 0) {
    const std::size_t n = c.wbuf.size() - c.wpos;
    const std::size_t allowed = fault::clamp_net_write(n);
    std::size_t done = 0;
    const util::IoStatus st =
        util::io_send(c.fd, c.wbuf.data() + c.wpos, allowed, &done);
    if (st == util::IoStatus::kWouldBlock) return;  // EPOLLOUT stays armed
    if (st != util::IoStatus::kOk) {
      close_conn(c.token);
      return;
    }
    if (done == 0) return;  // defensive; should not happen on sockets
    c.wpos += done;
    net_.bytes_out.fetch_add(done, std::memory_order_relaxed);
    c.last_write_progress_tick = now_tick();
  }
  c.wbuf.clear();
  c.wpos = 0;
  if (c.closing || (c.read_closed && c.inflight == 0)) {
    close_conn(c.token);
    return;
  }
  if (c.paused) {
    // Flushing freed write budget; the parser may be able to continue.
    c.paused = false;
    parse_frames(c);
    if (c.closing && c.wbuf_pending() == 0 && c.inflight == 0) {
      close_conn(c.token);
      return;
    }
  }
  update_interest(c);
}

void NetServer::update_interest(Conn& c) {
  const std::size_t cap = wire::kHeaderSize + opt_.max_frame_payload;
  const bool want_read = !c.closing && !c.read_closed && !draining_ &&
                         (c.rbuf.size() - c.rpos) < cap;
  const bool want_write = c.wbuf_pending() > 0;
  const std::uint32_t events =
      (want_read ? static_cast<std::uint32_t>(EPOLLIN) : 0u) |
      (want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (events == c.events) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = c.token;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev) == 0) {
    c.events = events;
  }
}

void NetServer::close_conn(std::uint64_t token) {
  auto it = conns_.find(token);
  if (it == conns_.end()) return;
  ::close(it->second->fd);  // also removes the fd from the epoll set
  conns_.erase(it);
  net_.open.fetch_sub(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Timeouts.

std::uint64_t NetServer::expire_timer(std::uint64_t id, std::uint64_t now) {
  const std::uint64_t token = id / 2;
  const bool is_stall = (id & 1) != 0;
  auto it = conns_.find(token);
  if (it == conns_.end()) return 0;  // stale entry; connection closed
  Conn& c = *it->second;

  if (!is_stall) {
    const std::uint64_t idle_ticks = std::max<std::uint64_t>(
        1, opt_.idle_timeout_ms / opt_.tick_ms);
    // A connection waiting on its own in-flight batches is not idle.
    const std::uint64_t base =
        c.inflight > 0 ? now : c.last_activity_tick;
    const std::uint64_t deadline = base + idle_ticks;
    if (deadline > now) return deadline;  // activity since the arm
    net_.timeouts_idle.fetch_add(1, std::memory_order_relaxed);
    close_conn(token);
    return 0;
  }

  if (c.wbuf_pending() == 0) {
    // Nothing pending: disarm; queue_response re-arms on next output.
    c.stall_armed = false;
    return 0;
  }
  const std::uint64_t stall_ticks = std::max<std::uint64_t>(
      1, opt_.write_stall_timeout_ms / opt_.tick_ms);
  const std::uint64_t deadline = c.last_write_progress_tick + stall_ticks;
  if (deadline > now) return deadline;  // the peer is draining, slowly
  net_.timeouts_write.fetch_add(1, std::memory_order_relaxed);
  close_conn(token);
  return 0;
}

// ---------------------------------------------------------------------------
// Dispatchers.

void NetServer::drain_completions() {
  std::deque<Completion> local;
  {
    util::MutexLock lk(comp_mu_);
    local.swap(comp_q_);
  }
  for (Completion& comp : local) {
    inflight_jobs_.fetch_sub(1, std::memory_order_relaxed);
    auto it = conns_.find(comp.token);
    if (it == conns_.end()) continue;  // connection died mid-flight
    Conn& c = *it->second;
    c.inflight -= 1;
    c.reserved_write -= comp.bytes.size();
    queue_response(c, std::move(comp.bytes));
    if (c.paused) {
      c.paused = false;
      parse_frames(c);
      if (c.closing && c.wbuf_pending() == 0 && c.inflight == 0) {
        close_conn(comp.token);
        continue;
      }
    }
    update_interest(c);
  }
}

void NetServer::dispatcher_main() {
  for (;;) {
    BatchJob job;
    {
      util::MutexLock lk(disp_mu_);
      while (disp_q_.empty() && !disp_stop_) lk.wait(disp_cv_);
      if (disp_q_.empty()) return;  // stopping, queue fully drained
      job = std::move(disp_q_.front());
      disp_q_.pop_front();
    }
    BatchOptions bopt;
    bopt.deadline = job.deadline;
    const std::vector<QueryResult> results =
        handler_.query_batch(job.reqs, bopt);
    Completion comp;
    comp.token = job.token;
    comp.bytes = encode_batch_response(job.verb, job.request_id, results);
    {
      util::MutexLock lk(comp_mu_);
      comp_q_.push_back(std::move(comp));
    }
    const std::uint64_t one = 1;
    util::io_write_all(wake_fd_, &one, sizeof(one));
  }
}

}  // namespace plg::service
