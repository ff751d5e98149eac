// Minimal deadline-aware client for the TCP serving plane's wire
// protocol.
//
// Shared by `plgtool netbench`, the E17 loopback benchmark, the cluster
// router's per-node connection pool, and the storm/fuzz tests — every
// byte a client emits goes through the same codec (service/frame.h) the
// server parses, which is what makes the differential fuzz meaningful:
// a frame the shared builders produce MUST round-trip, and a frame the
// fuzzer corrupts MUST be rejected.
//
// Deliberately synchronous in shape (connect / send / await response):
// hostile concurrency lives in the *server*; clients stay simple enough
// to be obviously-correct oracles. Underneath, every socket is
// non-blocking and each potentially-blocking step is a poll() with the
// remaining per-operation budget, so a stalled, blackholed, or
// SIGSTOP'd server fails the call within timeout_ms instead of hanging
// the caller forever (timeout 0 preserves the old block-indefinitely
// behavior for tools that want it). send uses MSG_NOSIGNAL so a
// server-side close mid-test fails the call instead of killing the
// process with SIGPIPE. Outbound connects consult the `connect-fail`
// fault key, the client-side analog of the server's `accept-fail`.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <cerrno>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/frame.h"
#include "util/fault_injection.h"

namespace plg::service {

/// One decoded response frame.
struct NetResponse {
  wire::FrameHeader header;
  std::vector<std::uint8_t> payload;
};

class NetClient {
 public:
  NetClient() = default;
  ~NetClient() { close(); }

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;
  NetClient(NetClient&& other) noexcept
      : fd_(other.fd_), timeout_ms_(other.timeout_ms_) {
    other.fd_ = -1;
  }
  NetClient& operator=(NetClient&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      timeout_ms_ = other.timeout_ms_;
      other.fd_ = -1;
    }
    return *this;
  }

  /// Per-operation deadline budget applied to connect() and to each
  /// send/read call. 0 = no deadline (block indefinitely — the
  /// pre-cluster behavior, still right for benchmarks and fuzzers that
  /// trust their local server). The router sets this per call from the
  /// remaining batch budget.
  void set_timeout_ms(std::uint32_t ms) noexcept { timeout_ms_ = ms; }
  std::uint32_t timeout_ms() const noexcept { return timeout_ms_; }

  /// Connects to host:port within the timeout budget. `host` is a dotted
  /// IPv4 address or a name (e.g. "localhost") resolved to its first IPv4
  /// address; the name lookup is not bounded by the budget. False on any
  /// failure — unresolvable host, refused, unreachable, injected
  /// `connect-fail`, or the handshake not completing in time (a
  /// blackholed peer no longer hangs the caller).
  bool connect(std::uint16_t port, const std::string& host = "127.0.0.1") {
    close();
    if (fault::should_fail_connect()) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 &&
        !resolve_ipv4(host, addr.sin_addr)) {
      return false;
    }
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    int rc;
    do {
      rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      if (errno != EINPROGRESS) {
        close();
        return false;
      }
      // Handshake in flight: poll for writability, then read the
      // kernel's verdict from SO_ERROR (POLLOUT alone also fires on
      // failure, e.g. ECONNREFUSED).
      if (!wait_io(POLLOUT, deadline_from_now())) {
        close();
        return false;
      }
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        close();
        return false;
      }
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  bool connected() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  void close() noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Sends raw bytes (a frame, several pipelined frames, or — for the
  /// fuzzer — deliberately broken garbage) within one timeout budget.
  bool send_bytes(const std::vector<std::uint8_t>& bytes) {
    return send_bytes_until(bytes, deadline_from_now());
  }

  /// send_bytes against an explicit absolute deadline (unset = forever);
  /// the router passes its per-node budget here.
  bool send_bytes_until(
      const std::vector<std::uint8_t>& bytes,
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max()) {
    std::size_t put = 0;
    while (put < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + put, bytes.size() - put,
                               MSG_NOSIGNAL);
      if (n > 0) {
        put += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!wait_io(POLLOUT, deadline)) return false;
        continue;
      }
      return false;
    }
    return true;
  }

  /// Reads one complete response frame within one timeout budget. False
  /// on EOF / error / timeout / a frame the response codec rejects.
  /// `max_payload` bounds what this client is willing to buffer — same
  /// defensive rule as the server.
  bool read_response(NetResponse& out,
                     std::size_t max_payload = std::size_t{1} << 20) {
    return read_response_until(out, max_payload, deadline_from_now());
  }

  /// read_response against an explicit absolute deadline. The whole
  /// frame (header + payload) shares the one budget, so a server that
  /// stalls mid-frame still fails the call on time.
  bool read_response_until(
      NetResponse& out, std::size_t max_payload,
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max()) {
    std::uint8_t hdr_bytes[wire::kHeaderSize];
    if (!read_exact(hdr_bytes, wire::kHeaderSize, deadline)) return false;
    const wire::HeaderError err =
        wire::decode_header(hdr_bytes, wire::kHeaderSize, max_payload,
                            out.header, /*require_request=*/false);
    if (err != wire::HeaderError::kOk) return false;
    out.payload.assign(out.header.length, 0);
    if (out.header.length > 0 &&
        !read_exact(out.payload.data(), out.payload.size(), deadline)) {
      return false;
    }
    return true;
  }

  /// Round-trips one adjacency/distance batch. Returns false on any
  /// transport failure; a server-side error frame is surfaced through
  /// `out.header` (verb kError) for the caller to inspect.
  bool batch(wire::Verb verb, std::uint32_t request_id,
             const std::vector<std::pair<std::uint64_t, std::uint64_t>>& qs,
             NetResponse& out) {
    std::vector<std::uint8_t> frame;
    wire::put_batch_request(frame, verb, request_id, qs.data(), qs.size());
    return send_bytes(frame) && read_response(out);
  }

  bool ping(std::uint32_t request_id, NetResponse& out) {
    std::vector<std::uint8_t> frame;
    wire::put_empty_request(frame, wire::Verb::kPing, request_id);
    return send_bytes(frame) && read_response(out);
  }

  /// Fetches the server's one-line JSON stats report.
  bool stats_json(std::uint32_t request_id, std::string& out) {
    std::vector<std::uint8_t> frame;
    wire::put_empty_request(frame, wire::Verb::kStats, request_id);
    NetResponse resp;
    if (!send_bytes(frame) || !read_response(resp)) return false;
    if (resp.header.verb != wire::Verb::kStats) return false;
    out.assign(resp.payload.begin(), resp.payload.end());
    return true;
  }

  bool set_deadline(std::uint32_t request_id, std::uint32_t ms,
                    NetResponse& out) {
    std::vector<std::uint8_t> frame;
    wire::put_deadline_request(frame, request_id, ms);
    return send_bytes(frame) && read_response(out);
  }

 private:
  /// The first IPv4 stream address getaddrinfo gives for `host`.
  static bool resolve_ipv4(const std::string& host, in_addr& out) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* found = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &found) != 0) {
      return false;
    }
    sockaddr_in sin{};
    const bool ok = found->ai_addrlen >= sizeof(sin);
    if (ok) std::memcpy(&sin, found->ai_addr, sizeof(sin));
    ::freeaddrinfo(found);
    out = sin.sin_addr;
    return ok;
  }

  std::chrono::steady_clock::time_point deadline_from_now() const {
    if (timeout_ms_ == 0) return std::chrono::steady_clock::time_point::max();
    return std::chrono::steady_clock::now() +
           std::chrono::milliseconds(timeout_ms_);
  }

  /// Polls fd_ for `events` until ready or the deadline passes. True =
  /// the socket is actionable (including error/hup — the subsequent
  /// recv/send surfaces the failure).
  bool wait_io(short events, std::chrono::steady_clock::time_point deadline) {
    for (;;) {
      int wait_ms = -1;
      if (deadline != std::chrono::steady_clock::time_point::max()) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0) return false;
        // +1: round up so a sub-millisecond remainder still sleeps
        // instead of spinning poll(0) until the clock ticks over.
        wait_ms = static_cast<int>(
            std::chrono::milliseconds(left).count() >= 1'000'000
                ? 1'000'000
                : left.count() + 1);
      }
      pollfd p{};
      p.fd = fd_;
      p.events = events;
      const int rc = ::poll(&p, 1, wait_ms);
      if (rc > 0) return true;
      if (rc == 0) {
        if (deadline == std::chrono::steady_clock::time_point::max()) continue;
        if (std::chrono::steady_clock::now() >= deadline) return false;
        continue;
      }
      if (errno == EINTR) continue;
      return false;
    }
  }

  bool read_exact(std::uint8_t* dst, std::size_t n,
                  std::chrono::steady_clock::time_point deadline) {
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, dst + got, n - got, 0);
      if (r > 0) {
        got += static_cast<std::size_t>(r);
        continue;
      }
      if (r == 0) return false;  // peer EOF mid-frame
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!wait_io(POLLIN, deadline)) return false;
        continue;
      }
      return false;
    }
    return true;
  }

  int fd_ = -1;
  std::uint32_t timeout_ms_ = 0;
};

}  // namespace plg::service
