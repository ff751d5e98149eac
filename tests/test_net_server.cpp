// Integration tests for the TCP serving plane (src/service/net_server.h).
//
// Written to run meaningfully under TSan and ASan (the net-storm CI
// job): the storm test mixes >= 64 concurrent valid + hostile
// connections and asserts every completed query equals the direct-engine
// oracle; the hostile clients exercise the protocol-error, timeout, and
// backpressure paths. Sizes are tuned for single-core CI runners.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/thin_fat.h"
#include "gen/chung_lu.h"
#include "service/engine.h"
#include "service/frame.h"
#include "service/net_client.h"
#include "service/net_server.h"
#include "service/snapshot.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace plg::service {
namespace {

using wire::FrameStatus;
using wire::ResultCode;
using wire::Verb;

/// Bounds every client operation a test performs, so a server bug shows
/// up as a test failure instead of a hung ctest run.
void bound_reads(NetClient& c, std::uint32_t ms = 10'000) {
  c.set_timeout_ms(ms);
}

/// Waits for an orderly server-side close (read returns 0). False on
/// timeout or error. NetClient sockets are non-blocking, so this polls.
bool await_eof(int fd, int ms = 10'000) {
  std::uint8_t buf[512];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    const int rc = ::poll(&p, 1, static_cast<int>(left.count() + 1));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return false;
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r == 0) return true;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;
    }
    if (r < 0) return false;
  }
}

struct TestServer {
  Graph g;
  std::shared_ptr<const Snapshot> snap;
  std::unique_ptr<QueryService> svc;
  std::unique_ptr<NetServer> server;

  explicit TestServer(NetServerOptions nopt = {}, ServiceOptions sopt = {},
                      std::size_t n = 400) {
    Rng rng(7);
    g = chung_lu_power_law(n, 2.5, 8.0, rng);
    const auto enc = thin_fat_encode(g, 12);
    snap = Snapshot::build(enc.labeling, 8);
    if (sopt.threads == 0) sopt.threads = 2;
    svc = std::make_unique<QueryService>(snap, sopt);
    nopt.port = 0;  // ephemeral
    server = std::make_unique<NetServer>(*svc, nopt);
    server->start();
  }

  ~TestServer() {
    server->stop();
    server->join();
  }

  std::uint16_t port() const { return server->port(); }

  /// Direct-engine oracle for one batch (same snapshot, no network).
  std::vector<QueryResult> oracle(
      const std::vector<std::pair<std::uint64_t, std::uint64_t>>& qs) {
    std::vector<QueryRequest> reqs(qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      reqs[i].u = qs[i].first;
      reqs[i].v = qs[i].second;
    }
    return svc->query_batch(reqs);
  }
};

/// Expected wire code for an oracle result (adjacency verbs).
ResultCode adj_code(const QueryResult& r) {
  switch (r.status) {
    case QueryStatus::kOk:
      return r.adjacent ? ResultCode::kYes : ResultCode::kNo;
    case QueryStatus::kOutOfRange:
      return ResultCode::kRange;
    case QueryStatus::kCorrupt:
      return ResultCode::kCorrupt;
    case QueryStatus::kOverloaded:
      return ResultCode::kOverloaded;
    case QueryStatus::kDeadlineExceeded:
      return ResultCode::kDeadline;
    case QueryStatus::kUnavailable:
      return ResultCode::kUnavailable;
  }
  return ResultCode::kCorrupt;
}

// ------------------------------------------------------------ happy path

TEST(NetServer, PingStatsDeadlineRoundTrip) {
  TestServer ts;
  NetClient c;
  ASSERT_TRUE(c.connect(ts.port()));
  bound_reads(c);

  NetResponse resp;
  ASSERT_TRUE(c.ping(11, resp));
  EXPECT_EQ(resp.header.verb, Verb::kPing);
  EXPECT_EQ(resp.header.request_id, 11u);
  EXPECT_EQ(resp.header.length, 0u);

  std::string json;
  ASSERT_TRUE(c.stats_json(12, json));
  EXPECT_NE(json.find("\"net\":{\"accepted\":"), std::string::npos);
  EXPECT_NE(json.find("\"protocol_errors\":"), std::string::npos);
  EXPECT_NE(json.find("\"timeouts_idle\":"), std::string::npos);
  const std::size_t service = json.find("\"service\":{");
  ASSERT_NE(service, std::string::npos) << json;
  EXPECT_NE(json.find("\"labels\":" + std::to_string(ts.snap->size()),
                      service),
            std::string::npos)
      << json;

  ASSERT_TRUE(c.set_deadline(13, 5000, resp));
  EXPECT_EQ(resp.header.verb, Verb::kDeadline);
  EXPECT_EQ(resp.header.request_id, 13u);
}

TEST(NetClient, ConnectsByHostName) {
  // "localhost" is not a dotted quad: the client resolves it (from the
  // hosts file) instead of failing the connect outright.
  TestServer ts;
  NetClient c;
  ASSERT_TRUE(c.connect(ts.port(), "localhost"));
  bound_reads(c);
  NetResponse resp;
  ASSERT_TRUE(c.ping(21, resp));
  EXPECT_EQ(resp.header.verb, Verb::kPing);
  EXPECT_EQ(resp.header.request_id, 21u);
}

TEST(NetServer, AdjacencyBatchMatchesDirectEngine) {
  TestServer ts;
  NetClient c;
  ASSERT_TRUE(c.connect(ts.port()));
  bound_reads(c);

  Rng rng(123);
  const std::uint64_t n = ts.snap->size();
  for (int round = 0; round < 10; ++round) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> qs(64);
    for (auto& q : qs) {
      q.first = rng.next_below(n + 2);  // includes out-of-range ids
      q.second = rng.next_below(n + 2);
    }
    NetResponse resp;
    ASSERT_TRUE(c.batch(Verb::kAdjBatch,
                        static_cast<std::uint32_t>(round), qs, resp));
    ASSERT_EQ(resp.header.verb, Verb::kAdjBatch);
    ASSERT_EQ(resp.header.request_id, static_cast<std::uint32_t>(round));
    ASSERT_EQ(resp.payload.size(), qs.size());
    const auto expected = ts.oracle(qs);
    for (std::size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(resp.payload[i],
                static_cast<std::uint8_t>(adj_code(expected[i])))
          << "query " << i;
    }
  }
}

TEST(NetServer, PipelinedFramesAllAnswerWithMatchingIds) {
  TestServer ts;
  NetClient c;
  ASSERT_TRUE(c.connect(ts.port()));
  bound_reads(c);

  // Fire 6 frames back-to-back, then collect 6 responses. IDs may come
  // back in any order (shed answers can overtake engine answers), so
  // match by request_id.
  constexpr std::uint32_t kFrames = 6;
  std::vector<std::uint8_t> wire_bytes;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> qs = {{1, 2}, {3, 4}};
  for (std::uint32_t id = 0; id < kFrames; ++id) {
    wire::put_batch_request(wire_bytes, Verb::kAdjBatch, 100 + id, qs.data(),
                            qs.size());
  }
  ASSERT_TRUE(c.send_bytes(wire_bytes));
  std::vector<bool> seen(kFrames, false);
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    NetResponse resp;
    ASSERT_TRUE(c.read_response(resp));
    ASSERT_EQ(resp.header.verb, Verb::kAdjBatch);
    ASSERT_GE(resp.header.request_id, 100u);
    ASSERT_LT(resp.header.request_id, 100u + kFrames);
    EXPECT_FALSE(seen[resp.header.request_id - 100]);
    seen[resp.header.request_id - 100] = true;
    EXPECT_EQ(resp.payload.size(), qs.size());
  }
}

// -------------------------------------------------------- protocol errors

TEST(NetServer, UnknownVerbIsRecoverable) {
  TestServer ts;
  NetClient c;
  ASSERT_TRUE(c.connect(ts.port()));
  bound_reads(c);

  std::vector<std::uint8_t> frame;
  wire::put_header(frame, Verb::kPing, FrameStatus::kOk, 77, 0);
  frame[5] = 0x42;  // unknown verb, framing intact
  ASSERT_TRUE(c.send_bytes(frame));
  NetResponse resp;
  ASSERT_TRUE(c.read_response(resp));
  EXPECT_EQ(resp.header.verb, Verb::kError);
  EXPECT_EQ(resp.header.status, static_cast<std::uint8_t>(
                                    FrameStatus::kBadVerb));
  EXPECT_EQ(resp.header.request_id, 77u);

  // The connection survives a recoverable error.
  ASSERT_TRUE(c.ping(78, resp));
  EXPECT_EQ(resp.header.request_id, 78u);
}

TEST(NetServer, BadMagicClosesAfterErrorFrame) {
  TestServer ts;
  NetClient c;
  ASSERT_TRUE(c.connect(ts.port()));
  bound_reads(c);

  std::vector<std::uint8_t> junk(wire::kHeaderSize, 0xAB);
  ASSERT_TRUE(c.send_bytes(junk));
  NetResponse resp;
  ASSERT_TRUE(c.read_response(resp));
  EXPECT_EQ(resp.header.verb, Verb::kError);
  EXPECT_EQ(resp.header.status,
            static_cast<std::uint8_t>(FrameStatus::kBadMagic));
  EXPECT_TRUE(await_eof(c.fd()));
  EXPECT_GE(ts.server->net_counters().protocol_errors.load(), 1u);
}

TEST(NetServer, OversizeLengthIsRejectedWithoutBuffering) {
  NetServerOptions nopt;
  nopt.max_frame_payload = 4096;
  TestServer ts(nopt);
  NetClient c;
  ASSERT_TRUE(c.connect(ts.port()));
  bound_reads(c);

  std::vector<std::uint8_t> frame;
  wire::put_header(frame, Verb::kAdjBatch, FrameStatus::kOk, 9,
                   1u << 30);  // announces 1 GiB
  ASSERT_TRUE(c.send_bytes(frame));
  NetResponse resp;
  ASSERT_TRUE(c.read_response(resp));
  EXPECT_EQ(resp.header.verb, Verb::kError);
  EXPECT_EQ(resp.header.status,
            static_cast<std::uint8_t>(FrameStatus::kOversize));
  EXPECT_TRUE(await_eof(c.fd()));
}

TEST(NetServer, RaggedBatchPayloadIsFatal) {
  TestServer ts;
  NetClient c;
  ASSERT_TRUE(c.connect(ts.port()));
  bound_reads(c);

  std::vector<std::uint8_t> frame;
  wire::put_header(frame, Verb::kAdjBatch, FrameStatus::kOk, 5, 17);
  frame.resize(frame.size() + 17, 0);  // 17 % 16 != 0
  ASSERT_TRUE(c.send_bytes(frame));
  NetResponse resp;
  ASSERT_TRUE(c.read_response(resp));
  EXPECT_EQ(resp.header.verb, Verb::kError);
  EXPECT_EQ(resp.header.status,
            static_cast<std::uint8_t>(FrameStatus::kBadPayload));
  EXPECT_TRUE(await_eof(c.fd()));
}

TEST(NetServer, WrongSchemeVerbAnsweredInBandConnectionSurvives) {
  TestServer ts;  // adjacency-kind engine
  NetClient c;
  ASSERT_TRUE(c.connect(ts.port()));
  bound_reads(c);

  NetResponse resp;
  ASSERT_TRUE(c.batch(Verb::kDistBatch, 21, {{0, 1}}, resp));
  EXPECT_EQ(resp.header.verb, Verb::kError);
  EXPECT_EQ(resp.header.status,
            static_cast<std::uint8_t>(FrameStatus::kWrongScheme));
  ASSERT_TRUE(c.ping(22, resp));
  EXPECT_EQ(resp.header.request_id, 22u);
}

// ------------------------------------------------------ timeouts / limits

TEST(NetServer, IdleConnectionIsClosedBySlowlorisDefense) {
  NetServerOptions nopt;
  nopt.idle_timeout_ms = 60;
  nopt.tick_ms = 5;
  TestServer ts(nopt);
  NetClient c;
  ASSERT_TRUE(c.connect(ts.port()));
  bound_reads(c, 5000);
  // Send a partial header (classic slowloris: trickle, then stall).
  const std::vector<std::uint8_t> partial = {0x50, 0x4C};
  ASSERT_TRUE(c.send_bytes(partial));
  EXPECT_TRUE(await_eof(c.fd()));
  EXPECT_GE(ts.server->net_counters().timeouts_idle.load(), 1u);
}

TEST(NetServer, StalledReaderIsClosedByWriteStallTimeout) {
  NetServerOptions nopt;
  nopt.write_stall_timeout_ms = 100;
  nopt.idle_timeout_ms = 60'000;  // isolate the write-stall path
  nopt.tick_ms = 5;
  nopt.so_sndbuf = 4096;  // keep auto-tuned kernel buffers from hiding us
  TestServer ts(nopt);

  // A raw socket with a tiny receive buffer that never reads: responses
  // jam in the server's write buffer once the kernel buffers fill.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int tiny = 1;  // kernel clamps to its minimum, which is what we want
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ts.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Pipeline several max-size batches; their responses (64 KiB each)
  // cannot fit the jammed kernel buffers.
  const std::size_t per_frame = (1u << 20) / wire::kQueryRecordSize;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> qs(per_frame, {1, 2});
  std::vector<std::uint8_t> frames;
  for (std::uint32_t id = 0; id < 4; ++id) {
    wire::put_batch_request(frames, Verb::kAdjBatch, id, qs.data(),
                            qs.size());
  }
  std::size_t put = 0;
  while (put < frames.size()) {
    const ssize_t w = ::send(fd, frames.data() + put, frames.size() - put,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      put += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    break;
  }

  // The server must give up on us within the stall timeout (plus engine
  // time); poll the counter rather than sleeping a fixed amount.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ts.server->net_counters().timeouts_write.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(ts.server->net_counters().timeouts_write.load(), 1u);
  ::close(fd);
}

TEST(NetServer, ConnectionCapRejectsInBand) {
  NetServerOptions nopt;
  nopt.max_connections = 2;
  TestServer ts(nopt);

  NetClient a, b;
  ASSERT_TRUE(a.connect(ts.port()));
  ASSERT_TRUE(b.connect(ts.port()));
  NetResponse resp;
  bound_reads(a);
  ASSERT_TRUE(a.ping(1, resp));  // both are registered now

  NetClient over;
  ASSERT_TRUE(over.connect(ts.port()));  // TCP accept succeeds...
  bound_reads(over);
  // ...but the server answers kOverCapacity and closes.
  NetResponse rej;
  ASSERT_TRUE(over.read_response(rej));
  EXPECT_EQ(rej.header.verb, Verb::kError);
  EXPECT_EQ(rej.header.status,
            static_cast<std::uint8_t>(FrameStatus::kOverCapacity));
  EXPECT_TRUE(await_eof(over.fd()));
  // The counter is a relaxed atomic with no ordering against the
  // socket close; poll briefly rather than racing the IO thread.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ts.server->net_counters().rejected_accept.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(ts.server->net_counters().rejected_accept.load(), 1u);
}

// ------------------------------------------------- admission backpressure

TEST(NetServer, FullDispatchQueueShedsInBandWithOverloaded) {
  NetServerOptions nopt;
  nopt.dispatchers = 1;
  nopt.dispatch_queue_cap = 1;
  nopt.max_inflight_frames = 16;
  TestServer ts(nopt);

  // Stall the engine so the single dispatcher stays busy while we
  // pipeline more frames than the admission queue can hold.
  fault::FaultPlan plan;
  plan.stall_every = 1;
  plan.stall_ms = 30;
  plan.fault_budget = 64;
  fault::ScopedFault guard(plan);

  NetClient c;
  ASSERT_TRUE(c.connect(ts.port()));
  bound_reads(c);
  constexpr std::uint32_t kFrames = 10;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> qs(32, {1, 2});
  std::vector<std::uint8_t> bytes;
  for (std::uint32_t id = 0; id < kFrames; ++id) {
    wire::put_batch_request(bytes, Verb::kAdjBatch, id, qs.data(),
                            qs.size());
  }
  ASSERT_TRUE(c.send_bytes(bytes));

  std::size_t overloaded_frames = 0;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    NetResponse resp;
    ASSERT_TRUE(c.read_response(resp));
    ASSERT_EQ(resp.header.verb, Verb::kAdjBatch);
    ASSERT_EQ(resp.payload.size(), qs.size());
    bool all_overloaded = !resp.payload.empty();
    for (const std::uint8_t code : resp.payload) {
      all_overloaded = all_overloaded &&
                       code == static_cast<std::uint8_t>(
                                   ResultCode::kOverloaded);
    }
    if (all_overloaded) ++overloaded_frames;
  }
  EXPECT_GE(overloaded_frames, 1u);
  EXPECT_GE(ts.server->net_counters().rejected_admission.load(), 1u);
}

// ------------------------------------------------------------------ drain

TEST(NetServer, GracefulDrainCompletesInFlightWork) {
  NetServerOptions nopt;
  nopt.drain_timeout_ms = 8000;
  TestServer ts(nopt);

  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<bool> go{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      NetClient c;
      if (!c.connect(ts.port())) return;
      bound_reads(c);
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      const std::uint64_t n = ts.snap->size();
      std::uint32_t id = 0;
      while (go.load(std::memory_order_relaxed)) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> qs(32);
        for (auto& q : qs) {
          q.first = rng.next_below(n);
          q.second = rng.next_below(n);
        }
        NetResponse resp;
        if (!c.batch(Verb::kAdjBatch, id++, qs, resp)) break;  // drained
        if (resp.header.verb != Verb::kAdjBatch ||
            resp.payload.size() != qs.size()) {
          mismatches.fetch_add(1);
          break;
        }
        const auto expected = ts.oracle(qs);
        for (std::size_t i = 0; i < qs.size(); ++i) {
          if (resp.payload[i] !=
              static_cast<std::uint8_t>(adj_code(expected[i]))) {
            mismatches.fetch_add(1);
          }
        }
        completed.fetch_add(1);
      }
    });
  }
  // Let the storm build, then pull the plug mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ts.server->stop();
  ts.server->join();
  go.store(false);
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(completed.load(), 0u);
  // Every connection is gone and the counters balance.
  const NetCounters& net = ts.server->net_counters();
  EXPECT_EQ(net.open.load(), 0u);
  EXPECT_EQ(net.frames_in.load(), net.frames_out.load());
}

// ------------------------------------------------------------------ storm

TEST(NetServer, StormValidAndHostileClientsStayCorrect) {
  NetServerOptions nopt;
  nopt.idle_timeout_ms = 2000;
  nopt.tick_ms = 5;
  TestServer ts(nopt);

  constexpr int kValid = 32;
  constexpr int kHostile = 32;
  std::atomic<std::uint64_t> valid_ok{0};
  std::atomic<std::uint64_t> valid_failures{0};
  std::atomic<std::uint64_t> mismatches{0};

  std::vector<std::thread> threads;
  threads.reserve(kValid + kHostile);

  for (int t = 0; t < kValid; ++t) {
    threads.emplace_back([&, t] {
      NetClient c;
      if (!c.connect(ts.port())) {
        valid_failures.fetch_add(1);
        return;
      }
      bound_reads(c);
      Rng rng(static_cast<std::uint64_t>(t) * 31 + 5);
      const std::uint64_t n = ts.snap->size();
      for (std::uint32_t id = 0; id < 12; ++id) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> qs(24);
        for (auto& q : qs) {
          q.first = rng.next_below(n + 1);
          q.second = rng.next_below(n + 1);
        }
        NetResponse resp;
        if (!c.batch(Verb::kAdjBatch, id, qs, resp) ||
            resp.header.verb != Verb::kAdjBatch ||
            resp.payload.size() != qs.size()) {
          valid_failures.fetch_add(1);
          return;
        }
        const auto expected = ts.oracle(qs);
        for (std::size_t i = 0; i < qs.size(); ++i) {
          // Overloaded is a legitimate in-band answer under storm; any
          // other divergence from the oracle is a correctness bug.
          if (resp.payload[i] == static_cast<std::uint8_t>(
                                     ResultCode::kOverloaded)) {
            continue;
          }
          if (resp.payload[i] !=
              static_cast<std::uint8_t>(adj_code(expected[i]))) {
            mismatches.fetch_add(1);
          }
        }
        valid_ok.fetch_add(1);
      }
    });
  }

  for (int t = 0; t < kHostile; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) * 97 + 13);
      NetClient c;
      if (!c.connect(ts.port())) return;
      bound_reads(c, 3000);
      switch (t % 4) {
        case 0: {  // pure garbage
          std::vector<std::uint8_t> junk(256);
          for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
          c.send_bytes(junk);
          await_eof(c.fd());
          break;
        }
        case 1: {  // valid header, truncated payload, abrupt close
          std::vector<std::uint8_t> frame;
          wire::put_header(frame, Verb::kAdjBatch, FrameStatus::kOk, 1,
                           1024);
          frame.resize(frame.size() + 100, 0);  // 100 of 1024 bytes
          c.send_bytes(frame);
          c.close();
          break;
        }
        case 2: {  // oversize announcement
          std::vector<std::uint8_t> frame;
          wire::put_header(frame, Verb::kAdjBatch, FrameStatus::kOk, 2,
                           0xFFFFFFF0u);
          c.send_bytes(frame);
          await_eof(c.fd());
          break;
        }
        default: {  // bit-flipped valid frame
          std::vector<std::pair<std::uint64_t, std::uint64_t>> qs(8,
                                                                  {3, 4});
          std::vector<std::uint8_t> frame;
          wire::put_batch_request(frame, Verb::kAdjBatch, 3, qs.data(),
                                  qs.size());
          frame[rng.next_below(frame.size())] ^= 0xFF;
          c.send_bytes(frame);
          NetResponse resp;
          c.read_response(resp);  // error frame or a (corrupted) answer
          c.close();
          break;
        }
      }
    });
  }

  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(valid_failures.load(), 0u);
  EXPECT_EQ(valid_ok.load(), static_cast<std::uint64_t>(kValid) * 12);

  // The server survived and still answers a fresh client.
  NetClient after;
  ASSERT_TRUE(after.connect(ts.port()));
  bound_reads(after);
  NetResponse resp;
  ASSERT_TRUE(after.ping(999, resp));
  EXPECT_EQ(resp.header.request_id, 999u);
  EXPECT_GE(ts.server->net_counters().protocol_errors.load(), 1u);
}

// ------------------------------------------------------------------ chaos

TEST(NetServer, SocketChaosInjectionsNeverCrashTheServer) {
  TestServer ts;

  fault::FaultPlan plan;
  plan.seed = 99;
  plan.accept_fail_every = 3;
  plan.wire_flip_every = 5;
  plan.wire_short_every = 4;
  plan.fault_budget = 60;
  {
    fault::ScopedFault guard(plan);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(static_cast<std::uint64_t>(t) + 41);
        const std::uint64_t n = ts.snap->size();
        for (int attempt = 0; attempt < 6; ++attempt) {
          NetClient c;
          if (!c.connect(ts.port())) continue;  // injected accept failure
          bound_reads(c, 3000);
          std::vector<std::pair<std::uint64_t, std::uint64_t>> qs(16);
          for (auto& q : qs) {
            q.first = rng.next_below(n);
            q.second = rng.next_below(n);
          }
          NetResponse resp;
          // Wire flips may corrupt this request in flight; any outcome
          // short of a server crash is acceptable here.
          c.batch(Verb::kAdjBatch, static_cast<std::uint32_t>(attempt), qs,
                  resp);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_GT(fault::service_fault_counters().total(), 0u);
  }

  // Faults disabled: the server must serve a fresh client correctly.
  NetClient c;
  ASSERT_TRUE(c.connect(ts.port()));
  bound_reads(c);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> qs = {{0, 1},
                                                                   {2, 3}};
  NetResponse resp;
  ASSERT_TRUE(c.batch(Verb::kAdjBatch, 1, qs, resp));
  ASSERT_EQ(resp.payload.size(), qs.size());
  const auto expected = ts.oracle(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(resp.payload[i],
              static_cast<std::uint8_t>(adj_code(expected[i])));
  }
}

// ------------------------------------------------------------- stats JSON

TEST(NetCounters, JsonShapeCarriesEveryConnectionPlaneField) {
  NetCounters net;
  net.accepted.store(3);
  net.rejected_accept.store(1);
  net.accept_errors.store(8);
  net.rejected_admission.store(2);
  net.protocol_errors.store(4);
  net.timeouts_idle.store(5);
  net.timeouts_write.store(6);
  net.frames_in.store(70);
  net.frames_out.store(71);
  net.bytes_in.store(1000);
  net.bytes_out.store(2000);
  net.open.store(9);

  EXPECT_EQ(net.to_json(),
            "{\"accepted\":3,\"open\":9,"
            "\"rejected_accept\":1,\"accept_errors\":8,"
            "\"rejected_admission\":2,"
            "\"protocol_errors\":4,\"timeouts_idle\":5,"
            "\"timeouts_write\":6,\"frames_in\":70,"
            "\"frames_out\":71,\"bytes_in\":1000,"
            "\"bytes_out\":2000}");
}

}  // namespace
}  // namespace plg::service
