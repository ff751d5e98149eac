// Multi-process chaos storm for the distributed serving tier.
//
// Real `plgtool serve --tcp` child processes over disjoint v3
// partitions, an in-process Router hosted behind a NetServer front-end
// (the `plgtool route` shape), and 64 concurrent client connections.
// Chaos is applied at the node level: one child is SIGKILL'd (connects
// refuse fast) and another SIGSTOP'd (the kernel keeps its sockets
// alive, so requests stall — the hedging/timeout path, not the
// connect-failure path). A second storm runs a child under a seeded
// `accept-fail` FaultPlan.
//
// Every completed query is checked against the in-process label oracle.
// After node 0 (killed) and node 1 (stopped), the expected result is
// EXACT: a pair whose eligible set contains the live node 2 must answer
// correctly, and a pair owned only by dead nodes must answer
// kUnavailable — never a hang, never a wrong answer. (A wire-flip plan
// is deliberately not stormed here: it corrupts inbound *request*
// payloads before any decode, turning (u,v) into a different valid
// query, so no end-to-end oracle can exist for it. The protocol-error
// handling it would exercise is covered deterministically by the
// in-process router tests and the server-side protocol fuzz.)
//
// Sized for single-core CI runners under TSan/ASan: quarantine
// thresholds make the router stop paying per-try timeouts after the
// first few failures per dead node.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/config.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "core/thin_fat.h"
#include "gen/chung_lu.h"
#include "service/engine.h"
#include "service/frame.h"
#include "service/net_client.h"
#include "service/net_server.h"
#include "util/random.h"

namespace plg::cluster {
namespace {

namespace wire = service::wire;
using service::NetClient;
using service::NetResponse;

using Clock = std::chrono::steady_clock;

std::string fresh_dir(const char* tag) {
  std::string tmpl = testing::TempDir() + "plg_" + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  EXPECT_NE(::mkdtemp(buf.data()), nullptr);
  return std::string(buf.data());
}

/// One `plgtool serve --tcp 0` child. stderr is piped so the parent can
/// parse the announced ephemeral port. Destruction is unconditional
/// SIGCONT + SIGKILL + waitpid, so a failing test never leaks children.
class ChildNode {
 public:
  ChildNode() = default;
  ChildNode(const ChildNode&) = delete;
  ChildNode& operator=(const ChildNode&) = delete;

  ~ChildNode() { reap(); }

  bool spawn(const std::string& store_path,
             const std::string& fault_spec = "") {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid_ == 0) {
      // Child: route stderr into the pipe, exec the real binary.
      ::dup2(fds[1], STDERR_FILENO);
      std::vector<std::string> args = {PLGTOOL_BIN,  "serve",     store_path,
                                       "--tcp",      "0",         "--shards",
                                       "4",          "--threads", "2"};
      if (!fault_spec.empty()) {
        args.push_back("--fault");
        args.push_back(fault_spec);
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::_Exit(127);  // exec failed
    }
    ::close(fds[1]);
    err_fd_ = fds[0];
    return parse_port();
  }

  std::uint16_t port() const noexcept { return port_; }
  pid_t pid() const noexcept { return pid_; }

  // Both return once the signal has taken effect. kill() only queues it,
  // and a loaded machine can leave the child running long enough to
  // answer the first requests sent after it "died". kill9 waits for the
  // exit without reaping it (WNOWAIT), so reap() still owns the pid.
  void kill9() const {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    siginfo_t info{};
    ::waitid(P_PID, static_cast<id_t>(pid_), &info, WEXITED | WNOWAIT);
  }
  void stop_clock() const {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGSTOP);
    int status = 0;
    ::waitpid(pid_, &status, WUNTRACED);
  }

  void reap() {
    if (pid_ > 0) {
      ::kill(pid_, SIGCONT);
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (err_fd_ >= 0) {
      ::close(err_fd_);
      err_fd_ = -1;
    }
  }

 private:
  /// Reads the child's stderr until the "listening on 127.0.0.1:PORT"
  /// banner appears (bounded; a child that dies early fails here).
  bool parse_port() {
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    std::string seen;
    while (Clock::now() < deadline) {
      pollfd p{};
      p.fd = err_fd_;
      p.events = POLLIN;
      const int rc = ::poll(&p, 1, 100);
      if (rc < 0 && errno != EINTR) return false;
      if (rc <= 0) continue;
      char buf[512];
      const ssize_t r = ::read(err_fd_, buf, sizeof(buf));
      if (r == 0) return false;  // child exited before listening
      if (r < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return false;
      }
      seen.append(buf, static_cast<std::size_t>(r));
      const std::size_t at = seen.find("listening on 127.0.0.1:");
      if (at == std::string::npos) continue;
      const std::size_t digits = at + std::strlen("listening on 127.0.0.1:");
      if (seen.size() <= digits) continue;  // port split across reads
      unsigned long port = 0;
      std::size_t i = digits;
      bool complete = false;
      for (; i < seen.size(); ++i) {
        if (seen[i] < '0' || seen[i] > '9') {
          complete = true;
          break;
        }
        port = port * 10 + static_cast<unsigned long>(seen[i] - '0');
      }
      if (!complete) continue;  // more digits may follow
      if (port == 0 || port > 65535) return false;
      port_ = static_cast<std::uint16_t>(port);
      return true;
    }
    return false;
  }

  pid_t pid_ = -1;
  int err_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// The full multi-process cluster: corpus, partitions, N serve
/// children, and the Router front-end served over TCP.
struct StormCluster {
  Graph g;
  ThinFatEncoding enc;
  ClusterConfig cfg;
  std::vector<std::unique_ptr<ChildNode>> children;
  std::unique_ptr<Router> router;
  std::unique_ptr<service::NetServer> front;

  explicit StormCluster(std::uint32_t n_nodes, std::uint32_t repl,
                        const std::vector<std::string>& faults = {}) {
    Rng rng(17);
    g = chung_lu_power_law(400, 2.5, 8.0, rng);
    enc = thin_fat_encode(g, 12);

    cfg.nodes.assign(n_nodes, NodeEndpoint{});
    cfg.replication = repl;
    cfg.key_shards = 64;
    cfg.seed = 0x5eed;
    const std::string dir = fresh_dir("storm");
    write_partitions(enc.labeling, cfg, dir, 4);

    for (std::uint32_t i = 0; i < n_nodes; ++i) {
      auto child = std::make_unique<ChildNode>();
      const std::string fault = i < faults.size() ? faults[i] : "";
      EXPECT_TRUE(child->spawn(partition_path(dir, i), fault))
          << "node " << i << " failed to start";
      cfg.nodes[i] = NodeEndpoint{"127.0.0.1", child->port()};
      children.push_back(std::move(child));
    }

    RouterOptions ropt;
    ropt.per_try_ms = 300;
    ropt.batch_budget_ms = 10'000;
    ropt.connect_timeout_ms = 300;
    ropt.retry.max_attempts = 3;
    ropt.retry.base_ms = 1;
    ropt.retry.max_ms = 10;
    ropt.hedge.min_us = 200;
    ropt.hedge.max_us = 50'000;
    ropt.suspect_after = 1;
    ropt.quarantine_after = 2;
    ropt.probe_timeout_ms = 100;
    ropt.flow_threads = 8;
    router = std::make_unique<Router>(cfg, ropt);

    service::NetServerOptions nopt;
    nopt.port = 0;
    nopt.dispatchers = 8;
    front = std::make_unique<service::NetServer>(*router, nopt);
    front->start();
  }

  ~StormCluster() {
    front->stop();
    front->join();
    front.reset();
    router.reset();  // joins the prober before the children die
  }

  bool oracle(std::uint64_t u, std::uint64_t v) const {
    return thin_fat_adjacent(enc.labeling[static_cast<Vertex>(u)],
                             enc.labeling[static_cast<Vertex>(v)]);
  }
};

/// What a chaos phase must answer for one pair. kCorrectOrUnavailable
/// covers pairs whose only eligible node is under transient chaos: a
/// quarantine window may answer kUnavailable, but a served answer must
/// still match the oracle — never wrong, never hung.
enum class Expect : std::uint8_t {
  kCorrect,
  kUnavailableOnly,
  kCorrectOrUnavailable,
};

struct StormErrors {
  std::atomic<std::uint64_t> count{0};
  util::Mutex mu;
  std::vector<std::string> first PLG_GUARDED_BY(mu);

  void add(std::string msg) {
    count.fetch_add(1, std::memory_order_relaxed);
    util::MutexLock lk(mu);
    if (first.size() < 8) first.push_back(std::move(msg));
  }

  std::string report() {
    util::MutexLock lk(mu);
    std::string out;
    for (const std::string& s : first) {
      out += s;
      out += '\n';
    }
    return out;
  }
};

/// One storm pass: `conns` client threads, each its own connection,
/// `batches` batches of `batch_size` random pairs. `check` classifies
/// each pair into the allowed outcomes; nullptr = all must be correct.
void run_storm(StormCluster& sc, StormErrors& errs, int conns, int batches,
               std::size_t batch_size, std::uint64_t seed_base,
               Expect (*classify)(const StormCluster&, std::uint64_t,
                                  std::uint64_t)) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(conns));
  for (int t = 0; t < conns; ++t) {
    threads.emplace_back([&sc, &errs, t, batches, batch_size, seed_base,
                          classify] {
      NetClient c;
      c.set_timeout_ms(30'000);
      if (!c.connect(sc.front->port())) {
        errs.add("conn " + std::to_string(t) + ": connect failed");
        return;
      }
      Rng rng(seed_base + static_cast<std::uint64_t>(t));
      for (int b = 0; b < batches; ++b) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> qs(batch_size);
        for (auto& q : qs) {
          q.first = rng.next_below(sc.g.num_vertices());
          q.second = rng.next_below(sc.g.num_vertices());
        }
        NetResponse resp;
        const auto t0 = Clock::now();
        if (!c.batch(wire::Verb::kAdjBatch,
                     static_cast<std::uint32_t>(b + 1), qs, resp)) {
          errs.add("conn " + std::to_string(t) + " batch " +
                   std::to_string(b) + ": transport failure");
          return;
        }
        const auto ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - t0)
                .count();
        if (ms >= 15'000) {
          errs.add("conn " + std::to_string(t) + " batch " +
                   std::to_string(b) + ": took " + std::to_string(ms) +
                   "ms");
        }
        if (resp.header.verb != wire::Verb::kAdjBatch ||
            resp.header.request_id != static_cast<std::uint32_t>(b + 1) ||
            resp.payload.size() != qs.size()) {
          errs.add("conn " + std::to_string(t) + " batch " +
                   std::to_string(b) + ": bad response frame");
          return;
        }
        for (std::size_t i = 0; i < qs.size(); ++i) {
          const auto code =
              static_cast<wire::ResultCode>(resp.payload[i]);
          const auto want = sc.oracle(qs[i].first, qs[i].second)
                                ? wire::ResultCode::kYes
                                : wire::ResultCode::kNo;
          const Expect expect =
              classify == nullptr
                  ? Expect::kCorrect
                  : classify(sc, qs[i].first, qs[i].second);
          bool ok = false;
          switch (expect) {
            case Expect::kCorrect:
              ok = code == want;
              break;
            case Expect::kUnavailableOnly:
              ok = code == wire::ResultCode::kUnavailable;
              break;
            case Expect::kCorrectOrUnavailable:
              ok = code == want || code == wire::ResultCode::kUnavailable;
              break;
          }
          if (!ok) {
            errs.add("conn " + std::to_string(t) + " batch " +
                     std::to_string(b) + " query " + std::to_string(i) +
                     " (" + std::to_string(qs[i].first) + "," +
                     std::to_string(qs[i].second) + "): got code " +
                     std::to_string(resp.payload[i]));
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

TEST(ClusterStorm, KillAndStopNodesUnderSixtyFourConnections) {
  StormCluster sc(3, 2);
  StormErrors errs;

  // Phase 1: all nodes up — every query correct.
  run_storm(sc, errs, 64, 3, 32, 1'000, nullptr);
  ASSERT_EQ(errs.count.load(), 0u) << errs.report();

  // Chaos: node 0 dies hard, node 1 freezes mid-service.
  sc.children[0]->kill9();
  sc.children[1]->stop_clock();

  // Phase 2: exact split. A pair whose eligible set contains the live
  // node 2 must still answer correctly (failover + hedging); a pair
  // owned only by dead nodes must answer kUnavailable — bounded, never
  // hung, never wrong.
  run_storm(sc, errs, 64, 3, 32, 2'000,
            [](const StormCluster& s, std::uint64_t u, std::uint64_t v) {
              const auto elig = s.cfg.eligible_nodes(u, v);
              return std::find(elig.begin(), elig.end(), 2u) != elig.end()
                         ? Expect::kCorrect
                         : Expect::kUnavailableOnly;
            });
  EXPECT_EQ(errs.count.load(), 0u) << errs.report();

  // The health machine saw it all: both chaos nodes quarantined, and
  // the router did real retry work to keep answers flowing.
  EXPECT_EQ(sc.router->node_state(0), NodeState::kQuarantined);
  EXPECT_EQ(sc.router->node_state(1), NodeState::kQuarantined);
  EXPECT_GE(sc.router->node_stats(0).to_quarantined, 1u);
  EXPECT_GE(sc.router->node_stats(1).to_quarantined, 1u);
  std::uint64_t retries = 0;
  for (std::uint32_t n = 0; n < 3; ++n) {
    retries += sc.router->node_stats(n).retries;
  }
  EXPECT_GE(retries, 1u);

  // The composed stats survive the storm (the observability contract the
  // CI job curls mid-incident).
  NetClient c;
  c.set_timeout_ms(10'000);
  ASSERT_TRUE(c.connect(sc.front->port()));
  std::string json;
  ASSERT_TRUE(c.stats_json(99, json));
  EXPECT_NE(json.find("\"cluster\":{"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"quarantined\""), std::string::npos);
}

TEST(ClusterStorm, AcceptFailChaosNodeStaysOracleCorrect) {
  // Node 0 runs a seeded FaultPlan that fails every 2nd accept(): fresh
  // connections to it die at birth, pooled ones keep working. Accept
  // failures never corrupt, so every pair with a clean replica (node 1
  // or 2 eligible) must answer correctly — failover absorbs the chaos.
  // Pairs owned ONLY by node 0 are allowed a transient kUnavailable:
  // two accept failures landing back-to-back (a race across 32
  // connections) quarantine the node until the prober re-admits it.
  // Served answers must still match the oracle — never wrong.
  StormCluster sc(3, 2, {"seed=7,accept-fail=2"});
  StormErrors errs;

  run_storm(sc, errs, 32, 3, 32, 3'000,
            [](const StormCluster& s, std::uint64_t u, std::uint64_t v) {
              const auto elig = s.cfg.eligible_nodes(u, v);
              for (const std::uint32_t n : elig) {
                if (n != 0u) return Expect::kCorrect;
              }
              return Expect::kCorrectOrUnavailable;
            });
  ASSERT_EQ(errs.count.load(), 0u) << errs.report();
}

}  // namespace
}  // namespace plg::cluster
