// bench_stack: one oracle-checked benchmark of the label-serving stack.
//
//   bench_stack --workload W --seed S --seconds T --out PATH
//               [--trace PATH] [--workdir DIR] [--smoke]
//   bench_stack --self-test
//
// One process runs one workload, so peak RSS is the workload's own. The
// graph and the query streams are a pure function of --seed. Without
// --trace the run measures the end-to-end metrics: set-up time (median of
// the quiet ones among kSetupReps set-ups), closed-loop throughput and
// per-frame round trip, open-loop latency at a fixed rate, all over the
// windows the hypervisor left alone (StealMonitor), peak RSS and store
// size. With
// --trace it replays the same streams layer by layer — L0 core decode, L1
// one-worker engine, L2 pooled engine, L3 frame codec, L4 TCP plane, L5
// router (route only) — records spans around each call, and writes the
// per-layer metrics plus trace.json. Every answer at every layer is
// compared with the paper's decoders; a wrong answer exits 1.
//
// README.md lists the workloads, why each exists, and which end-to-end
// metric each per-layer metric should move.
#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/config.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "core/distance_scheme.h"
#include "core/label_view.h"
#include "core/thin_fat.h"
#include "gen/chung_lu.h"
#include "service/engine.h"
#include "service/frame.h"
#include "service/net_client.h"
#include "service/net_server.h"
#include "service/snapshot.h"
#include "store/store_writer.h"
#include "streams.h"
#include "trace.h"
#include "util/random.h"

namespace plg::benchstack {
namespace {

using service::BatchHandler;
using service::BatchOptions;
using service::NetClient;
using service::NetResponse;
using service::NetServer;
using service::NetServerOptions;
using service::QueryKind;
using service::QueryRequest;
using service::QueryResult;
using service::QueryService;
using service::ServiceOptions;
using service::ServiceStats;
using service::Snapshot;
namespace wire = service::wire;

// Shared settings: every single-node workload serves with one engine worker
// behind one dispatcher, and the load generator is one thread on one
// connection, so one frame is in flight and no frame waits on a second
// worker. The reference host's 4 vCPUs are shared with other tenants and
// lose CPU time to them (StealMonitor); two connections, two dispatchers
// and two workers per frame turned each lost slice into a stalled frame,
// and the runs measured the host rather than the stack (README.md). Set-up
// (encode, admission, reloads) uses kSetupThreads, and the traced run's L2
// layer a pool of kPoolThreads workers.
constexpr unsigned kConns = 1;
constexpr unsigned kEngineThreads = 1;
constexpr unsigned kDispatchers = 1;
constexpr unsigned kSetupThreads = 2;
constexpr unsigned kPoolThreads = 2;
// route: N=3 nodes at R=2, each node one worker and one dispatcher, behind
// a Router with two flow threads and default hedging.
constexpr std::uint32_t kRouteNodes = 3;
constexpr std::uint32_t kRouteReplication = 2;
constexpr std::uint32_t kRouteKeyShards = 64;
constexpr unsigned kRouteFlowThreads = 2;

constexpr double kAlpha = 2.5;
constexpr double kAvgDeg = 8.0;
constexpr int kSetupReps = 5;
constexpr std::size_t kChunk = 256;  ///< L0 queries per span
constexpr std::size_t kMaxOutstanding = 64;  ///< open loop, per connection
constexpr std::uint32_t kIoTimeoutMs = 10'000;
constexpr std::size_t kCrossCheckSample = 64;
/// Window of a measured phase of a workload without reloads; with reloads
/// a window is one reload period and holds one reload.
constexpr double kWindowS = 1.0;
constexpr int kStealSampleMs = 100;
/// A window or set-up with at most this share of the machine stolen by the
/// hypervisor counts as quiet; quiet stretches of the reference host read
/// 0.2-0.5%.
constexpr double kQuietSteal = 0.02;
// Share of --seconds each end-to-end phase runs.
constexpr double kClosedShare = 0.35;
constexpr double kOpenShare = 0.65;
// Relative length of each traced phase; run_traced scales them so the
// phases fill --seconds. The L4 slice runs four times (two rounds of an
// untraced and a traced slice); L4.single and L5 run on route only.
constexpr double kTraceL0 = 0.08, kTraceL1 = 0.08, kTraceL2 = 0.12,
                 kTraceL3 = 0.05, kTraceL4Slice = 0.075, kTraceOpen = 0.1,
                 kTraceL4Single = 0.1, kTraceL5 = 0.12;

struct WorkloadSpec {
  const char* name;
  QueryKind kind;
  unsigned log2_n;
  std::uint64_t tau;  ///< thin/fat threshold (adjacency)
  std::uint64_t f;    ///< hop bound (distance)
  std::size_t shards;       ///< v3 shards per store file
  Mix mix;
  std::size_t frame;        ///< queries per frame
  std::size_t pool_frames;  ///< frames per connection stream, cycled
  double open_fps;          ///< open-loop frames/s over all connections
  bool route;
  double reload_every_s;    ///< hot reload period under load; 0 = none
};

// The open-loop rates are about 40% of each workload's closed-loop
// capacity on the reference host (README.md), so a host that runs slower
// for a while queues frames without overloading the stack.
constexpr WorkloadSpec kWorkloads[] = {
    {"adj-bulk", QueryKind::kAdjacency, 20, 48, 0, 16, Mix::kUniform, 2048,
     256, 220.0, false, 0.0},
    {"adj-hub", QueryKind::kAdjacency, 17, 12, 0, 16, Mix::kDegreeBiased,
     2048, 128, 300.0, false, 0.0},
    {"adj-frames", QueryKind::kAdjacency, 17, 12, 0, 16, Mix::kDegreeBiased,
     32, 8192, 5000.0, false, 0.0},
    {"dist-hub", QueryKind::kDistance, 16, 0, 2, 16, Mix::kTwoHop, 512, 64,
     80.0, false, 2.0},
    {"route", QueryKind::kAdjacency, 17, 12, 0, 8, Mix::kDegreeBiased, 2048,
     128, 220.0, true, 0.0},
};

/// The smoke test's version of a workload: n=2^12, small streams, a low
/// open-loop rate.
WorkloadSpec smoke_scaled(WorkloadSpec w) {
  w.log2_n = 12;
  w.pool_frames = std::max<std::size_t>(2, 4096 / w.frame);
  w.open_fps = 50.0;
  w.reload_every_s = w.reload_every_s > 0.0 ? 0.25 : 0.0;
  return w;
}

wire::Verb verb_of(const WorkloadSpec& w) {
  return w.kind == QueryKind::kAdjacency ? wire::Verb::kAdjBatch
                                         : wire::Verb::kDistBatch;
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// Exact q-quantile by nearest rank (sorts `v`).
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) +
                                    0.5)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

/// A private directory for the run's store files, removed on every exit
/// path that unwinds the stack.
class TempDir {
 public:
  explicit TempDir(const std::string& base) {
    std::filesystem::create_directories(base);
    std::string tmpl = base + "/bench_stack.XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + base);
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// The first wrong answer any thread saw; its presence fails the run.
class Failure {
 public:
  void report(std::string what) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!seen_.exchange(true)) what_ = std::move(what);
  }
  bool seen() const noexcept { return seen_.load(std::memory_order_relaxed); }
  std::string what() const {
    std::lock_guard<std::mutex> lk(mu_);
    return what_;
  }

 private:
  mutable std::mutex mu_;
  std::atomic<bool> seen_{false};
  std::string what_;
};

std::string describe_wrong(const char* where, const Stream& s, std::size_t f,
                           std::size_t i, const std::string& got) {
  const Pair& q = s.frame_queries(f)[i];
  return std::string(where) + ": wrong answer for (" + std::to_string(q.first) +
         ", " + std::to_string(q.second) + "): expected " +
         std::to_string(expected_answer(s, f, i)) + ", got " + got;
}

std::string payload_answer(const Stream& s, const std::uint8_t* payload,
                           std::size_t i) {
  const std::uint8_t* rec = payload + i * s.record;
  if (s.record == 1) return "code " + std::to_string(rec[0]);
  return std::to_string(static_cast<std::int64_t>(wire::get_u64(rec + 1)));
}

// ------------------------------------------------------------- set-up

struct Encoded {
  Labeling labeling;
  std::size_t num_fat = 0;
};

Encoded encode(const WorkloadSpec& w, const Graph& g) {
  if (w.kind == QueryKind::kAdjacency) {
    ThinFatEncoding e = thin_fat_encode_parallel(g, w.tau, kSetupThreads);
    return {std::move(e.labeling), e.num_fat};
  }
  DistanceEncoding e = DistanceScheme(w.f, kAlpha).encode(g);
  return {std::move(e.labeling), e.num_fat};
}

/// One QueryService behind its own NetServer. Members are destroyed in
/// reverse order, so the server stops before the engine it calls.
struct Served {
  std::string path;
  std::shared_ptr<const Snapshot> snap;
  std::unique_ptr<QueryService> svc;
  std::unique_ptr<NetServer> server;
};

/// What a workload serves: one node, or (route) three nodes behind a
/// Router behind a front NetServer. Declaration order is the reverse of
/// shutdown order: the front stops first, then the router, then the nodes.
struct Stack {
  std::vector<Served> nodes;
  std::unique_ptr<cluster::Router> router;
  std::unique_ptr<NetServer> front;
  double store_mb = 0.0;

  NetServer& entry() { return front ? *front : *nodes.front().server; }
};

struct SetupTimes {
  double encode_s = 0.0;
  double write_s = 0.0;
  double admit_s = 0.0;
  double first_touch_s = 0.0;
  double serve_s = 0.0;  ///< servers started and the first answer back

  double total() const {
    return encode_s + write_s + admit_s + first_touch_s + serve_s;
  }
};

/// Runs every shard's lazy CRC, so no measured query pays for it.
void touch_every_shard(const Snapshot& s) {
  const store::ShardMap& map = s.shard_map();
  for (std::size_t sh = 0; sh < s.num_shards(); ++sh) {
    if (map.shard_size(sh) > 0) (void)s.view(map.shard_begin(sh));
  }
}

/// Sends frame 0 of `s` and checks the response's shape (its answers are
/// checked against the oracle once the oracle exists).
void first_answer(std::uint16_t port, wire::Verb verb, const Stream& s) {
  NetClient c;
  c.set_timeout_ms(kIoTimeoutMs);
  std::vector<std::uint8_t> bytes;
  wire::put_batch_request(bytes, verb, 1, s.frame_queries(0), s.frame);
  NetResponse r;
  if (!c.connect(port) || !c.send_bytes(bytes) || !c.read_response(r) ||
      r.header.verb != verb || r.payload.size() != s.frame_expect_bytes()) {
    throw std::runtime_error("set-up: no well-formed first answer");
  }
  for (std::size_t i = 0; i < s.frame; ++i) {
    const auto code = static_cast<wire::ResultCode>(r.payload[i * s.record]);
    if (code != wire::ResultCode::kYes && code != wire::ResultCode::kNo) {
      throw std::runtime_error("set-up: first answer is not kOk");
    }
  }
}

/// Writes `lab` as v3 store file(s) under `dir`, admits and warms them,
/// and starts the servers; returns once the first answer is back.
std::unique_ptr<Stack> serve_labeling(const WorkloadSpec& w, bool route,
                                      const Labeling& lab,
                                      const std::string& dir,
                                      const Stream& probe, SetupTimes& t) {
  std::filesystem::create_directories(dir);
  auto st = std::make_unique<Stack>();
  cluster::ClusterConfig cfg;
  cfg.nodes.assign(kRouteNodes, cluster::NodeEndpoint{});
  cfg.replication = kRouteReplication;
  cfg.key_shards = kRouteKeyShards;

  const std::int64_t t0 = now_ns();
  std::vector<std::string> paths;
  if (route) {
    for (const auto& p : cluster::write_partitions(lab, cfg, dir, w.shards)) {
      paths.push_back(p.path);
    }
  } else {
    paths.push_back(dir + "/store.plgl");
    store::StoreWriter::write_file(paths.back(), lab, w.shards);
  }
  const std::int64_t t1 = now_ns();
  for (const std::string& p : paths) {
    Served s;
    s.path = p;
    s.snap = Snapshot::from_file(p, w.shards, StoreVerify::kStrict,
                                 /*allow_quarantine=*/false, kSetupThreads);
    st->store_mb += static_cast<double>(std::filesystem::file_size(p)) / 1e6;
    st->nodes.push_back(std::move(s));
  }
  const std::int64_t t2 = now_ns();
  for (const Served& s : st->nodes) touch_every_shard(*s.snap);
  const std::int64_t t3 = now_ns();
  for (Served& s : st->nodes) {
    ServiceOptions so;
    so.threads = kEngineThreads;
    so.kind = w.kind;
    s.svc = std::make_unique<QueryService>(s.snap, so);
    NetServerOptions no;
    no.dispatchers = kDispatchers;
    s.server = std::make_unique<NetServer>(*s.svc, no);
    s.server->start();
  }
  if (route) {
    for (std::uint32_t i = 0; i < kRouteNodes; ++i) {
      cfg.nodes[i] = {"127.0.0.1", st->nodes[i].server->port()};
    }
    cluster::RouterOptions ro;
    ro.kind = w.kind;
    ro.flow_threads = kRouteFlowThreads;
    st->router = std::make_unique<cluster::Router>(cfg, ro);
    NetServerOptions fo;
    fo.dispatchers = kDispatchers;
    st->front = std::make_unique<NetServer>(*st->router, fo);
    st->front->start();
  }
  first_answer(st->entry().port(), verb_of(w), probe);
  const std::int64_t t4 = now_ns();
  t.write_s = seconds_between(t0, t1);
  t.admit_s = seconds_between(t1, t2);
  t.first_touch_s = seconds_between(t2, t3);
  t.serve_s = seconds_between(t3, t4);
  return st;
}

// ------------------------------------------------------------ load

/// A connection's position in its stream. It persists across phases, so
/// each phase continues the seeded stream where the last one stopped.
struct Cursor {
  std::size_t frame = 0;
  std::uint32_t request_id = 1;
};

/// One answered frame, as the load generator saw it.
struct FrameDone {
  std::int64_t end_ns = 0;
  double latency_us = 0.0;
  std::uint64_t ok = 0;  ///< correct answers in the frame
};

// --------------------------------------------------------------- steal

/// The machine's steal time, CPU time the hypervisor gave to other guests,
/// sampled from /proc/stat every kStealSampleMs on a background thread
/// from construction until stop(). Other tenants of the reference host take
/// up to a third of its CPUs for a minute at a time, and a phase that loses
/// them runs up to 3x slower (README.md). Where /proc/stat has no steal
/// column every interval reads 0.
class StealMonitor {
 public:
  StealMonitor() : thread_([this](std::stop_token st) { run(st); }) {}
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  void stop() {
    thread_.request_stop();
    if (thread_.joinable()) thread_.join();
  }

  /// Share of the machine's CPU time stolen in about [a_ns, b_ns): from
  /// the last sample at or before a_ns to the first at or after b_ns. Call
  /// after stop().
  double share(std::int64_t a_ns, std::int64_t b_ns) const {
    if (samples_.size() < 2) return 0.0;
    auto hi = std::lower_bound(
        samples_.begin(), samples_.end(), b_ns,
        [](const Sample& s, std::int64_t t) { return s.t_ns < t; });
    if (hi == samples_.end()) --hi;
    auto lo = std::upper_bound(
        samples_.begin(), samples_.end(), a_ns,
        [](std::int64_t t, const Sample& s) { return t < s.t_ns; });
    if (lo != samples_.begin()) --lo;
    if (hi->t_ns <= lo->t_ns) return 0.0;
    const double cpu_s = seconds_between(lo->t_ns, hi->t_ns) *
                         static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
    const double stolen_s = static_cast<double>(hi->ticks - lo->ticks) /
                            static_cast<double>(::sysconf(_SC_CLK_TCK));
    return ratio(stolen_s, cpu_s);
  }

 private:
  struct Sample {
    std::int64_t t_ns;
    std::uint64_t ticks;
  };

  /// The steal field of /proc/stat's all-CPU line, in clock ticks.
  static std::uint64_t read_ticks() {
    std::ifstream f("/proc/stat");
    std::string cpu;
    std::uint64_t v[8] = {};  // user nice system idle iowait irq softirq steal
    f >> cpu;
    for (std::uint64_t& x : v) f >> x;
    return f && cpu == "cpu" ? v[7] : 0;
  }

  void run(std::stop_token st) {
    std::mutex mu;
    std::condition_variable_any cv;
    std::unique_lock<std::mutex> lk(mu);
    do {
      samples_.push_back({now_ns(), read_ticks()});
    } while (!cv.wait_for(lk, st, std::chrono::milliseconds(kStealSampleMs),
                          [] { return false; }) &&
             !st.stop_requested());
    samples_.push_back({now_ns(), read_ticks()});
  }

  std::vector<Sample> samples_;  // written by the thread until stop()
  std::jthread thread_;
};

/// Which of a phase's windows (or set-ups) the end-to-end metrics use:
/// every one with at most kQuietSteal of the machine stolen or, when fewer
/// than half are that quiet, the least-stolen half.
std::vector<bool> quiet(const std::vector<double>& steal) {
  std::vector<bool> use(steal.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    use[i] = steal[i] <= kQuietSteal;
    if (use[i]) ++n;
  }
  const std::size_t half = (steal.size() + 1) / 2;
  if (n >= half) return use;
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return steal[a] < steal[b];
  });
  std::fill(use.begin(), use.end(), false);
  for (std::size_t i = 0; i < half; ++i) use[order[i]] = true;
  return use;
}

/// A measured phase cut into consecutive windows from its start, and which
/// of them the end-to-end metrics use.
struct Windows {
  std::int64_t start_ns = 0;
  std::int64_t window_ns = 1;
  std::vector<double> steal;  ///< share of the machine stolen, per window
  std::vector<bool> use;

  Windows(std::int64_t start, double wall_s, double window_s,
          const StealMonitor& m)
      : start_ns(start) {
    const auto n = static_cast<std::size_t>(wall_s / window_s);
    window_ns = std::max<std::int64_t>(
        1, static_cast<std::int64_t>((n == 0 ? wall_s : window_s) * 1e9));
    for (std::size_t k = 0; k < std::max<std::size_t>(n, 1); ++k) {
      const std::int64_t a = start + static_cast<std::int64_t>(k) * window_ns;
      steal.push_back(m.share(a, a + window_ns));
    }
    use = quiet(steal);
  }

  /// The window holding time t, or size() when t is outside every window.
  std::size_t of(std::int64_t t) const {
    if (t < start_ns) return size();
    return std::min(static_cast<std::size_t>((t - start_ns) / window_ns),
                    size());
  }
  std::size_t size() const noexcept { return use.size(); }
  std::size_t used() const {
    return static_cast<std::size_t>(std::count(use.begin(), use.end(), true));
  }
  double mean_steal() const {
    double s = 0.0;
    for (double x : steal) s += x;
    return ratio(s, static_cast<double>(size()));
  }
  std::string json() const {
    return JsonObject()
        .integer("windows", size())
        .integer("used", used())
        .num("window_s", static_cast<double>(window_ns) * 1e-9)
        .num("steal_pct", 100.0 * mean_steal())
        .done();
  }
};

struct Load {
  std::uint64_t queries = 0;  ///< attempted
  std::uint64_t ok = 0;       ///< kOk and equal to the oracle
  std::uint64_t failed = 0;   ///< non-kOk, or lost to a transport failure
  std::vector<FrameDone> done;  ///< network phases only
  std::vector<double> late_us;  ///< open loop: send time minus due time
  std::int64_t start_ns = 0;
  double wall_s = 0.0;

  void count(const Verdict& v, std::size_t frame) {
    queries += frame;
    ok += v.ok;
    failed += v.not_ok;
  }

  void absorb(Load&& o) {
    queries += o.queries;
    ok += o.ok;
    failed += o.failed;
    done.insert(done.end(), o.done.begin(), o.done.end());
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
  }

  /// Adds a later slice of the same phase.
  void append(Load&& o) {
    wall_s += o.wall_s;
    absorb(std::move(o));
  }

  double qps() const { return ratio(static_cast<double>(ok), wall_s); }

  /// Median over the used windows of the correct answers per second of the
  /// frames that ended in each.
  double qps(const Windows& w) const {
    std::vector<double> per(w.size(), 0.0);
    for (const FrameDone& d : done) {
      const std::size_t k = w.of(d.end_ns);
      if (k < w.size()) per[k] += static_cast<double>(d.ok);
    }
    std::vector<double> used;
    for (std::size_t k = 0; k < w.size(); ++k) {
      if (w.use[k]) {
        used.push_back(per[k] * 1e9 / static_cast<double>(w.window_ns));
      }
    }
    return quantile(used, 0.5);
  }

  /// Latencies of the frames that ended in the used windows.
  std::vector<double> latencies_us(const Windows& w) const {
    std::vector<double> lat;
    for (const FrameDone& d : done) {
      const std::size_t k = w.of(d.end_ns);
      if (k < w.size() && w.use[k]) lat.push_back(d.latency_us);
    }
    return lat;
  }
};

/// Runs body(t, load) on n threads and merges their loads; an exception
/// in any thread is rethrown here after all have joined.
template <typename Fn>
Load run_threads(unsigned n, Fn&& body) {
  std::vector<Load> per(n);
  std::vector<std::exception_ptr> errors(n);
  const std::int64_t t0 = now_ns();
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < n; ++t) {
      threads.emplace_back([&, t] {
        try {
          body(t, per[t]);
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  Load out;
  out.start_ns = t0;
  out.wall_s = seconds_between(t0, now_ns());
  for (Load& l : per) out.absorb(std::move(l));
  return out;
}

/// Closed loop: each connection sends its next frame when the previous
/// answer is back. Per-frame latency is the send + receive round trip.
Load closed_loop(std::uint16_t port, wire::Verb verb,
                 const std::vector<Stream>& streams,
                 std::vector<Cursor>& cursors, double seconds, Phase* trace,
                 Failure& fail) {
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  return run_threads(kConns, [&](unsigned c, Load& load) {
    const Stream& s = streams[c];
    Cursor& cur = cursors[c];
    SpanBuffer* buf = trace != nullptr ? trace->buffer(c) : nullptr;
    NetClient cl;
    cl.set_timeout_ms(kIoTimeoutMs);
    bool connected = false;
    std::vector<std::uint8_t> bytes;
    NetResponse resp;
    while (now_ns() < end && !fail.seen()) {
      if (!connected && !(connected = cl.connect(port))) {
        load.count(Verdict{.not_ok = s.frame}, s.frame);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      const std::size_t f = cur.frame;
      cur.frame = (f + 1) % s.frames();
      const std::uint32_t id = cur.request_id++;
      ScopedSpan root(buf, "net.frame", id);
      {
        ScopedSpan sp(buf, "frame.encode", id, root.id());
        bytes.clear();
        wire::put_batch_request(bytes, verb, id, s.frame_queries(f), s.frame);
      }
      bool io = false;
      std::int64_t b0 = 0;
      std::int64_t b1 = 0;
      {
        ScopedSpan sp(buf, "net.round_trip", id, root.id());
        b0 = now_ns();
        io = cl.send_bytes(bytes) && cl.read_response(resp);
        b1 = now_ns();
      }
      Verdict v{.not_ok = s.frame};
      {
        ScopedSpan sp(buf, "frame.check", id, root.id());
        if (io && resp.header.verb == verb && resp.header.request_id == id) {
          v = check_payload(s, f, resp.payload.data(), resp.payload.size());
        }
      }
      load.count(v, s.frame);
      load.done.push_back({b1, static_cast<double>(b1 - b0) / 1e3, v.ok});
      if (v.wrong != 0) {
        fail.report(describe_wrong("tcp", s, f, v.first_wrong,
                                   payload_answer(s, resp.payload.data(),
                                                  v.first_wrong)));
        break;
      }
      if (!io) {
        cl.close();
        connected = false;
      }
    }
  });
}

/// Open loop: each connection sends on a fixed schedule whether or not
/// answers are back (at most kMaxOutstanding frames ahead), and a frame's
/// latency runs from when it was due, so a stall also delays the frames
/// queued behind it. late_us records how late the generator itself sent.
Load open_loop(std::uint16_t port, wire::Verb verb,
               const std::vector<Stream>& streams,
               std::vector<Cursor>& cursors, double seconds, double fps,
               Failure& fail) {
  const auto period_ns = static_cast<std::int64_t>(1e9 * kConns / fps);
  const auto total = static_cast<std::uint64_t>(seconds * fps / kConns);
  const std::int64_t start = now_ns() + 2'000'000;
  const std::int64_t drain_end =
      start + static_cast<std::int64_t>(seconds * 1e9) + 5'000'000'000;
  return run_threads(kConns, [&](unsigned c, Load& load) {
    const Stream& s = streams[c];
    Cursor& cur = cursors[c];
    const std::size_t base_frame = cur.frame;
    const std::uint32_t base_id = cur.request_id;
    const std::int64_t offset = period_ns * c / kConns;
    const auto due = [&](std::uint64_t k) {
      return start + offset + static_cast<std::int64_t>(k) * period_ns;
    };
    NetClient cl;
    cl.set_timeout_ms(kIoTimeoutMs);
    const bool connected = cl.connect(port);
    std::uint64_t sent = 0;
    std::uint64_t got = 0;
    std::vector<std::uint8_t> bytes;
    NetResponse resp;
    while (connected && !fail.seen()) {
      const std::int64_t now = now_ns();
      const bool can_send = sent < total && sent - got < kMaxOutstanding;
      if (can_send && now >= due(sent)) {
        const std::size_t f = (base_frame + sent) % s.frames();
        bytes.clear();
        wire::put_batch_request(bytes, verb,
                                base_id + static_cast<std::uint32_t>(sent),
                                s.frame_queries(f), s.frame);
        load.late_us.push_back(static_cast<double>(now - due(sent)) / 1e3);
        if (!cl.send_bytes(bytes)) break;
        ++sent;
        continue;
      }
      if ((sent == total && got == sent) || now >= drain_end) break;
      const std::int64_t wait = std::max<std::int64_t>(
          0, (can_send ? due(sent) : drain_end) - now);
      pollfd p{cl.fd(), POLLIN, 0};
      const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                        static_cast<long>(wait % 1'000'000'000)};
      const int rc = ::ppoll(&p, 1, &ts, nullptr);
      if (rc < 0 && errno != EINTR) break;
      if (rc <= 0) continue;
      if (!cl.read_response(resp)) break;
      const std::int64_t t = now_ns();
      const std::uint64_t k = resp.header.request_id - base_id;
      if (k >= sent || resp.header.verb != verb) break;
      const std::size_t f = (base_frame + k) % s.frames();
      const Verdict v =
          check_payload(s, f, resp.payload.data(), resp.payload.size());
      ++got;
      load.count(v, s.frame);
      load.done.push_back({t, static_cast<double>(t - due(k)) / 1e3, v.ok});
      if (v.wrong != 0) {
        fail.report(describe_wrong("tcp open loop", s, f, v.first_wrong,
                                   payload_answer(s, resp.payload.data(),
                                                  v.first_wrong)));
        break;
      }
    }
    // Frames sent and never answered, or never sent because the
    // connection broke, count as failed.
    const std::uint64_t lost = total - got;
    load.queries += lost * s.frame;
    load.failed += lost * s.frame;
    cur.frame = (base_frame + total) % s.frames();
    cur.request_id = base_id + static_cast<std::uint32_t>(total);
  });
}

// --------------------------------------------------- in-process replays

/// L1/L2/L5: frames through BatchHandler::query_batch from `callers`
/// threads, caller t replaying stream t.
Load replay_batches(BatchHandler& h, QueryKind kind,
                    const std::vector<Stream>& streams, unsigned callers,
                    double seconds, Phase& phase, const char* span,
                    Failure& fail) {
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  return run_threads(callers, [&](unsigned t, Load& load) {
    const Stream& s = streams[t];
    SpanBuffer* buf = phase.buffer(t);
    std::vector<QueryRequest> reqs(s.frame);
    std::uint64_t id = 0;
    for (std::size_t f = 0; now_ns() < end && !fail.seen();
         f = (f + 1) % s.frames()) {
      const Pair* q = s.frame_queries(f);
      for (std::size_t i = 0; i < s.frame; ++i) {
        reqs[i] = {q[i].first, q[i].second};
      }
      std::vector<QueryResult> res;
      {
        ScopedSpan sp(buf, span, ++id);
        res = h.query_batch(reqs, BatchOptions{});
      }
      if (res.size() != s.frame) {
        load.count(Verdict{.not_ok = s.frame}, s.frame);
        continue;
      }
      const Verdict v = check_results(s, f, res.data(), kind);
      load.count(v, s.frame);
      if (v.wrong != 0) {
        const QueryResult& r = res[v.first_wrong];
        fail.report(describe_wrong(
            span, s, f, v.first_wrong,
            std::to_string(kind == QueryKind::kAdjacency ? r.adjacent
                                                         : r.distance)));
        break;
      }
    }
  });
}

/// L0: the paper's decoders over the snapshot, one thread, one span per
/// kChunk queries with the label fetch and the decode as child spans.
Load replay_core(const Snapshot& snap, QueryKind kind, const Stream& s,
                 double seconds, Phase& phase, Failure& fail) {
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  return run_threads(1, [&](unsigned, Load& load) {
    SpanBuffer* buf = phase.buffer(0);
    std::vector<const LabelView*> va(kChunk);
    std::vector<const LabelView*> vb(kChunk);
    std::vector<Label> la(kChunk);
    std::vector<Label> lb(kChunk);
    std::vector<std::int64_t> ans(kChunk);
    constexpr std::int64_t kNoPlan = -2;
    std::uint64_t id = 0;
    std::size_t pos = 0;
    while (now_ns() < end && !fail.seen()) {
      const std::size_t n = std::min(kChunk, s.queries.size() - pos);
      const Pair* q = s.queries.data() + pos;
      {
        ScopedSpan root(buf, "L0.chunk", ++id);
        if (kind == QueryKind::kAdjacency) {
          {
            ScopedSpan sp(buf, "snapshot.view", id, root.id());
            for (std::size_t i = 0; i < n; ++i) {
              va[i] = snap.view(q[i].first);
              vb[i] = snap.view(q[i].second);
            }
          }
          ScopedSpan sp(buf, "core.adjacent", id, root.id());
          for (std::size_t i = 0; i < n; ++i) {
            ans[i] = va[i] == nullptr || vb[i] == nullptr
                         ? kNoPlan
                         : label_view_adjacent(*va[i], *vb[i]);
          }
        } else {
          {
            ScopedSpan sp(buf, "snapshot.get", id, root.id());
            for (std::size_t i = 0; i < n; ++i) {
              la[i] = snap.get(q[i].first);
              lb[i] = snap.get(q[i].second);
            }
          }
          ScopedSpan sp(buf, "core.distance", id, root.id());
          for (std::size_t i = 0; i < n; ++i) {
            const auto d = DistanceScheme::distance(la[i], lb[i]);
            ans[i] = d ? static_cast<std::int64_t>(*d) : -1;
          }
        }
      }
      Verdict v;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t at = pos + i;
        if (ans[i] == kNoPlan) {
          ++v.not_ok;
        } else if (ans[i] != expected_answer(s, at / s.frame, at % s.frame)) {
          fail.report(describe_wrong("core", s, at / s.frame, at % s.frame,
                                     std::to_string(ans[i])));
          ++v.wrong;
        } else {
          ++v.ok;
        }
      }
      load.count(v, n);
      pos = (pos + n) % s.queries.size();
    }
  });
}

/// L3: the wire codec in-process, one thread: encode the request, decode
/// it as the server does, encode the expected response, decode it as the
/// client does.
Load replay_codec(const Stream& s, wire::Verb verb, double seconds,
                  Phase& phase, Failure& fail) {
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  return run_threads(1, [&](unsigned, Load& load) {
    SpanBuffer* buf = phase.buffer(0);
    constexpr std::size_t kMaxPayload = std::size_t{1} << 20;
    std::vector<std::uint8_t> req;
    std::vector<std::uint8_t> resp;
    std::vector<QueryRequest> reqs(s.frame);
    std::uint32_t id = 0;
    for (std::size_t f = 0; now_ns() < end && !fail.seen();
         f = (f + 1) % s.frames()) {
      ++id;
      bool ok = true;
      ScopedSpan root(buf, "frame.codec", id);
      {
        ScopedSpan sp(buf, "frame.encode_request", id, root.id());
        req.clear();
        wire::put_batch_request(req, verb, id, s.frame_queries(f), s.frame);
      }
      {
        ScopedSpan sp(buf, "frame.decode_request", id, root.id());
        wire::FrameHeader h;
        ok = wire::decode_header(req.data(), req.size(), kMaxPayload, h) ==
                 wire::HeaderError::kOk &&
             h.length == s.frame * wire::kQueryRecordSize;
        const std::uint8_t* p = req.data() + wire::kHeaderSize;
        for (std::size_t i = 0; ok && i < s.frame; ++i) {
          reqs[i].u = wire::get_u64(p + i * wire::kQueryRecordSize);
          reqs[i].v = wire::get_u64(p + i * wire::kQueryRecordSize + 8);
        }
      }
      const std::uint8_t* want = s.frame_expect(f);
      {
        ScopedSpan sp(buf, "frame.encode_response", id, root.id());
        resp.clear();
        wire::put_header(resp, verb, wire::FrameStatus::kOk, id,
                         static_cast<std::uint32_t>(s.frame_expect_bytes()));
        for (std::size_t i = 0; i < s.frame; ++i) {
          resp.push_back(want[i * s.record]);
          if (s.record > 1) {
            wire::put_u64(resp, wire::get_u64(want + i * s.record + 1));
          }
        }
      }
      {
        ScopedSpan sp(buf, "frame.decode_response", id, root.id());
        wire::FrameHeader h;
        ok = ok &&
             wire::decode_header(resp.data(), resp.size(), kMaxPayload, h,
                                 /*require_request=*/false) ==
                 wire::HeaderError::kOk &&
             h.request_id == id &&
             std::memcmp(resp.data() + wire::kHeaderSize, want,
                         s.frame_expect_bytes()) == 0;
      }
      const Pair* q = s.frame_queries(f);
      for (std::size_t i = 0; ok && i < s.frame; ++i) {
        ok = reqs[i].u == q[i].first && reqs[i].v == q[i].second;
      }
      load.count(ok ? Verdict{.ok = s.frame} : Verdict{.wrong = s.frame},
                 s.frame);
      if (!ok) {
        fail.report("codec: frame " + std::to_string(f) +
                    " did not survive encode/decode");
        break;
      }
    }
  });
}

// ------------------------------------------------------------- reloads

/// One hot reload of a node's store: a fresh Snapshot::from_file, a
/// first-touch pass over every shard, then QueryService::reload.
void reload_once(Served& node, std::size_t shards, SpanBuffer* buf) {
  ScopedSpan root(buf, "snapshot.reload", 0);
  std::shared_ptr<const Snapshot> next;
  {
    ScopedSpan sp(buf, "store.admit", 0, root.id());
    next = Snapshot::from_file(node.path, shards, StoreVerify::kStrict,
                               /*allow_quarantine=*/false, kSetupThreads);
  }
  {
    ScopedSpan sp(buf, "store.first_touch", 0, root.id());
    touch_every_shard(*next);
  }
  ScopedSpan sp(buf, "service.reload", 0, root.id());
  node.svc->reload(std::move(next));
}

/// Reloads a node on a background thread until finish(), on a fixed
/// schedule: in the middle of each `period_s` window counted from
/// construction, so each throughput window of one period holds one reload.
class Reloader {
 public:
  Reloader(Served& node, std::size_t shards, double period_s, SpanBuffer* buf)
      : node_(node),
        shards_(shards),
        period_(std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double>(period_s))),
        first_(std::chrono::steady_clock::now() + period_ / 2),
        buf_(buf),
        thread_([this] { run(); }) {}
  ~Reloader() { finish(); }
  Reloader(const Reloader&) = delete;
  Reloader& operator=(const Reloader&) = delete;

  /// Stops and joins the thread; returns the error that ended it, if any.
  std::string finish() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return error_;
  }

 private:
  void run() {
    try {
      std::unique_lock<std::mutex> lk(mu_);
      auto due = first_;
      while (!cv_.wait_until(lk, due, [this] { return stop_; })) {
        lk.unlock();
        reload_once(node_, shards_, buf_);
        lk.lock();
        // A reload that overran its period skips the slots it missed.
        const auto now = std::chrono::steady_clock::now();
        do {
          due += period_;
        } while (due <= now);
      }
    } catch (const std::exception& e) {
      error_ = std::string("reload failed: ") + e.what();
    }
  }

  Served& node_;
  std::size_t shards_;
  std::chrono::nanoseconds period_;
  std::chrono::steady_clock::time_point first_;
  SpanBuffer* buf_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::string error_;  // written by the thread, read after join
  std::thread thread_;
};

// ------------------------------------------------------------- counters

struct EngineCounters {
  std::uint64_t queries = 0, chunks = 0, view_hits = 0, cache_hits = 0,
                cache_misses = 0, corruptions = 0, shed = 0, deadline = 0,
                frames_in = 0;
  std::uint64_t buckets[service::kLatencyBuckets] = {};

  static EngineCounters read(const Stack& st) {
    EngineCounters c;
    for (const Served& s : st.nodes) {
      const ServiceStats x = s.svc->stats();
      c.queries += x.queries;
      c.chunks += x.batches;
      c.view_hits += x.view_hits;
      c.cache_hits += x.cache_hits;
      c.cache_misses += x.cache_misses;
      c.corruptions += x.corruptions;
      c.shed += x.shed_queries;
      c.deadline += x.deadline_exceeded;
      c.frames_in += s.server->net_counters().frames_in.load();
      for (int b = 0; b < service::kLatencyBuckets; ++b) {
        c.buckets[b] += x.latency_buckets[b];
      }
    }
    return c;
  }

  EngineCounters since(const EngineCounters& o) const {
    EngineCounters d = *this;
    d.queries -= o.queries;
    d.chunks -= o.chunks;
    d.view_hits -= o.view_hits;
    d.cache_hits -= o.cache_hits;
    d.cache_misses -= o.cache_misses;
    d.corruptions -= o.corruptions;
    d.shed -= o.shed;
    d.deadline -= o.deadline;
    d.frames_in -= o.frames_in;
    for (int b = 0; b < service::kLatencyBuckets; ++b) {
      d.buckets[b] -= o.buckets[b];
    }
    return d;
  }

  double hist_p50_ns() const {
    ServiceStats s;
    std::copy(std::begin(buckets), std::end(buckets), s.latency_buckets);
    return static_cast<double>(s.latency_quantile_ns(0.5));
  }
};

struct NetCount {
  std::uint64_t frames_in = 0, bytes_in = 0, bytes_out = 0, rejected = 0,
                protocol_errors = 0;

  static NetCount read(const NetServer& s) {
    const service::NetCounters& n = s.net_counters();
    return {n.frames_in.load(), n.bytes_in.load(), n.bytes_out.load(),
            n.rejected_admission.load(), n.protocol_errors.load()};
  }
  NetCount since(const NetCount& o) const {
    return {frames_in - o.frames_in, bytes_in - o.bytes_in,
            bytes_out - o.bytes_out, rejected - o.rejected,
            protocol_errors - o.protocol_errors};
  }
};

struct RouterCount {
  std::uint64_t sent = 0, hedges = 0, hedge_wins = 0, retries = 0,
                timeouts = 0, unavailable = 0;

  static RouterCount read(const cluster::Router& r) {
    RouterCount c;
    for (std::uint32_t i = 0; i < r.config().num_nodes(); ++i) {
      const cluster::NodeStatsView v = r.node_stats(i);
      c.sent += v.sent;
      c.hedges += v.hedges;
      c.hedge_wins += v.hedge_wins;
      c.retries += v.retries;
      c.timeouts += v.timeouts;
    }
    c.unavailable = r.unavailable_queries();
    return c;
  }
  RouterCount since(const RouterCount& o) const {
    return {sent - o.sent,       hedges - o.hedges,
            hedge_wins - o.hedge_wins, retries - o.retries,
            timeouts - o.timeouts, unavailable - o.unavailable};
  }
};

// ---------------------------------------------------------------- runs

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;
  std::string out_path;
  std::string workdir = ".";
  bool smoke = false;
  bool self_test = false;
};

/// Everything a run reports besides its metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t answers_checked = 0;

  void add(const Load& l) {
    attempted += l.queries;
    failed += l.failed;
    answers_checked += l.ok;
  }
};

/// Inputs of a run: the graph and one stream per connection, all from the
/// seed. Generating them and precomputing the answers is not set-up time.
struct Inputs {
  Graph graph;
  std::vector<Stream> streams;
};

Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed) {
  Inputs in;
  Rng rng = stream_rng(seed, 0);
  in.graph = chung_lu_power_law(std::size_t{1} << w.log2_n, kAlpha, kAvgDeg,
                                rng);
  for (unsigned c = 0; c < kConns; ++c) {
    in.streams.push_back(make_stream(in.graph, w.mix, w.kind, seed, c,
                                     w.frame, w.pool_frames));
  }
  return in;
}

std::size_t fill_oracle(Inputs& in, const WorkloadSpec& w,
                        const Labeling& lab, unsigned cpus) {
  std::size_t checked = 0;
  for (Stream& s : in.streams) {
    fill_expected(s, lab, w.kind, cpus);
    checked += cross_check(s, in.graph, w.kind, w.f, kCrossCheckSample);
  }
  return checked;
}

/// One timed set-up: encode, then write, admit, warm and serve.
std::unique_ptr<Stack> set_up(const WorkloadSpec& w, const Inputs& in,
                              const std::string& dir, SetupTimes& t,
                              Encoded& enc) {
  const std::int64_t t0 = now_ns();
  enc = encode(w, in.graph);
  t.encode_s = seconds_between(t0, now_ns());
  return serve_labeling(w, w.route, enc.labeling, dir, in.streams[0], t);
}

/// The untraced run: end-to-end metrics.
JsonObject run_end_to_end(const WorkloadSpec& w, const Args& a, Inputs& in,
                          const std::string& dir, unsigned cpus,
                          Outcome& out, Failure& fail, JsonObject& samples) {
  StealMonitor steal;
  // The first set-up serves the measured phases and peak RSS is read right
  // after them: the peak of a process that sets up once and serves. The
  // repetitions after it only time set-up; measuring the peak after them
  // would add heap that malloc keeps from earlier set-ups.
  std::vector<double> setup_s;
  std::vector<std::pair<std::int64_t, std::int64_t>> setup_at;
  const auto timed_set_up = [&](const std::string& rep_dir, Encoded& enc) {
    SetupTimes t;
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Stack> s = set_up(w, in, rep_dir, t, enc);
    setup_at.emplace_back(t0, now_ns());
    setup_s.push_back(t.total());
    return s;
  };
  std::unique_ptr<Stack> st;
  {
    Encoded enc;
    st = timed_set_up(dir + "/rep0", enc);
    out.answers_checked += fill_oracle(in, w, enc.labeling, cpus);
  }
  const wire::Verb verb = verb_of(w);
  std::vector<Cursor> cursors(kConns);

  std::unique_ptr<Reloader> reloader;
  if (w.reload_every_s > 0.0) {
    reloader = std::make_unique<Reloader>(st->nodes[0], w.shards,
                                          w.reload_every_s, nullptr);
  }
  Load closed = closed_loop(st->entry().port(), verb, in.streams, cursors,
                            a.seconds * kClosedShare, nullptr, fail);
  Load open = fail.seen() ? Load{}
                          : open_loop(st->entry().port(), verb, in.streams,
                                      cursors, a.seconds * kOpenShare,
                                      w.open_fps, fail);
  if (reloader) {
    const std::string err = reloader->finish();
    if (!err.empty()) throw std::runtime_error(err);
  }
  const double peak_mb = peak_rss_mb();
  const double store_mb = st->store_mb;
  st.reset();
  out.add(closed);
  out.add(open);

  for (int r = 1; r < kSetupReps && !fail.seen(); ++r) {
    const std::string rep_dir = dir + "/rep" + std::to_string(r);
    Encoded enc;
    timed_set_up(rep_dir, enc).reset();
    std::filesystem::remove_all(rep_dir);
  }
  steal.stop();

  // Every statistic below uses only what ran while the host left the
  // machine alone: the quiet set-ups and the quiet windows (StealMonitor).
  std::vector<double> setup_steal;
  for (const auto& [b, e] : setup_at) setup_steal.push_back(steal.share(b, e));
  const std::vector<bool> setup_use = quiet(setup_steal);
  std::vector<double> quiet_setup_s;
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    if (setup_use[i]) quiet_setup_s.push_back(setup_s[i]);
  }
  const double window_s = w.reload_every_s > 0.0 ? w.reload_every_s : kWindowS;
  const Windows cw(closed.start_ns, closed.wall_s, window_s, steal);
  const Windows ow(open.start_ns, open.wall_s, window_s, steal);
  std::vector<double> batch_us = closed.latencies_us(cw);
  std::vector<double> open_us = open.latencies_us(ow);

  samples.integer("setup", setup_s.size())
      .integer("setup_used", quiet_setup_s.size())
      .integer("batch", batch_us.size())
      .integer("open", open_us.size())
      .raw("closed_windows", cw.json())
      .raw("open_windows", ow.json());
  JsonObject m;
  m.num("setup_s", quantile(quiet_setup_s, 0.5))
      .num("qps", closed.qps(cw))
      .num("batch_p50_us", quantile(batch_us, 0.5))
      .num("batch_p99_us", quantile(batch_us, 0.99))
      .num("open_p50_us", quantile(open_us, 0.5))
      .num("open_p95_us", quantile(open_us, 0.95))
      .num("open_p99_us", quantile(open_us, 0.99))
      .num("peak_rss_mb", peak_mb)
      .num("store_mb", store_mb)
      .num("error_ratio", ratio(static_cast<double>(out.failed),
                                static_cast<double>(out.attempted)));
  return m;
}

/// The traced run: per-layer metrics and trace.json.
JsonObject run_traced(const WorkloadSpec& w, const Args& a, Inputs& in,
                      const std::string& dir, unsigned cpus, Outcome& out,
                      Failure& fail) {
  const double S =
      a.seconds / (kTraceL0 + kTraceL1 + kTraceL2 + kTraceL3 +
                   4 * kTraceL4Slice + kTraceOpen +
                   (w.route ? kTraceL4Single + kTraceL5 : 0.0));
  const wire::Verb verb = verb_of(w);
  const bool adj = w.kind == QueryKind::kAdjacency;

  SetupTimes t;
  Encoded enc;
  std::unique_ptr<Stack> st = set_up(w, in, dir + "/serve", t, enc);
  const LabelingStats lstats = enc.labeling.stats();
  const std::size_t num_fat = enc.num_fat;
  out.answers_checked += fill_oracle(in, w, enc.labeling, cpus);
  // route's L0-L2 run on the whole labeling, as adj-hub serves it.
  std::unique_ptr<Stack> single;
  if (w.route) {
    SetupTimes ignored;
    single = serve_labeling(w, false, enc.labeling, dir + "/single",
                            in.streams[0], ignored);
  }
  enc = Encoded{};
  Stack& base = single ? *single : *st;

  std::vector<Cursor> cursors(kConns);
  Phase p0("L0", 1), p1("L1", 1), p2("L2", kConns), p3("L3", 1);
  Phase p4("L4", kConns), p4s("L4.single", kConns), p5("L5", kConns);
  Phase reloads("reload", 1);

  const Load l0 = replay_core(*base.nodes[0].snap, w.kind, in.streams[0],
                              kTraceL0 * S, p0, fail);
  // L1 is the served engine itself (one worker); L2 a pool of kPoolThreads
  // workers over the same snapshot, which splits each frame into chunks.
  const Load l1 = replay_batches(*base.nodes[0].svc, w.kind, in.streams, 1,
                                 kTraceL1 * S, p1, "engine.query_batch", fail);
  Load l2;
  {
    ServiceOptions so;
    so.threads = kPoolThreads;
    so.kind = w.kind;
    QueryService pool(base.nodes[0].snap, so);
    l2 = replay_batches(pool, w.kind, in.streams, kConns, kTraceL2 * S, p2,
                        "engine.query_batch", fail);
  }
  const Load l3 = replay_codec(in.streams[0], verb, kTraceL3 * S, p3, fail);

  std::unique_ptr<Reloader> reloader;
  if (w.reload_every_s > 0.0) {
    reloader = std::make_unique<Reloader>(st->nodes[0], w.shards,
                                          w.reload_every_s,
                                          reloads.buffer(0));
  }
  const std::uint16_t port = st->entry().port();
  // Untraced and traced slices alternate, so a drift of the shared host
  // lands on both sides of bench.trace_overhead_pct.
  Load l4_plain;
  Load l4;
  const EngineCounters e0 = EngineCounters::read(*st);
  const NetCount n0 = NetCount::read(st->entry());
  for (int round = 0; round < 2; ++round) {
    l4_plain.append(closed_loop(port, verb, in.streams, cursors,
                                kTraceL4Slice * S, nullptr, fail));
    l4.append(closed_loop(port, verb, in.streams, cursors, kTraceL4Slice * S,
                          &p4, fail));
  }
  const EngineCounters de = EngineCounters::read(*st).since(e0);
  const NetCount dn = NetCount::read(st->entry()).since(n0);
  const Load open = open_loop(port, verb, in.streams, cursors, kTraceOpen * S,
                              w.open_fps, fail);
  if (reloader) {
    const std::string err = reloader->finish();
    if (!err.empty()) throw std::runtime_error(err);
  } else {
    reload_once(st->nodes[0], w.shards, reloads.buffer(0));
  }

  Load l4s;
  Load l5;
  RouterCount dr;
  if (w.route) {
    std::vector<Cursor> single_cursors(kConns);
    l4s = closed_loop(single->entry().port(), verb, in.streams,
                      single_cursors, kTraceL4Single * S, &p4s, fail);
    const RouterCount r0 = RouterCount::read(*st->router);
    l5 = replay_batches(*st->router, w.kind, in.streams, kConns,
                        kTraceL5 * S, p5, "router.query_batch", fail);
    dr = RouterCount::read(*st->router).since(r0);
  }
  const double file_mb = st->store_mb;
  single.reset();
  st.reset();
  for (const Load* l : std::initializer_list<const Load*>{
           &l0, &l1, &l2, &l3, &l4_plain, &l4, &open, &l4s, &l5}) {
    out.add(*l);
  }

  const SpanTable s0 = p0.totals(), s1 = p1.totals(), s2 = p2.totals(),
                  s3 = p3.totals(), s4 = p4.totals(), s4s = p4s.totals(),
                  s5 = p5.totals(), sr = reloads.totals();
  const auto per_query = [](const SpanTable& t, const char* span,
                            const Load& l) {
    return ratio(static_cast<double>(totals_of(t, span).total_ns),
                 static_cast<double>(l.queries));
  };
  const auto mean_ns = [](const SpanTable& t, const char* span) {
    return totals_of(t, span).mean_ns();
  };
  const auto share = [](std::uint64_t part, std::uint64_t whole) {
    return ratio(static_cast<double>(part), static_cast<double>(whole));
  };
  const double l0_ns = per_query(s0, "L0.chunk", l0);
  const double fetch_ns =
      per_query(s0, adj ? "snapshot.view" : "snapshot.get", l0);
  const double decode_ns =
      per_query(s0, adj ? "core.adjacent" : "core.distance", l0);
  const double q1_ns = ratio(l1.wall_s * 1e9, static_cast<double>(l1.queries));
  // What the server spends in the codec per frame: request decode and
  // response encode.
  const double server_codec_ns = mean_ns(s3, "frame.decode_request") +
                                 mean_ns(s3, "frame.encode_response");
  const double below_net_ns = w.route ? mean_ns(s5, "router.query_batch")
                                      : mean_ns(s1, "engine.query_batch");
  const std::uint64_t l4_queries = l4_plain.queries + l4.queries;
  const double batch5_us = mean_ns(s5, "router.query_batch") / 1e3;
  std::vector<double> late = open.late_us;

  JsonObject m;
  m.num("core.adjacent_ns", adj ? decode_ns : 0.0)
      .num("core.distance_ns", adj ? 0.0 : decode_ns)
      .num("core.encode_s", t.encode_s)
      .num("core.label_bits_mean", lstats.avg_bits)
      .integer("core.label_bits_max", lstats.max_bits)
      .integer("core.num_fat", num_fat)
      .num("store.write_s", t.write_s)
      .num("store.admit_s", t.admit_s)
      .num("store.first_touch_ms", t.first_touch_s * 1e3)
      .num("store.file_mb", file_mb)
      .num("service.snapshot.view_ns", adj ? fetch_ns : 0.0)
      .num("service.snapshot.get_ns", adj ? 0.0 : fetch_ns)
      .num("service.snapshot.reload_ms", mean_ns(sr, "snapshot.reload") / 1e6)
      .num("service.engine.q1_ns", q1_ns)
      .num("service.engine.self_ns", q1_ns - l0_ns)
      .num("service.engine.qps", l2.qps())
      .num("service.engine.batch_overhead_us",
           (mean_ns(s1, "engine.query_batch") -
            static_cast<double>(w.frame) * l0_ns) / 1e3)
      .num("service.engine.view_hit_ratio", share(de.view_hits, de.queries))
      .num("service.engine.cache_hit_ratio",
           share(de.cache_hits, de.cache_hits + de.cache_misses))
      .num("service.engine.chunks_per_batch", share(de.chunks, de.frames_in))
      .num("service.engine.hist_p50_ns", de.hist_p50_ns())
      .integer("service.engine.shed_queries", de.shed)
      .integer("service.engine.deadline_exceeded", de.deadline)
      .integer("service.engine.corruptions", de.corruptions)
      .num("service.frame.encode_ns",
           per_query(s3, "frame.encode_request", l3) +
               per_query(s3, "frame.encode_response", l3))
      .num("service.frame.decode_ns",
           per_query(s3, "frame.decode_request", l3) +
               per_query(s3, "frame.decode_response", l3))
      .num("service.frame.bytes_in_per_query", share(dn.bytes_in, l4_queries))
      .num("service.frame.bytes_out_per_query",
           share(dn.bytes_out, l4_queries))
      .num("service.net.self_us_per_frame",
           (mean_ns(s4, "net.round_trip") - below_net_ns - server_codec_ns) /
               1e3)
      .num("service.net.ratio_to_engine", ratio(l4_plain.qps(), l1.qps()))
      .integer("service.net.frames_in", dn.frames_in)
      .integer("service.net.rejected_admission", dn.rejected)
      .integer("service.net.protocol_errors", dn.protocol_errors)
      .num("cluster.router.batch_us", batch5_us)
      .num("cluster.router.self_us",
           w.route ? batch5_us - mean_ns(s4s, "net.round_trip") / 1e3 : 0.0)
      .num("cluster.router.frames_per_batch",
           share(dr.sent, totals_of(s5, "router.query_batch").count))
      .num("cluster.router.hedge_ratio", share(dr.hedges, dr.sent))
      .num("cluster.router.hedge_win_ratio", share(dr.hedge_wins, dr.hedges))
      .integer("cluster.router.retries", dr.retries)
      .integer("cluster.router.timeouts", dr.timeouts)
      .integer("cluster.router.unavailable", dr.unavailable)
      .num("cluster.router.ratio_to_single",
           w.route ? ratio(l4.qps(), l4s.qps()) : 0.0)
      .num("bench.trace_overhead_pct",
           100.0 * ratio(l4_plain.qps() - l4.qps(), l4_plain.qps()))
      .num("bench.gen_late_p99_us", quantile(late, 0.99))
      .integer("bench.answers_checked", out.answers_checked);

  std::vector<LedgerRow> ledger = {
      {"L0", adj ? "Snapshot::view + label_view_adjacent"
                 : "Snapshot::get + DistanceScheme::distance",
       static_cast<double>(l0.queries),
       static_cast<double>(totals_of(s0, "L0.chunk").total_ns) * 1e-9, ""},
      {"L1", "QueryService::query_batch, 1 worker, 1 caller",
       static_cast<double>(l1.queries), l1.wall_s, "L0"},
      {"L2", "QueryService::query_batch, a pool of 2 workers, 1 caller",
       static_cast<double>(l2.queries), l2.wall_s, "L1"},
      {"L3", "wire codec: request + response, encode + decode",
       static_cast<double>(l3.queries),
       static_cast<double>(totals_of(s3, "frame.codec").total_ns) * 1e-9,
       "L2"},
      {"L4", w.route ? "NetClient -> NetServer -> Router (untraced)"
                     : "NetClient -> NetServer loopback (untraced)",
       static_cast<double>(l4_plain.queries), l4_plain.wall_s,
       w.route ? "L4.single" : "L1"},
  };
  if (w.route) {
    ledger.push_back({"L4.single", "NetClient -> NetServer, whole labeling",
                      static_cast<double>(l4s.queries), l4s.wall_s, "L1"});
    ledger.push_back({"L5", "Router::query_batch in-process, 1 caller",
                      static_cast<double>(l5.queries), l5.wall_s, "L1"});
  }
  if (!a.trace_path.empty()) {
    std::ofstream f(a.trace_path);
    f << trace_json({&p0, &p1, &p2, &p3, &p4, &p4s, &p5, &reloads}, ledger,
                    m)
      << "\n";
    if (!f) throw std::runtime_error("cannot write " + a.trace_path);
  }
  return m;
}

JsonObject config_json(const WorkloadSpec& w, const Args& a, unsigned cpus) {
  JsonObject c;
  c.integer("cpus", cpus)
      .integer("load_threads", kConns)
      .integer("connections", kConns)
      .integer("engine_threads", kEngineThreads)
      .integer("setup_threads", kSetupThreads)
      .integer("l2_pool_threads", kPoolThreads)
      .integer("dispatchers", kDispatchers)
      .integer("n", std::uint64_t{1} << w.log2_n)
      .num("alpha", kAlpha)
      .num("avg_deg", kAvgDeg)
      .str("scheme", w.kind == QueryKind::kAdjacency ? "thin-fat" : "lemma7")
      .integer("tau", w.tau)
      .integer("f", w.f)
      .integer("store_shards", w.shards)
      .str("mix", mix_name(w.mix))
      .integer("frame", w.frame)
      .integer("stream_queries_per_conn", w.frame * w.pool_frames)
      .num("open_frames_per_s", w.open_fps)
      .num("reload_every_s", w.reload_every_s)
      .integer("setup_reps", kSetupReps)
      .num("seconds", a.seconds)
      .boolean("smoke", a.smoke);
  if (w.route) {
    c.raw("route", JsonObject()
                       .integer("nodes", kRouteNodes)
                       .integer("replication", kRouteReplication)
                       .integer("key_shards", kRouteKeyShards)
                       .integer("flow_threads", kRouteFlowThreads)
                       .integer("front_dispatchers", kDispatchers)
                       .done());
  }
  return c;
}

/// The span recorder's own check: self times of a known tree.
bool self_test() {
  Phase p("self-test", 1);
  SpanBuffer& b = p.threads[0];
  b.add({"root", kNoParent, 1, 0, 100});
  b.add({"a", 0, 1, 10, 40});
  b.add({"b", 0, 1, 50, 70});
  b.add({"c", 2, 1, 55, 60});
  b.add({"overlap", kNoParent, 2, 0, 100});
  b.add({"x", 4, 2, 10, 60});
  b.add({"y", 4, 2, 40, 80});
  const std::vector<std::int64_t> self = self_times(b.spans());
  const std::vector<std::int64_t> want = {50, 30, 15, 5, 30, 50, 40};
  const bool ok = self == want;
  // The overlapping pair double-counts [40, 60), so only the first tree
  // sums exactly; the check must see that.
  const bool sums_checked = p.self_sum_error() == 20;
  std::printf("self-test: self times %s, tree sum check %s\n",
              ok ? "ok" : "WRONG", sums_checked ? "ok" : "WRONG");
  return ok && sums_checked;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_stack --workload W --seed S --seconds T "
               "--out PATH [--trace PATH] [--workdir DIR] [--smoke]\n"
               "       bench_stack --self-test\nworkloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--self-test") {
      a.self_test = true;
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has_value) {
      a.trace_path = argv[++i];
    } else if (k == "--out" && has_value) {
      a.out_path = argv[++i];
    } else if (k == "--workdir" && has_value) {
      a.workdir = argv[++i];
    } else {
      return usage();
    }
  }
  if (a.self_test) return self_test() ? 0 : 1;
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (a.workload == w.name) spec = &w;
  }
  if (spec == nullptr || a.out_path.empty() || !(a.seconds > 0.0)) {
    return usage();
  }
  const WorkloadSpec w = a.smoke ? smoke_scaled(*spec) : *spec;
  const unsigned cpus = affinity_cpus();
  const unsigned needed = std::max(
      {kConns, kEngineThreads, kDispatchers, kSetupThreads, kPoolThreads});
  if (needed > cpus) {
    std::fprintf(stderr,
                 "bench_stack: the benchmark needs %u CPUs, the affinity "
                 "mask allows %u\n",
                 needed, cpus);
    return 2;
  }
  const bool traced = !a.trace_path.empty();

  TempDir tmp(a.workdir);
  Inputs in = make_inputs(w, a.seed);
  Outcome out;
  Failure fail;
  JsonObject samples;
  const JsonObject metrics =
      traced ? run_traced(w, a, in, tmp.path(), cpus, out, fail)
             : run_end_to_end(w, a, in, tmp.path(), cpus, out, fail, samples);
  const bool correct = !fail.seen();
  if (!correct) {
    std::fprintf(stderr, "bench_stack: %s\n", fail.what().c_str());
  }
  JsonObject doc;
  doc.str("workload", w.name)
      .integer("seed", a.seed)
      .boolean("trace", traced)
      .raw("config", config_json(w, a, cpus).done())
      .boolean("correct", correct)
      .integer("attempted", out.attempted)
      .integer("failed", out.failed)
      .integer("answers_checked", out.answers_checked)
      .raw("samples", samples.done())
      .raw("metrics", metrics.done())
      .str("error", correct ? "" : fail.what());
  std::ofstream f(a.out_path);
  f << doc.done() << "\n";
  if (!f) throw std::runtime_error("cannot write " + a.out_path);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace plg::benchstack

int main(int argc, char** argv) {
  try {
    return plg::benchstack::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_stack: %s\n", e.what());
    return 2;
  }
}
