// plgtool — command-line front end for the plg library.
//
//   plgtool gen <model> <n> <out.txt> [--alpha A] [--avg D] [--m M]
//                                     [--seed S]
//       models: chung-lu | config | ba | pl-exact | er | waxman
//   plgtool fit <graph.txt>
//       fit a discrete power law to the degree distribution
//   plgtool check <graph.txt> --alpha A
//       P_h / P_l membership reports
//   plgtool encode <graph.txt> [--alpha A] [--cprime C|fit] [--tau T]
//       encode with the thin/fat scheme and print label statistics
//   plgtool query <graph.txt> <u> <v> [--alpha A]
//       encode, then answer one adjacency query from labels only
//   plgtool distance <graph.txt> <u> <v> --f F [--alpha A]
//       Lemma 7 distance labels; prints d(u,v) if <= F, else ">F"
//   plgtool labels <graph.txt> <out.plgl> [--alpha A] [--cprime C|fit]
//       encode and persist the label set as a LabelStore blob
//   plgtool lquery <labels.plgl> <u> <v> [--strict|--lenient]
//                  [--graph <graph.txt>]
//       answer an adjacency query straight from a persisted label store
//       (no graph, no re-encode — labels only). --strict (default)
//       verifies the store's checksums first; --lenient skips them and
//       accepts possibly-wrong answers. With --graph, a store that fails
//       verification falls back to re-encoding from the source graph.
//   plgtool verify <labels.plgl>
//       integrity-check a persisted label store. v1/v2: section checksums
//       plus a spot-check of every label, naming the failing section and
//       byte offset on corruption. v3: maps the store and walks every
//       shard through its lazy CRC, reporting each shard's state
//       transition (unverified -> verified | CORRUPT) plus per-label spot
//       checks of intact shards. Exit 0 = intact, 1 = corrupt.
//   plgtool pack <in.plgl> <out.plgl> [--shards S]
//       migrate a store to the sharded, word-aligned .plgl v3 layout
//       (zero-copy mmap serving). Reads any version (v1/v2 LabelStore
//       parse, v3 mapped), re-partitions into S shards (default 16), writes
//       atomically (tmp + rename) so in == out migrates in place.
//   plgtool serve <labels.plgl> [--threads T] [--shards S] [--batch B]
//                 [--spot-check] [--scheme thin-fat|distance]
//                 [--strict|--lenient] [--queue-cap N]
//                 [--shed-policy reject|drop-oldest]
//       concurrent query service over the store: line protocol on
//       stdin/stdout (A/D queries, BATCH, STATS, HEALTH, DEADLINE,
//       RELOAD, PING, QUIT — see src/service/serve.h). Labels are
//       sharded across S CRC-verified v3 snapshot shards (a v1/v2 file
//       is repacked in memory; a v3 file keeps its own partition and is
//       served from the mapping) and queries fan
//       out over T workers. --queue-cap bounds each worker's queue (in
//       chunks); a full queue load-sheds per --shed-policy and the shed
//       queries answer "overloaded" in-band. EOF, SIGINT, and SIGTERM
//       drain in-flight batches and flush a final STATS line.
//       With --tcp <port> the same engine is served over the binary
//       length-prefixed TCP protocol instead (src/service/frame.h):
//       epoll front-end, per-connection backpressure, idle/write-stall
//       timeouts, in-band overload shedding. Port 0 picks an ephemeral
//       port (printed to stderr). --max-conns, --idle-ms, --stall-ms,
//       --dispatchers, --dispatch-queue tune the connection plane.
//   plgtool netbench <host:port|port> [--conns N] [--batch B] [--count Q]
//                    [--scheme thin-fat|distance] [--seed S]
//       loopback load generator for a --tcp server: N concurrent
//       connections send Q total queries in batches of B, then print a
//       one-line JSON report (QPS, p50/p99 batch latency).
//   plgtool stats <labels.plgl>
//       one-line JSON observability report for a store: integrity
//       verdict, label count/bytes, label-size distribution, fat/thin
//       split. v3 stores additionally report the shard count; the
//       integrity verdict covers every shard's CRC.
//   plgtool stats --tcp <port> [--host H]
//       fetch the one-line JSON stats report from a live --tcp server
//       (a `serve --tcp` node or a `route` front-end; the router's
//       report embeds a "cluster" object with per-node health and
//       retry/hedge counters).
//   plgtool partition <graph.txt> <outdir> --nodes N [--replication R]
//                     [--key-shards K] [--cluster-seed S] [--shards S]
//                     [--scheme thin-fat|distance] [--f F] [--alpha A]
//                     [--cprime C|fit] [--tau T]
//       encode the graph once and split the labeling into N per-node v3
//       stores <outdir>/node<i>.plgl by rendezvous-hashed key shards,
//       each label replicated to its shard's R owners. Every node file
//       keeps the full global id space (non-owned slots hold empty
//       labels), so each is served by an unmodified `serve --tcp`.
//   plgtool route --nodes host:port,... --tcp PORT [--replication R]
//                 [--key-shards K] [--cluster-seed S]
//                 [--scheme thin-fat|distance] [--per-try-ms MS]
//                 [--budget-ms MS] [--retries N] [--no-hedge]
//                 [--hedge-min-us US] [--hedge-max-us US] [--no-probe]
//                 [--flow-threads T] [--suspect-after N]
//                 [--quarantine-after N] [--max-conns N] [--idle-ms MS]
//                 [--stall-ms MS]
//       stateless scatter/gather router over a set of `serve --tcp`
//       nodes holding `partition` outputs: speaks the same binary frame
//       protocol to clients, splits each batch per owning node, retries
//       retriable failures against the next replica with capped
//       exponential backoff, hedges stragglers after an adaptive
//       per-node latency quantile delay, quarantines failing nodes and
//       probes them back to health. --replication/--key-shards/
//       --cluster-seed must match the `partition` invocation.
//
// Graph files use the `n m` + edge-per-line text format (src/graph/io.h);
// a `.bin` suffix selects the binary format.
//
// Every command accepts --fault <spec> (see FaultPlan::parse_spec) to
// inject deterministic faults into the I/O paths — the testing hook for
// the persistence layer's failure contract.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <filesystem>

#include "cluster/config.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "plg.h"
#include "service/engine.h"
#include "service/net_client.h"
#include "service/net_server.h"
#include "service/serve.h"
#include "service/snapshot.h"

namespace {

using namespace plg;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  plgtool gen <chung-lu|config|ba|pl-exact|er|waxman> <n> "
               "<out> [--alpha A] [--avg D] [--m M] [--seed S]\n"
               "  plgtool fit <graph>\n"
               "  plgtool check <graph> --alpha A\n"
               "  plgtool encode <graph> [--alpha A] [--cprime C|fit] "
               "[--tau T]\n"
               "  plgtool query <graph> <u> <v> [--alpha A]\n"
               "  plgtool distance <graph> <u> <v> --f F [--alpha A]\n"
               "  plgtool labels <graph> <out.plgl> [--alpha A] "
               "[--cprime C|fit]\n"
               "  plgtool lquery <labels.plgl> <u> <v> [--strict|--lenient] "
               "[--graph <graph>] [--fast]\n"
               "  plgtool verify <labels.plgl>\n"
               "  plgtool pack <in.plgl> <out.plgl> [--shards S]\n"
               "  plgtool serve <labels.plgl> [--threads T] [--shards S] "
               "[--batch B] [--spot-check] "
               "[--scheme thin-fat|distance] [--strict|--lenient] "
               "[--queue-cap N] [--shed-policy reject|drop-oldest]\n"
               "                [--tcp PORT] [--max-conns N] [--idle-ms MS] "
               "[--stall-ms MS] [--dispatchers N] [--dispatch-queue N]\n"
               "  plgtool netbench <port> [--conns N] [--batch B] "
               "[--count Q] [--scheme thin-fat|distance] [--seed S]\n"
               "  plgtool stats <labels.plgl>\n"
               "  plgtool stats --tcp <port> [--host H]\n"
               "  plgtool partition <graph> <outdir> --nodes N "
               "[--replication R] [--key-shards K] [--cluster-seed S] "
               "[--shards S] [--scheme thin-fat|distance] [--f F] "
               "[--alpha A] [--cprime C|fit] [--tau T]\n"
               "  plgtool route --nodes host:port,... --tcp PORT "
               "[--replication R] [--key-shards K] [--cluster-seed S] "
               "[--scheme thin-fat|distance] [--per-try-ms MS] "
               "[--budget-ms MS] [--retries N] [--no-hedge] "
               "[--hedge-min-us US] [--hedge-max-us US] [--no-probe] "
               "[--flow-threads T] [--suspect-after N] "
               "[--quarantine-after N]\n"
               "(all commands: [--fault <spec>] injects deterministic I/O "
               "faults)\n");
  std::exit(2);
}

/// Minimal flag parser: --key value pairs (plus a few boolean switches)
/// after the positional args.
struct Flags {
  std::optional<double> alpha;
  std::optional<double> avg;
  std::optional<std::size_t> m;
  std::uint64_t seed = 42;
  std::optional<std::string> cprime;
  std::optional<std::uint64_t> tau;
  std::optional<std::uint64_t> f;
  bool strict = true;  // lquery/serve: verify store checksums first
  std::optional<std::string> graph;       // lquery: fallback source graph
  std::optional<std::string> fault_spec;  // global fault injection
  std::optional<unsigned> threads;        // serve: worker count
  std::optional<std::size_t> shards;      // serve/stats: snapshot shards
  std::optional<std::size_t> batch;       // serve: queries per chunk
  bool spot_check = false;                // serve: checksum every decode
  bool fast = false;                      // lquery: zero-copy decode plans
  std::string scheme = "thin-fat";        // serve: which decoder
  std::optional<std::size_t> queue_cap;   // serve: per-worker queue bound
  std::string shed_policy = "reject";     // serve: reject | drop-oldest
  std::optional<int> tcp;                 // serve: TCP port (0 = ephemeral)
  std::optional<std::size_t> max_conns;   // serve: connection cap
  std::optional<std::uint32_t> idle_ms;   // serve: idle timeout
  std::optional<std::uint32_t> stall_ms;  // serve: write-stall timeout
  std::optional<unsigned> dispatchers;    // serve: dispatcher threads
  std::optional<std::size_t> dispatch_queue;  // serve: admission queue cap
  std::optional<std::size_t> conns;       // netbench: client connections
  std::optional<std::uint64_t> count;     // netbench: total queries
  std::optional<std::string> nodes;       // partition: count; route: list
  std::optional<std::uint32_t> replication;   // cluster: R
  std::optional<std::uint32_t> key_shards;    // cluster: hash granularity
  std::optional<std::uint64_t> cluster_seed;  // cluster: placement seed
  std::optional<std::uint32_t> per_try_ms;    // route: per-attempt budget
  std::optional<std::uint32_t> budget_ms;     // route: whole-batch budget
  std::optional<std::uint32_t> retries;       // route: attempts per flow
  bool no_hedge = false;                      // route: disable hedging
  std::optional<std::uint64_t> hedge_min_us;  // route: hedge-delay floor
  std::optional<std::uint64_t> hedge_max_us;  // route: hedge-delay cap
  bool no_probe = false;                      // route: no recovery prober
  std::optional<unsigned> flow_threads;       // route: scatter workers
  std::optional<std::uint32_t> suspect_after;     // route: health machine
  std::optional<std::uint32_t> quarantine_after;  // route: health machine
  std::optional<std::string> host;            // stats --tcp: server host

  static Flags parse(int argc, char** argv, int first) {
    Flags f;
    for (int i = first; i < argc; ++i) {
      const std::string key = argv[i];
      auto value = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for flag: %s\n", key.c_str());
          usage();
        }
        return argv[++i];
      };
      if (key == "--alpha") {
        f.alpha = std::strtod(value(), nullptr);
      } else if (key == "--avg") {
        f.avg = std::strtod(value(), nullptr);
      } else if (key == "--m") {
        f.m = std::strtoull(value(), nullptr, 10);
      } else if (key == "--seed") {
        f.seed = std::strtoull(value(), nullptr, 10);
      } else if (key == "--cprime") {
        f.cprime = value();
      } else if (key == "--tau") {
        f.tau = std::strtoull(value(), nullptr, 10);
      } else if (key == "--f") {
        f.f = std::strtoull(value(), nullptr, 10);
      } else if (key == "--strict") {
        f.strict = true;
      } else if (key == "--lenient") {
        f.strict = false;
      } else if (key == "--graph") {
        f.graph = value();
      } else if (key == "--fault") {
        f.fault_spec = value();
      } else if (key == "--threads") {
        f.threads = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
      } else if (key == "--shards") {
        f.shards = std::strtoull(value(), nullptr, 10);
      } else if (key == "--batch") {
        f.batch = std::strtoull(value(), nullptr, 10);
      } else if (key == "--spot-check") {
        f.spot_check = true;
      } else if (key == "--fast") {
        f.fast = true;
      } else if (key == "--scheme") {
        f.scheme = value();
      } else if (key == "--queue-cap") {
        f.queue_cap = std::strtoull(value(), nullptr, 10);
      } else if (key == "--shed-policy") {
        f.shed_policy = value();
      } else if (key == "--tcp") {
        f.tcp = static_cast<int>(std::strtol(value(), nullptr, 10));
      } else if (key == "--max-conns") {
        f.max_conns = std::strtoull(value(), nullptr, 10);
      } else if (key == "--idle-ms") {
        f.idle_ms =
            static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
      } else if (key == "--stall-ms") {
        f.stall_ms =
            static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
      } else if (key == "--dispatchers") {
        f.dispatchers =
            static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
      } else if (key == "--dispatch-queue") {
        f.dispatch_queue = std::strtoull(value(), nullptr, 10);
      } else if (key == "--conns") {
        f.conns = std::strtoull(value(), nullptr, 10);
      } else if (key == "--count") {
        f.count = std::strtoull(value(), nullptr, 10);
      } else if (key == "--nodes") {
        f.nodes = value();
      } else if (key == "--replication") {
        f.replication =
            static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
      } else if (key == "--key-shards") {
        f.key_shards =
            static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
      } else if (key == "--cluster-seed") {
        f.cluster_seed = std::strtoull(value(), nullptr, 10);
      } else if (key == "--per-try-ms") {
        f.per_try_ms =
            static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
      } else if (key == "--budget-ms") {
        f.budget_ms =
            static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
      } else if (key == "--retries") {
        f.retries =
            static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
      } else if (key == "--no-hedge") {
        f.no_hedge = true;
      } else if (key == "--hedge-min-us") {
        f.hedge_min_us = std::strtoull(value(), nullptr, 10);
      } else if (key == "--hedge-max-us") {
        f.hedge_max_us = std::strtoull(value(), nullptr, 10);
      } else if (key == "--no-probe") {
        f.no_probe = true;
      } else if (key == "--flow-threads") {
        f.flow_threads =
            static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
      } else if (key == "--suspect-after") {
        f.suspect_after =
            static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
      } else if (key == "--quarantine-after") {
        f.quarantine_after =
            static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
      } else if (key == "--host") {
        f.host = value();
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", key.c_str());
        usage();
      }
    }
    return f;
  }
};

int cmd_gen(int argc, char** argv) {
  if (argc < 5) usage();
  const std::string model = argv[2];
  const std::size_t n = std::strtoull(argv[3], nullptr, 10);
  const std::string out = argv[4];
  const Flags f = Flags::parse(argc, argv, 5);
  Rng rng(f.seed);

  Graph g;
  if (model == "chung-lu") {
    g = chung_lu_power_law(n, f.alpha.value_or(2.5), f.avg.value_or(6.0),
                           rng);
  } else if (model == "config") {
    g = config_model_power_law(n, f.alpha.value_or(2.5), rng);
  } else if (model == "ba") {
    g = generate_ba(n, f.m.value_or(3), rng).graph;
  } else if (model == "pl-exact") {
    g = pl_graph(n, f.alpha.value_or(2.5));
  } else if (model == "er") {
    g = erdos_renyi_gnm(
        n,
        static_cast<std::size_t>(f.avg.value_or(4.0) *
                                 static_cast<double>(n) / 2.0),
        rng);
  } else if (model == "waxman") {
    g = waxman(n, 0.1, 0.3, rng);
  } else {
    usage();
  }
  save_graph(out, g);
  std::printf("wrote %s: n=%zu m=%zu max-degree=%zu\n", out.c_str(),
              g.num_vertices(), g.num_edges(), g.max_degree());
  return 0;
}

int cmd_fit(int argc, char** argv) {
  if (argc < 3) usage();
  const Graph g = load_graph(argv[2]);
  const PowerLawFit fit = fit_power_law(g);
  std::printf("n=%zu m=%zu max-degree=%zu\n", g.num_vertices(),
              g.num_edges(), g.max_degree());
  std::printf("alpha=%.4f x_min=%llu ks=%.4f tail=%zu\n", fit.alpha,
              static_cast<unsigned long long>(fit.x_min), fit.ks_distance,
              fit.tail_size);
  std::printf("min C' (P_h tail constant) at x_min: %.3f\n",
              min_Cprime(g, fit.alpha, fit.x_min));
  return 0;
}

int cmd_check(int argc, char** argv) {
  if (argc < 3) usage();
  const Graph g = load_graph(argv[2]);
  const Flags f = Flags::parse(argc, argv, 3);
  if (!f.alpha) usage();
  const auto ph = check_Ph(g, *f.alpha);
  const auto pl = check_Pl(g, *f.alpha);
  std::printf("P_h(alpha=%.2f, canonical C'): %s (worst ratio %.3f)%s%s\n",
              *f.alpha, ph.member ? "member" : "NOT a member",
              ph.worst_ratio, ph.member ? "" : " — ",
              ph.violation.c_str());
  std::printf("P_l(alpha=%.2f): %s%s%s\n", *f.alpha,
              pl.member ? "member" : "NOT a member", pl.member ? "" : " — ",
              pl.violation.c_str());
  return 0;
}

ThinFatEncoding encode_with_flags(const Graph& g, const Flags& f) {
  if (f.tau) return thin_fat_encode(g, *f.tau);
  const double alpha =
      f.alpha ? *f.alpha : fit_power_law(g).alpha;
  double c_prime = 1.0;
  if (f.cprime) {
    if (*f.cprime == "fit") {
      c_prime = min_Cprime(g, alpha, fit_power_law(g).x_min);
    } else {
      c_prime = std::strtod(f.cprime->c_str(), nullptr);
    }
  }
  PowerLawScheme scheme(alpha, c_prime);
  return scheme.encode_full(g);
}

int cmd_encode(int argc, char** argv) {
  if (argc < 3) usage();
  const Graph g = load_graph(argv[2]);
  const Flags f = Flags::parse(argc, argv, 3);
  const auto enc = encode_with_flags(g, f);
  const auto stats = enc.labeling.stats();
  std::printf("tau=%llu fat=%zu thin=%zu\n",
              static_cast<unsigned long long>(enc.threshold), enc.num_fat,
              enc.num_thin);
  std::printf("labels: max=%zu bits avg=%.1f bits total=%zu bytes\n",
              stats.max_bits, stats.avg_bits, (stats.total_bits + 7) / 8);
  std::printf("per-edge space: %.2f bytes\n",
              g.num_edges() == 0
                  ? 0.0
                  : static_cast<double>((stats.total_bits + 7) / 8) /
                        static_cast<double>(g.num_edges()));
  return 0;
}

int cmd_query(int argc, char** argv) {
  if (argc < 5) usage();
  const Graph g = load_graph(argv[2]);
  const auto u = static_cast<Vertex>(std::strtoul(argv[3], nullptr, 10));
  const auto v = static_cast<Vertex>(std::strtoul(argv[4], nullptr, 10));
  if (u >= g.num_vertices() || v >= g.num_vertices()) {
    std::fprintf(stderr, "vertex out of range\n");
    return 1;
  }
  const Flags f = Flags::parse(argc, argv, 5);
  const auto enc = encode_with_flags(g, f);
  const bool adj = thin_fat_adjacent(enc.labeling[u], enc.labeling[v]);
  std::printf("adjacent(%u, %u) = %s  (labels: %zu and %zu bits)\n", u, v,
              adj ? "true" : "false", enc.labeling[u].size_bits(),
              enc.labeling[v].size_bits());
  return adj ? 0 : 1;
}

int cmd_distance(int argc, char** argv) {
  if (argc < 5) usage();
  const Graph g = load_graph(argv[2]);
  const auto u = static_cast<Vertex>(std::strtoul(argv[3], nullptr, 10));
  const auto v = static_cast<Vertex>(std::strtoul(argv[4], nullptr, 10));
  if (u >= g.num_vertices() || v >= g.num_vertices()) {
    std::fprintf(stderr, "vertex out of range\n");
    return 1;
  }
  const Flags f = Flags::parse(argc, argv, 5);
  const std::uint64_t hops = f.f.value_or(3);
  const double alpha = f.alpha ? *f.alpha : fit_power_law(g).alpha;
  DistanceScheme scheme(hops, alpha);
  const auto enc = scheme.encode(g);
  const auto stats = enc.labeling.stats();
  const auto d = DistanceScheme::distance(enc.labeling[u], enc.labeling[v]);
  if (d) {
    std::printf("d(%u, %u) = %u\n", u, v, *d);
  } else {
    std::printf("d(%u, %u) > %llu (or disconnected)\n", u, v,
                static_cast<unsigned long long>(hops));
  }
  std::printf("labels: f=%llu tau=%llu fat=%zu max=%zu bits avg=%.1f "
              "bits\n",
              static_cast<unsigned long long>(enc.f),
              static_cast<unsigned long long>(enc.threshold), enc.num_fat,
              stats.max_bits, stats.avg_bits);
  return d ? 0 : 1;
}

int cmd_labels(int argc, char** argv) {
  if (argc < 4) usage();
  const Graph g = load_graph(argv[2]);
  const std::string out = argv[3];
  const Flags f = Flags::parse(argc, argv, 4);
  const auto enc = encode_with_flags(g, f);
  LabelStore::save_file(out, enc.labeling);
  const auto stats = enc.labeling.stats();
  std::printf("wrote %s: %zu labels, %zu bytes, max label %zu bits\n",
              out.c_str(), stats.num_labels, (stats.total_bits + 7) / 8,
              stats.max_bits);
  return 0;
}

/// lquery against an mmap'd v3 store. --strict/--lenient do not apply
/// (per-shard CRC is always enforced, lazily, before any answer); --fast
/// parses decode plans straight off the mapping. A structural open
/// failure or a shard failing its first-touch CRC degrades to the
/// --graph re-encode fallback exactly like a corrupt v2 store.
int lquery_mapped(const std::string& path, std::uint64_t u, std::uint64_t v,
                  const Flags& f) {
  std::shared_ptr<const store::MappedStore> ms;
  std::optional<Labeling> fb;
  const auto fall_back = [&](const DecodeError& e) {
    if (!f.graph) throw e;
    std::fprintf(stderr,
                 "warning: %s failed verification (%s); re-encoding from "
                 "%s\n",
                 path.c_str(), e.what(), f.graph->c_str());
    fb = encode_with_flags(load_graph(*f.graph), f).labeling;
  };
  try {
    ms = store::MappedStore::open(path);
  } catch (const DecodeError& e) {
    fall_back(e);
  }
  const std::uint64_t n = fb ? fb->size() : ms->num_labels();
  if (u >= n || v >= n) {
    std::fprintf(stderr, "label index out of range (store holds %llu)\n",
                 static_cast<unsigned long long>(n));
    return 1;
  }
  bool adj = false;
  if (!fb) {
    try {
      if (f.fast) {
        // Zero-copy path over the mapping itself: shard-local plans, CRC
        // gate first so no answer derives from unverified bits.
        const auto view_of = [&](std::uint64_t g) {
          const std::size_t s = ms->shard_map().shard_of(g);
          const auto i =
              static_cast<std::size_t>(ms->shard_map().index_in_shard(g));
          if (!ms->shard_intact(s)) {
            throw DecodeError("shard " + std::to_string(s) +
                              " failed its lazy CRC check");
          }
          const std::uint64_t* off = ms->shard_offsets(s);
          return LabelView::parse(ms->shard_bits(s), off[i],
                                  off[i + 1] - off[i]);
        };
        adj = label_view_adjacent(view_of(u), view_of(v));
      } else {
        adj = thin_fat_adjacent(ms->get_global(u), ms->get_global(v));
      }
    } catch (const DecodeError& e) {
      fall_back(e);
    }
  }
  if (fb) {
    adj = thin_fat_adjacent((*fb)[static_cast<Vertex>(u)],
                            (*fb)[static_cast<Vertex>(v)]);
  }
  std::printf("adjacent(%llu, %llu) = %s%s\n",
              static_cast<unsigned long long>(u),
              static_cast<unsigned long long>(v), adj ? "true" : "false",
              fb ? "  (re-encoded from source graph)" : "");
  return adj ? 0 : 1;
}

int cmd_lquery(int argc, char** argv) {
  if (argc < 5) usage();
  const std::string path = argv[2];
  const auto u = std::strtoull(argv[3], nullptr, 10);
  const auto v = std::strtoull(argv[4], nullptr, 10);
  const Flags f = Flags::parse(argc, argv, 5);
  if (store::MappedStore::sniff_file_version(path) == store::kVersion3) {
    return lquery_mapped(path, u, v, f);
  }

  std::optional<LabelStore> store;
  std::optional<Labeling> fallback;
  try {
    store = LabelStore::open_file(
        path, f.strict ? StoreVerify::kStrict : StoreVerify::kLenient);
  } catch (const DecodeError& e) {
    if (!f.graph) throw;
    // Graceful degradation: the store is damaged but the source graph is
    // available — re-encode and answer from fresh labels.
    std::fprintf(stderr,
                 "warning: %s failed verification (%s); re-encoding from "
                 "%s\n",
                 path.c_str(), e.what(), f.graph->c_str());
    const Graph g = load_graph(*f.graph);
    fallback = encode_with_flags(g, f).labeling;
  }

  const std::size_t n = store ? store->size() : fallback->size();
  if (u >= n || v >= n) {
    std::fprintf(stderr, "label index out of range (store holds %zu)\n", n);
    return 1;
  }
  bool adj;
  if (store && f.fast) {
    // Zero-copy path: parse both labels into decode plans aliasing the
    // store's packed bits and answer without materializing either label.
    // Semantically identical to thin_fat_adjacent (the LabelView
    // contract); exposed as a flag so scripts can smoke-test the fast
    // decoder against the default path on the same store.
    const LabelView va = LabelView::parse(
        store->bits_data(), store->bit_offset(u),
        static_cast<std::uint64_t>(store->size_bits(u)));
    const LabelView vb = LabelView::parse(
        store->bits_data(), store->bit_offset(v),
        static_cast<std::uint64_t>(store->size_bits(v)));
    adj = label_view_adjacent(va, vb);
  } else {
    adj = store ? thin_fat_adjacent(store->get(u), store->get(v))
                : thin_fat_adjacent((*fallback)[static_cast<Vertex>(u)],
                                    (*fallback)[static_cast<Vertex>(v)]);
  }
  std::printf("adjacent(%llu, %llu) = %s%s\n",
              static_cast<unsigned long long>(u),
              static_cast<unsigned long long>(v), adj ? "true" : "false",
              fallback ? "  (re-encoded from source graph)" : "");
  return adj ? 0 : 1;
}

/// verify for a v3 store: maps it, then drives every shard through its
/// lazy CRC exactly as first queries would, reporting the observable
/// state transitions (the same states Snapshot::shard_crc_state exposes).
int verify_mapped(const std::string& path) {
  std::shared_ptr<const store::MappedStore> ms;
  try {
    ms = store::MappedStore::open(path);
  } catch (const DecodeError& e) {
    std::printf("%s: CORRUPT (format v3)\n", path.c_str());
    std::printf("  section:     header/directory\n");
    std::printf("  detail:      %s\n", e.what());
    return 1;
  }
  std::size_t corrupt = 0;
  std::size_t spot_failures = 0;
  for (std::size_t s = 0; s < ms->num_shards(); ++s) {
    // Read (never trigger) the pre-touch state: always "unverified" on a
    // fresh mapping — printed so the transition itself is visible.
    const char* before =
        ms->shard_crc_state(s) == store::ShardCrcState::kUnverified
            ? "unverified"
            : "verified";
    const bool ok = ms->shard_intact(s);
    std::printf("  shard %zu: %s -> %s (%llu labels, %llu bytes)\n", s,
                before, ok ? "verified" : "CORRUPT",
                static_cast<unsigned long long>(ms->shard_labels(s)),
                static_cast<unsigned long long>(ms->shard_bytes(s)));
    if (!ok) {
      ++corrupt;
      continue;
    }
    for (std::size_t i = 0; i < ms->shard_labels(s); ++i) {
      if (!ms->verify_label(s, i)) ++spot_failures;
    }
  }
  if (corrupt == 0 && spot_failures == 0) {
    std::printf("%s: OK (format v3, %llu labels, %zu shards, %llu bytes, "
                "every shard CRC and per-label spot check passes)\n",
                path.c_str(),
                static_cast<unsigned long long>(ms->num_labels()),
                ms->num_shards(),
                static_cast<unsigned long long>(ms->file_bytes()));
    return 0;
  }
  std::printf("%s: CORRUPT (format v3, %zu/%zu shards failed their CRC, "
              "%zu label spot-check failures)\n",
              path.c_str(), corrupt, ms->num_shards(), spot_failures);
  return 1;
}

int cmd_verify(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string path = argv[2];
  Flags::parse(argc, argv, 3);  // accepts --fault
  if (store::MappedStore::sniff_file_version(path) == store::kVersion3) {
    return verify_mapped(path);
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "verify: cannot open %s\n", path.c_str());
    return 1;
  }
  std::vector<std::uint8_t> blob(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  fault::on_read_buffer(blob);

  const StoreCheckResult r = LabelStore::check(blob);
  if (r.ok) {
    const LabelStore store = LabelStore::parse(blob, StoreVerify::kLenient);
    std::printf("%s: OK (format v%u, %zu labels, %zu bytes, all section "
                "checksums and %zu per-label spot checks pass)\n",
                path.c_str(), r.version, store.size(), blob.size(),
                store.size());
    return 0;
  }
  std::printf("%s: CORRUPT (format v%u)\n", path.c_str(), r.version);
  std::printf("  section:     %s\n", r.section.c_str());
  std::printf("  byte offset: %llu\n",
              static_cast<unsigned long long>(r.byte_offset));
  std::printf("  detail:      %s\n", r.message.c_str());
  return 1;
}

int cmd_pack(int argc, char** argv) {
  if (argc < 4) usage();
  const std::string in_path = argv[2];
  const std::string out_path = argv[3];
  const Flags f = Flags::parse(argc, argv, 4);
  const std::size_t shards = f.shards.value_or(16);

  // Load the source at any version. v1/v2 go through the strict
  // LabelStore parse; v3 through the mapped reader (load_all CRCs every
  // shard).
  // Either way a corrupt source aborts the migration — pack never
  // launders bad bytes into a fresh file.
  const std::uint32_t version = store::MappedStore::sniff_file_version(in_path);
  Labeling labeling = [&] {
    if (version == store::kVersion3) {
      return store::MappedStore::open(in_path)->load_all();
    }
    const LabelStore store =
        LabelStore::open_file(in_path, StoreVerify::kStrict);
    std::vector<Label> labels;
    labels.reserve(store.size());
    for (std::size_t i = 0; i < store.size(); ++i) {
      labels.push_back(store.get(i));
    }
    return Labeling(std::move(labels));
  }();

  // Write-then-rename makes the migration atomic and lets in == out
  // repack in place: the source stays mapped/readable until the rename.
  const std::string tmp = out_path + ".tmp";
  store::StoreWriter::write_file(tmp, labeling, shards);
  if (std::rename(tmp.c_str(), out_path.c_str()) != 0) {
    std::remove(tmp.c_str());
    std::fprintf(stderr, "pack: cannot rename %s to %s\n", tmp.c_str(),
                 out_path.c_str());
    return 1;
  }
  const auto ms = store::MappedStore::open(out_path);
  std::printf("packed %s (v%u) -> %s (v3): %llu labels, %zu shards, "
              "%llu bytes\n",
              in_path.c_str(), version, out_path.c_str(),
              static_cast<unsigned long long>(ms->num_labels()),
              ms->num_shards(),
              static_cast<unsigned long long>(ms->file_bytes()));
  return 0;
}

/// Set by the SIGINT/SIGTERM handler; serve_loop polls it between lines.
std::atomic<bool> g_serve_stop{false};

void serve_signal_handler(int /*sig*/) {
  g_serve_stop.store(true, std::memory_order_relaxed);
}

/// Installs the handler WITHOUT SA_RESTART: an interrupted blocking read
/// on stdin then fails with EINTR instead of silently restarting, so the
/// loop observes EOF-or-stop promptly and runs its drain + final-STATS
/// epilogue.
void install_serve_signals() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = serve_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

int cmd_serve(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string path = argv[2];
  const Flags f = Flags::parse(argc, argv, 3);
  if (f.scheme != "thin-fat" && f.scheme != "distance") {
    std::fprintf(stderr, "unknown --scheme: %s\n", f.scheme.c_str());
    usage();
  }
  if (f.shed_policy != "reject" && f.shed_policy != "drop-oldest") {
    std::fprintf(stderr, "unknown --shed-policy: %s\n",
                 f.shed_policy.c_str());
    usage();
  }
  const std::size_t shards = f.shards.value_or(16);
  const StoreVerify verify =
      f.strict ? StoreVerify::kStrict : StoreVerify::kLenient;

  service::ServiceOptions opt;
  opt.threads = f.threads.value_or(0);
  opt.chunk = f.batch.value_or(256);
  opt.spot_check = f.spot_check;
  opt.kind = f.scheme == "distance" ? service::QueryKind::kDistance
                                    : service::QueryKind::kAdjacency;
  opt.queue_cap = f.queue_cap.value_or(0);
  opt.shed_policy = f.shed_policy == "drop-oldest"
                        ? service::ShedPolicy::kDropOldest
                        : service::ShedPolicy::kRejectNew;

  // The initial load admits with quarantine like RELOAD does: under an
  // active --fault plan (or real bit rot confined to some shards) the
  // service starts degraded and self-heals rather than refusing to
  // start. A file that fails its own parse still aborts startup.
  auto snapshot =
      service::Snapshot::from_file(path, shards, verify,
                                   /*allow_quarantine=*/true);
  service::QueryService svc(snapshot, opt);
  std::fprintf(stderr,
               "serving %s: %llu labels, %zu shards (%zu quarantined), "
               "%u workers (protocol: A|D <u> <v>, BATCH n, STATS, HEALTH, "
               "DEADLINE ms, RELOAD p, PING, QUIT)\n",
               path.c_str(),
               static_cast<unsigned long long>(snapshot->size()),
               snapshot->num_shards(), snapshot->num_quarantined(),
               svc.threads());

  install_serve_signals();

  if (f.tcp) {
    service::NetServerOptions nopt;
    nopt.port = static_cast<std::uint16_t>(*f.tcp);
    if (f.max_conns) nopt.max_connections = *f.max_conns;
    if (f.idle_ms) nopt.idle_timeout_ms = *f.idle_ms;
    if (f.stall_ms) nopt.write_stall_timeout_ms = *f.stall_ms;
    if (f.dispatchers) nopt.dispatchers = *f.dispatchers;
    if (f.dispatch_queue) nopt.dispatch_queue_cap = *f.dispatch_queue;
    nopt.stop = &g_serve_stop;
    service::NetServer server(svc, nopt);
    std::fprintf(stderr, "listening on %s:%u (binary frame protocol v%u)\n",
                 nopt.bind_address.c_str(), server.port(),
                 service::wire::kWireVersion);
    server.start();
    server.join();  // returns after SIGINT/SIGTERM drains the plane
    std::fprintf(stderr, "final stats: %s\n",
                 server.stats().to_json().c_str());
    return 0;
  }

  service::ServeOptions sopt;
  sopt.num_shards = shards;
  sopt.verify = verify;
  sopt.stop = &g_serve_stop;
  const std::uint64_t answered =
      service::serve_loop(svc, std::cin, std::cout, sopt);
  std::fprintf(stderr, "served %llu queries; final stats: %s\n",
               static_cast<unsigned long long>(answered),
               svc.stats().to_json().c_str());
  return 0;
}

// --------------------------------------------------------------- netbench

/// Loopback load generator for a `serve --tcp` process. Each connection
/// thread round-trips batches of random (u,v) pairs and records the
/// batch latency; the report aggregates throughput and tail latency.
int cmd_netbench(int argc, char** argv) {
  if (argc < 3) usage();
  const std::uint16_t port =
      static_cast<std::uint16_t>(std::strtoul(argv[2], nullptr, 10));
  const Flags f = Flags::parse(argc, argv, 3);
  const std::size_t conns = std::max<std::size_t>(1, f.conns.value_or(4));
  const std::size_t batch = std::max<std::size_t>(1, f.batch.value_or(512));
  const std::uint64_t total = f.count.value_or(200'000);
  const service::wire::Verb verb = f.scheme == "distance"
                                       ? service::wire::Verb::kDistBatch
                                       : service::wire::Verb::kAdjBatch;

  // Learn the id space from the server so queries hit real labels.
  std::uint64_t num_labels = 0;
  {
    service::NetClient probe;
    if (!probe.connect(port)) {
      std::fprintf(stderr, "netbench: cannot connect to port %u\n", port);
      return 2;
    }
    std::string json;
    if (probe.stats_json(1, json)) {
      const std::size_t at = json.find("\"labels\":");
      if (at != std::string::npos) {
        num_labels = std::strtoull(json.c_str() + at + 9, nullptr, 10);
      }
    }
  }
  if (num_labels == 0) num_labels = 1;

  const std::uint64_t per_conn = (total + conns - 1) / conns;
  std::vector<std::vector<double>> lat_us(conns);
  std::vector<std::uint64_t> answered(conns, 0);
  std::atomic<bool> failed{false};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (std::size_t t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(f.seed + t);
      service::NetClient client;
      if (!client.connect(port)) {
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      std::vector<std::pair<std::uint64_t, std::uint64_t>> qs(batch);
      std::uint64_t sent = 0;
      std::uint32_t request_id = 1;
      while (sent < per_conn) {
        const std::size_t n =
            static_cast<std::size_t>(std::min<std::uint64_t>(
                batch, per_conn - sent));
        qs.resize(n);
        for (auto& q : qs) {
          q.first = rng.next_below(num_labels);
          q.second = rng.next_below(num_labels);
        }
        const auto b0 = std::chrono::steady_clock::now();
        service::NetResponse resp;
        if (!client.batch(verb, request_id++, qs, resp) ||
            resp.header.verb == service::wire::Verb::kError) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        const auto b1 = std::chrono::steady_clock::now();
        lat_us[t].push_back(
            std::chrono::duration<double, std::micro>(b1 - b0).count());
        sent += n;
        answered[t] += n;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (failed.load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "netbench: a connection failed mid-run\n");
    return 1;
  }
  std::vector<double> all;
  for (const auto& v : lat_us) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  const auto quantile = [&](double q) {
    if (all.empty()) return 0.0;
    const std::size_t i = static_cast<std::size_t>(
        q * static_cast<double>(all.size() - 1));
    return all[i];
  };
  std::uint64_t queries = 0;
  for (const std::uint64_t a : answered) queries += a;
  std::printf(
      "{\"conns\":%zu,\"batch\":%zu,\"queries\":%llu,\"seconds\":%.3f,"
      "\"qps\":%.0f,\"p50_us\":%.1f,\"p99_us\":%.1f}\n",
      conns, batch, static_cast<unsigned long long>(queries), seconds,
      seconds > 0 ? static_cast<double>(queries) / seconds : 0.0,
      quantile(0.50), quantile(0.99));
  return 0;
}

/// stats for a v3 store: the intact verdict covers every shard's CRC
/// (all driven through the lazy gate); corrupt shards' labels count as
/// unparsed.
int stats_mapped(const std::string& path) {
  std::shared_ptr<const store::MappedStore> ms;
  try {
    ms = store::MappedStore::open(path);
  } catch (const DecodeError& e) {
    std::printf("{\"file\":\"%s\",\"intact\":false,\"version\":3,"
                "\"corruption\":\"%s\"}\n",
                path.c_str(), e.what());
    return 1;
  }
  bool intact = true;
  std::size_t max_bits = 0, fat = 0, thin = 0, unparsed = 0;
  std::uint64_t total_bits = 0;
  for (std::size_t s = 0; s < ms->num_shards(); ++s) {
    if (!ms->shard_intact(s)) {
      intact = false;
      unparsed += static_cast<std::size_t>(ms->shard_labels(s));
      continue;
    }
    for (std::size_t i = 0; i < ms->shard_labels(s); ++i) {
      const auto bits = static_cast<std::size_t>(ms->label_bits(s, i));
      max_bits = std::max(max_bits, bits);
      total_bits += bits;
      try {
        if (thin_fat_parse_header(ms->get(s, i)).fat) {
          ++fat;
        } else {
          ++thin;
        }
      } catch (const DecodeError&) {
        ++unparsed;
      }
    }
  }
  const double avg_bits =
      ms->num_labels() == 0 ? 0.0
                            : static_cast<double>(total_bits) /
                                  static_cast<double>(ms->num_labels());
  std::printf(
      "{\"file\":\"%s\",\"intact\":%s,\"version\":3,\"labels\":%llu,"
      "\"bytes\":%llu,\"shards\":%zu,\"total_bits\":%llu,\"max_bits\":%zu,"
      "\"avg_bits\":%.1f,\"fat\":%zu,\"thin\":%zu,\"unparsed\":%zu}\n",
      path.c_str(), intact ? "true" : "false",
      static_cast<unsigned long long>(ms->num_labels()),
      static_cast<unsigned long long>(ms->file_bytes()), ms->num_shards(),
      static_cast<unsigned long long>(total_bits), max_bits, avg_bits, fat,
      thin, unparsed);
  return intact ? 0 : 1;
}

/// stats --tcp: one STATS round trip against a live server (node or
/// router) and the raw JSON line on stdout.
int stats_tcp(const Flags& f) {
  const std::string host = f.host.value_or("127.0.0.1");
  service::NetClient client;
  client.set_timeout_ms(5'000);
  if (!client.connect(static_cast<std::uint16_t>(*f.tcp), host)) {
    std::fprintf(stderr, "stats: cannot connect to %s:%d\n", host.c_str(),
                 *f.tcp);
    return 2;
  }
  std::string json;
  if (!client.stats_json(1, json)) {
    std::fprintf(stderr, "stats: STATS request failed\n");
    return 2;
  }
  std::printf("%s\n", json.c_str());
  return 0;
}

int cmd_stats(int argc, char** argv) {
  if (argc < 3) usage();
  if (std::strcmp(argv[2], "--tcp") == 0) {
    const Flags f = Flags::parse(argc, argv, 2);
    if (!f.tcp) usage();
    return stats_tcp(f);
  }
  const std::string path = argv[2];
  Flags::parse(argc, argv, 3);  // accepts --fault
  if (store::MappedStore::sniff_file_version(path) == store::kVersion3) {
    return stats_mapped(path);
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "stats: cannot open %s\n", path.c_str());
    return 1;
  }
  std::vector<std::uint8_t> blob(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  fault::on_read_buffer(blob);

  const StoreCheckResult check = LabelStore::check(blob);
  const LabelStore store = LabelStore::parse(blob, StoreVerify::kLenient);

  std::size_t max_bits = 0;
  std::uint64_t total_bits = 0;
  std::size_t fat = 0, thin = 0, unparsed = 0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    const std::size_t bits = store.size_bits(i);
    max_bits = std::max(max_bits, bits);
    total_bits += bits;
    try {
      if (thin_fat_parse_header(store.get(i)).fat) {
        ++fat;
      } else {
        ++thin;
      }
    } catch (const DecodeError&) {
      ++unparsed;  // store holds labels of some other scheme
    }
  }
  const double avg_bits =
      store.size() == 0
          ? 0.0
          : static_cast<double>(total_bits) / static_cast<double>(store.size());
  std::printf(
      "{\"file\":\"%s\",\"intact\":%s,\"version\":%u,\"labels\":%zu,"
      "\"bytes\":%zu,\"total_bits\":%llu,\"max_bits\":%zu,\"avg_bits\":%.1f,"
      "\"fat\":%zu,\"thin\":%zu,\"unparsed\":%zu%s%s%s}\n",
      path.c_str(), check.ok ? "true" : "false", check.version, store.size(),
      blob.size(), static_cast<unsigned long long>(total_bits), max_bits,
      avg_bits, fat, thin, unparsed, check.ok ? "" : ",\"corruption\":\"",
      check.ok ? "" : check.message.c_str(), check.ok ? "" : "\"");
  return check.ok ? 0 : 1;
}

// --------------------------------------------------------------- cluster

/// Shared cluster placement knobs (must agree between `partition` and
/// `route`, or routing and storage disagree on ownership).
cluster::ClusterConfig cluster_config_from_flags(const Flags& f) {
  cluster::ClusterConfig cfg;
  if (f.replication) cfg.replication = *f.replication;
  if (f.key_shards) cfg.key_shards = *f.key_shards;
  if (f.cluster_seed) cfg.seed = *f.cluster_seed;
  return cfg;
}

int cmd_partition(int argc, char** argv) {
  if (argc < 4) usage();
  const std::string graph_path = argv[2];
  const std::string outdir = argv[3];
  const Flags f = Flags::parse(argc, argv, 4);
  if (!f.nodes) {
    std::fprintf(stderr, "partition: --nodes N is required\n");
    usage();
  }
  cluster::ClusterConfig cfg = cluster_config_from_flags(f);
  const unsigned long n_nodes = std::strtoul(f.nodes->c_str(), nullptr, 10);
  cfg.nodes.assign(n_nodes, cluster::NodeEndpoint{});
  cfg.validate();  // placement only needs the node count, not endpoints

  const Graph g = load_graph(graph_path);
  Labeling labeling = [&] {
    if (f.scheme == "distance") {
      const double alpha = f.alpha ? *f.alpha : fit_power_law(g).alpha;
      return DistanceScheme(f.f.value_or(3), alpha).encode(g).labeling;
    }
    return encode_with_flags(g, f).labeling;
  }();

  std::filesystem::create_directories(outdir);
  const auto infos = cluster::write_partitions(labeling, cfg, outdir,
                                               f.shards.value_or(8));
  for (std::size_t i = 0; i < infos.size(); ++i) {
    std::printf("wrote %s: %llu/%zu labels owned, %llu label bytes\n",
                infos[i].path.c_str(),
                static_cast<unsigned long long>(infos[i].owned),
                g.num_vertices(),
                static_cast<unsigned long long>((infos[i].label_bits + 7) /
                                                8));
  }
  std::printf("partitioned %zu labels over %lu nodes (R=%u, %u key "
              "shards, seed %llu)\n",
              labeling.size(), n_nodes, cfg.replication, cfg.key_shards,
              static_cast<unsigned long long>(cfg.seed));
  return 0;
}

int cmd_route(int argc, char** argv) {
  const Flags f = Flags::parse(argc, argv, 2);
  if (!f.nodes || !f.tcp) {
    std::fprintf(stderr, "route: --nodes host:port,... and --tcp PORT are "
                         "required\n");
    usage();
  }
  if (f.scheme != "thin-fat" && f.scheme != "distance") {
    std::fprintf(stderr, "unknown --scheme: %s\n", f.scheme.c_str());
    usage();
  }
  cluster::ClusterConfig cfg = cluster_config_from_flags(f);
  cfg.nodes = cluster::ClusterConfig::parse_nodes(*f.nodes);
  cfg.validate();

  cluster::RouterOptions ropt;
  ropt.kind = f.scheme == "distance" ? service::QueryKind::kDistance
                                     : service::QueryKind::kAdjacency;
  if (f.per_try_ms) ropt.per_try_ms = *f.per_try_ms;
  if (f.budget_ms) ropt.batch_budget_ms = *f.budget_ms;
  if (f.retries) ropt.retry.max_attempts = std::max(1u, *f.retries);
  ropt.hedge.enabled = !f.no_hedge;
  if (f.hedge_min_us) ropt.hedge.min_us = *f.hedge_min_us;
  if (f.hedge_max_us) ropt.hedge.max_us = *f.hedge_max_us;
  ropt.probe = !f.no_probe;
  if (f.flow_threads) ropt.flow_threads = *f.flow_threads;
  if (f.suspect_after) ropt.suspect_after = *f.suspect_after;
  if (f.quarantine_after) ropt.quarantine_after = *f.quarantine_after;

  cluster::Router router(cfg, ropt);
  std::fprintf(stderr,
               "routing %s over %u nodes (R=%u, %u key shards, seed %llu, "
               "hedge %s, %u attempts)\n",
               f.scheme.c_str(), cfg.num_nodes(), cfg.replication,
               cfg.key_shards, static_cast<unsigned long long>(cfg.seed),
               ropt.hedge.enabled ? "on" : "off", ropt.retry.max_attempts);

  install_serve_signals();
  service::NetServerOptions nopt;
  nopt.port = static_cast<std::uint16_t>(*f.tcp);
  if (f.max_conns) nopt.max_connections = *f.max_conns;
  if (f.idle_ms) nopt.idle_timeout_ms = *f.idle_ms;
  if (f.stall_ms) nopt.write_stall_timeout_ms = *f.stall_ms;
  if (f.dispatchers) nopt.dispatchers = *f.dispatchers;
  if (f.dispatch_queue) nopt.dispatch_queue_cap = *f.dispatch_queue;
  nopt.stop = &g_serve_stop;
  service::NetServer server(router, nopt);
  std::fprintf(stderr, "listening on %s:%u (binary frame protocol v%u)\n",
               nopt.bind_address.c_str(), server.port(),
               service::wire::kWireVersion);
  server.start();
  server.join();  // returns after SIGINT/SIGTERM drains the plane
  std::fprintf(stderr, "final stats: %s\n", server.stats().to_json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    // --fault is global: enable the plan before the command touches I/O.
    for (int i = 2; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--fault") == 0) {
        plg::fault::enable(plg::fault::FaultPlan::parse_spec(argv[i + 1]));
        break;
      }
    }
    if (cmd == "gen") return cmd_gen(argc, argv);
    if (cmd == "fit") return cmd_fit(argc, argv);
    if (cmd == "check") return cmd_check(argc, argv);
    if (cmd == "encode") return cmd_encode(argc, argv);
    if (cmd == "query") return cmd_query(argc, argv);
    if (cmd == "distance") return cmd_distance(argc, argv);
    if (cmd == "labels") return cmd_labels(argc, argv);
    if (cmd == "lquery") return cmd_lquery(argc, argv);
    if (cmd == "verify") return cmd_verify(argc, argv);
    if (cmd == "pack") return cmd_pack(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "netbench") return cmd_netbench(argc, argv);
    if (cmd == "stats") return cmd_stats(argc, argv);
    if (cmd == "partition") return cmd_partition(argc, argv);
    if (cmd == "route") return cmd_route(argc, argv);
  } catch (const std::exception& e) {
    // Exit 2 keeps errors distinct from query/lquery/verify's "no" (exit 1).
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  usage();
}
