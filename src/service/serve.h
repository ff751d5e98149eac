// Streaming request/response loop for `plgtool serve`.
//
// A deliberately tiny line protocol over any istream/ostream pair, so the
// service is scriptable from a shell pipe today and trivially portable to
// a socket tomorrow (the loop never touches stdin/stdout directly):
//
//   A <u> <v>       adjacency query        -> "1" | "0"
//   D <u> <v>       distance query         -> "<d>" | "inf"
//   <u> <v>         query in the service's configured mode
//   BATCH <n>       the next n lines are queries, answered in order
//                   through one query_batch() call (the fast path)
//   STATS           -> one-line JSON stats report
//   HEALTH          -> one-line JSON health probe ("ok" | "degraded"
//                   with quarantined-shard count)
//   DEADLINE <ms>   set the session deadline applied to every following
//                   query/batch (0 clears) -> "ok deadline_ms=<ms>"
//   RELOAD <path>   hot-swap the snapshot from a .plgl file
//   PING            -> "pong" (liveness probe)
//   QUIT            end the loop
//
// Threading contract: serve_loop owns no locks and runs on exactly one
// thread — all session state (the line buffer, the answered counter, the
// batch scratch vectors, the session deadline) is function-local and
// single-threaded by construction. Concurrency lives entirely inside
// QueryService, behind the annotated SnapshotStore/ThreadPool
// capabilities; RELOAD is safe mid-traffic because reload() is just
// SnapshotStore::swap.
//
// Degraded answers stay in-band: "range" for an id outside the snapshot,
// "corrupt" for a label that failed its checksum or decode (or lives in
// a quarantined shard), "overloaded" for a load-shed query, "deadline"
// for one cancelled by the session deadline. Protocol errors reply
// "err <reason>" and the loop continues — a malformed line must never
// take the service down. Input lines are length-capped
// (ServeOptions::max_line): an oversized line is discarded wholesale and
// answered "err line too long" instead of growing an unbounded buffer.
// Blank lines and '#' comments are ignored (so saved query scripts can
// be annotated).
//
// Shutdown: on QUIT the loop simply returns (interactive sessions own
// their epilogue). On EOF or the external stop flag (SIGINT/SIGTERM in
// plgtool) the loop drains in-flight work and flushes one final STATS
// JSON line, so a piped session always ends with a parseable summary.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/label_store.h"
#include "service/engine.h"

namespace plg::service {

struct ServeOptions {
  std::size_t num_shards = 16;               ///< shard count for RELOAD
  StoreVerify verify = StoreVerify::kStrict;  ///< RELOAD parse mode
  /// RELOAD admits shards that fail the admission CRC as quarantined
  /// (self-healing) instead of rejecting the whole file.
  bool quarantine = true;
  /// Longest accepted input line, in bytes (command + arguments).
  std::size_t max_line = 4096;
  /// Optional external stop flag (signal handler); checked between
  /// lines. nullptr = only QUIT/EOF end the loop.
  const std::atomic<bool>* stop = nullptr;
};

/// Runs the protocol until QUIT, EOF, or *opt.stop. Returns the number
/// of queries answered (for tests and the session summary `plgtool
/// serve` prints).
std::uint64_t serve_loop(QueryService& svc, std::istream& in,
                         std::ostream& out, const ServeOptions& opt = {});

}  // namespace plg::service
