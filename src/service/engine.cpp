#include "service/engine.h"

#include <algorithm>
#include <chrono>
#include <latch>
#include <stdexcept>
#include <utility>

#include "core/distance_scheme.h"
#include "core/distance_view.h"
#include "core/label_view.h"
#include "core/thin_fat.h"
#include "util/errors.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace plg::service {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0,
                         std::chrono::steady_clock::time_point t1) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Spot check: re-derives v's stored checksum and throws DecodeError on
/// a mismatch, like a label that fails to decode.
// plglint: noexcept-hot-path
void check_label(const Snapshot& snap, std::uint64_t v) {
  if (!snap.verify_label(v)) {
    // plglint-disable(hot-path-throw): DecodeError is the in-band
    // corruption contract; QueryService::answer catches it (kCorrupt).
    throw DecodeError("service: label fails spot checksum");
  }
}

/// Spot-checks both endpoints of q; `blame` is left on the endpoint
/// whose check threw, and back on u when both pass.
// plglint: noexcept-hot-path
void check_pair(const Snapshot& snap, const QueryRequest& q,
                std::uint64_t& blame) {
  check_label(snap, q.u);
  blame = q.v;
  check_label(snap, q.v);
  blame = q.u;
}

}  // namespace

/// One chunk's counters. They live on the worker's stack while the chunk
/// runs and reach its WorkerMetrics slot in one flush() when it ends, so
/// answering a query costs no atomic RMW.
struct QueryService::ChunkTally {
  std::uint64_t queries = 0;
  std::uint64_t positive = 0;
  std::uint64_t view_hits = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t range_errors = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t quarantine_hits = 0;

  void flush(WorkerMetrics& m) const noexcept {
    const auto add = [](std::atomic<std::uint64_t>& c, std::uint64_t d) {
      if (d != 0) c.fetch_add(d, std::memory_order_relaxed);
    };
    add(m.queries, queries);
    add(m.positive, positive);
    add(m.view_hits, view_hits);
    add(m.corruptions, corruptions);
    add(m.range_errors, range_errors);
    add(m.deadline_exceeded, deadline_exceeded);
    add(m.quarantine_hits, quarantine_hits);
  }
};

/// Worker-owned mutable state. Only worker w's thread ever touches
/// states_[w] (jobs for w run exclusively on that thread), so none of
/// this needs synchronization — the pool's per-worker queues are the
/// isolation mechanism.
struct QueryService::WorkerState {
  /// order_by_shard's buffer: the chunk permutation, each query's bucket,
  /// then the bucket offsets. Grows once, reused by every later chunk.
  std::vector<std::uint32_t> sort_buf;

  /// Orders the chunk's query indices by the shard of their first
  /// endpoint, so consecutive queries walk one shard's view table and
  /// packed bits instead of hopping between shards per query. A stable
  /// counting sort: one shard_of() per query, and equal shards keep their
  /// arrival order, so the permutation is deterministic. Out-of-range u
  /// gets bucket num_shards() of its own. A chunk with no more queries
  /// than the snapshot has shards keeps its arrival order, which bounds
  /// the bucket pass by the chunk size.
  // plglint: noexcept-hot-path
  const std::uint32_t* order_by_shard(const ShardMap& map,
                                      const QueryRequest* reqs,
                                      std::size_t count) {
    const std::size_t shards = map.num_shards();
    const bool sort = shards > 1 && shards < count;
    // plglint-disable(hot-path-alloc): amortized — the worker-owned buffer
    // grows to its largest chunk once and is reused by every later chunk.
    sort_buf.resize(sort ? 2 * count + shards + 2 : count);
    std::uint32_t* order = sort_buf.data();
    if (!sort) {
      for (std::size_t i = 0; i < count; ++i) {
        order[i] = static_cast<std::uint32_t>(i);
      }
      return order;
    }
    std::uint32_t* bucket = order + count;
    std::uint32_t* start = bucket + count;  // shards + 2 entries
    std::fill(start, start + shards + 2, 0u);
    const std::uint64_t n = map.num_vertices();
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t u = reqs[i].u;
      const std::size_t b = u < n ? map.shard_of(u) : shards;
      bucket[i] = static_cast<std::uint32_t>(b);
      ++start[b + 1];
    }
    for (std::size_t b = 1; b <= shards; ++b) start[b + 1] += start[b];
    for (std::size_t i = 0; i < count; ++i) {
      order[start[bucket[i]]++] = static_cast<std::uint32_t>(i);
    }
    return order;
  }
};

QueryService::QueryService(std::shared_ptr<const Snapshot> snapshot,
                           ServiceOptions opt)
    : opt_(opt),
      store_((snapshot ? std::move(snapshot)
                       : throw std::invalid_argument(
                             "QueryService: null snapshot"))),
      pool_(PoolOptions{opt.threads, opt.queue_cap, opt.shed_policy}),
      metrics_(pool_.size()) {
  if (opt_.chunk == 0) opt_.chunk = 1;
  states_.reserve(pool_.size());
  for (unsigned i = 0; i < pool_.size(); ++i) {
    states_.push_back(std::make_unique<WorkerState>());
  }
  if (opt_.heal) {
    // Poke once before the thread exists: the initial snapshot may have
    // been admitted with quarantined shards (lenient chaos load), and
    // the healer should pick those up without waiting for a corruption.
    {
      util::MutexLock lock(heal_mu_);
      heal_poke_ = true;
    }
    healer_ = std::thread([this] { healer_main(); });
  }
}

QueryService::~QueryService() {
  {
    util::MutexLock lock(heal_mu_);
    heal_stop_ = true;
  }
  heal_cv_.notify_all();
  if (healer_.joinable()) healer_.join();
}

// plglint: noexcept-hot-path
void QueryService::run_chunk(unsigned worker, const Snapshot& snap,
                             BatchControl& ctl, const QueryRequest* reqs,
                             QueryResult* results, std::size_t count) {
  WorkerState& ws = *states_[worker];
  WorkerMetrics& m = metrics_.slot(worker);
  m.batches.fetch_add(1, std::memory_order_relaxed);

  // Chaos: a slow-worker fault stalls the whole chunk up front, which is
  // what makes deadline checks and queue back-pressure observable.
  const std::uint32_t stall = fault::next_chunk_stall();
  if (stall != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall));
  }

  // Results still land at their original batch positions.
  const std::uint32_t* order = ws.order_by_shard(snap.shard_map(), reqs, count);

  // The only per-query work is the answer itself: counters go to `tally`
  // and the clock is read once per chunk — unless the batch has a
  // deadline, which is then checked before every query.
  ChunkTally tally;
  const bool timed = ctl.deadline.has_value();
  const auto t0 = std::chrono::steady_clock::now();
  auto t1 = t0;
  // A Lemma 7 thin x thin query reads two whole fat tables, so the
  // labels of the query two ahead are requested now and load while the
  // two joins in between run. Adjacency plans read a word or two; a
  // prefetch for them measured no gain, so their loop only tests the
  // hoisted flag.
  const bool prefetch = opt_.kind == QueryKind::kDistance;
  const std::uint64_t n = snap.size();
  std::size_t k = 0;
  for (; k < count; ++k) {
    if (timed) {
      t1 = std::chrono::steady_clock::now();
      if (ctl.cancelled.load(std::memory_order_relaxed) ||
          t1 >= *ctl.deadline) {
        break;
      }
    }
    if (prefetch && k + 2 < count) {
      const QueryRequest& ahead = reqs[order[k + 2]];
      if (ahead.u < n && ahead.v < n) {
        snap.prefetch_label(ahead.u);
        snap.prefetch_label(ahead.v);
      }
    }
    const std::uint32_t i = order[k];
    results[i] = answer(snap, reqs[i], tally);
  }
  if (k < count) {
    // Cooperative cancellation: this chunk (and, via the shared flag,
    // every other chunk of the batch) stops answering; everything
    // unanswered reports kDeadlineExceeded. Cancelled queries are not
    // counted in queries — they were never served.
    ctl.cancelled.store(true, std::memory_order_relaxed);
    for (std::size_t j = k; j < count; ++j) {
      results[order[j]] =
          QueryResult{QueryStatus::kDeadlineExceeded, false, -1};
    }
    tally.deadline_exceeded = count - k;
  } else {
    t1 = std::chrono::steady_clock::now();
  }
  tally.queries = k;
  if (k != 0) m.latency.record_n(elapsed_ns(t0, t1) / k, k);
  tally.flush(m);
}

// plglint: noexcept-hot-path
QueryResult QueryService::answer(const Snapshot& snap, const QueryRequest& q,
                                 ChunkTally& tally) {
  QueryResult r;
  const std::uint64_t n = snap.size();
  if (q.u >= n || q.v >= n) {
    r.status = QueryStatus::kOutOfRange;
    ++tally.range_errors;
    return r;
  }
  if (snap.num_quarantined() != 0 &&
      (snap.vertex_quarantined(q.u) || snap.vertex_quarantined(q.v))) {
    // The shard is already known-bad; answer in-band without touching
    // its bits. The healer is already on it.
    r.status = QueryStatus::kCorrupt;
    ++tally.quarantine_hits;
    return r;
  }
  if (fault::should_fail_query()) {
    // Chaos: treat this fetch as a decode failure, exactly like the
    // catch below — including the shard tally that drives demotion.
    r.status = QueryStatus::kCorrupt;
    ++tally.corruptions;
    note_shard_corruption(snap, q.u);
    return r;
  }
  // The endpoint whose shard a DecodeError is charged to: the one whose
  // spot check or fetch threw. A failure to decode two fetched labels
  // cannot be pinned on one of them and stays charged to u.
  std::uint64_t blame = q.u;
  const auto set_distance = [&r, &tally](std::optional<std::uint32_t> d) {
    r.distance = d ? static_cast<std::int64_t>(*d) : -1;
    tally.positive += d ? 1u : 0u;
  };
  try {
    // Fast paths answer straight from the snapshot's bits — no label
    // materialization. Each falls through to the reference path below
    // whenever an endpoint's shard is quarantined or failed its lazy CRC,
    // or its plan is unusable (a corrupt label).
    // Equivalence with the reference decoders — answers and DecodeErrors
    // both — is differentially fuzzed in tests/test_label_view.cpp and
    // tests/test_distance_view.cpp.
    //
    // thin/fat: the LabelView plans built at admission.
    const LabelView* va = nullptr;
    const LabelView* vb = nullptr;
    if (opt_.kind == QueryKind::kAdjacency &&
        (va = snap.view(q.u)) != nullptr &&
        (vb = snap.view(q.v)) != nullptr) {
      if (opt_.spot_check) check_pair(snap, q, blame);
      r.adjacent = label_view_adjacent(*va, *vb);
      tally.positive += r.adjacent ? 1u : 0u;
      ++tally.view_hits;
      return r;
    }
    // Lemma 7: DistanceViews parsed per query from the mapped bits. A
    // header the oracle would reject throws here, charged to u like the
    // oracle's own decode failure.
    if (opt_.kind == QueryKind::kDistance) {
      const Snapshot::LabelBits ba = snap.label_bits_at(q.u);
      const Snapshot::LabelBits bb = ba.words != nullptr
                                         ? snap.label_bits_at(q.v)
                                         : Snapshot::LabelBits{};
      if (bb.words != nullptr) {
        if (opt_.spot_check) check_pair(snap, q, blame);
        const DistanceView da =
            DistanceView::parse(ba.words, ba.base, ba.bits);
        const DistanceView db =
            DistanceView::parse(bb.words, bb.base, bb.bits);
        if (da.complete() && db.complete()) {
          set_distance(distance_view(da, db));
          ++tally.view_hits;
          return r;
        }
      }
    }
    // Reference path: both labels materialized, then the reference
    // decoder. It serves CRC-failed shards and corrupt labels.
    if (opt_.spot_check) check_label(snap, q.u);
    const Label la = snap.get(q.u);
    blame = q.v;
    if (opt_.spot_check) check_label(snap, q.v);
    const Label lb = snap.get(q.v);
    blame = q.u;
    if (opt_.kind == QueryKind::kAdjacency) {
      r.adjacent = thin_fat_adjacent(la, lb);
      tally.positive += r.adjacent ? 1u : 0u;
    } else {
      set_distance(DistanceScheme::distance(la, lb));
    }
  } catch (const DecodeError&) {
    // Corruption fallback: the query reports kCorrupt instead of the
    // exception escaping onto the worker thread. Serving continues,
    // and the shard tally may demote the blamed shard to quarantine.
    r = QueryResult{QueryStatus::kCorrupt, false, -1};
    ++tally.corruptions;
    note_shard_corruption(snap, blame);
  }
  return r;
}

std::vector<QueryResult> QueryService::query_batch(
    const std::vector<QueryRequest>& batch, const BatchOptions& bopt) {
  std::vector<QueryResult> results(batch.size());
  if (batch.empty()) return results;

  // One snapshot for the whole batch: acquired before the first chunk is
  // queued, released (possibly freeing a swapped-out snapshot) after the
  // latch confirms every chunk is done.
  const std::shared_ptr<const Snapshot> snap = store_.acquire();
  const std::size_t chunk = opt_.chunk;
  const std::size_t nchunks = (batch.size() + chunk - 1) / chunk;
  std::latch done(static_cast<std::ptrdiff_t>(nchunks));
  BatchControl ctl;
  ctl.deadline = bopt.deadline;

  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t count = std::min(chunk, batch.size() - begin);
    const unsigned worker = static_cast<unsigned>(c % pool_.size());
    // The frame outlives every chunk (done.wait below), so jobs may
    // capture the batch/result spans, the control block, and the
    // snapshot by reference. The pool runs exactly one of run/shed per
    // chunk, so the latch always reaches zero — a shed chunk counts
    // down through its fallback.
    ThreadPool::Job job;
    job.run = [this, worker, &snap, &ctl, &done,
               reqs = batch.data() + begin, res = results.data() + begin,
               count] {
      run_chunk(worker, *snap, ctl, reqs, res, count);
      done.count_down();
    };
    job.shed = [this, &done, res = results.data() + begin, count] {
      // Runs on whichever thread hit the full queue (this one under
      // reject-new, a later submitter under drop-oldest) — never
      // concurrently with job.run, so writing the result span is safe.
      for (std::size_t i = 0; i < count; ++i) {
        res[i] = QueryResult{QueryStatus::kOverloaded, false, -1};
      }
      SharedCounters& sc = metrics_.shared();
      sc.shed_chunks.fetch_add(1, std::memory_order_relaxed);
      sc.shed_queries.fetch_add(count, std::memory_order_relaxed);
      done.count_down();
    };
    pool_.try_submit(worker, std::move(job));
  }
  done.wait();
  return results;
}

QueryResult QueryService::query(const QueryRequest& req) {
  // Routed through the pool as a batch of one: worker state must only
  // ever be touched from its worker's thread.
  return query_batch({req}).front();
}

void QueryService::reload(std::shared_ptr<const Snapshot> next) {
  if (!next) throw std::invalid_argument("QueryService::reload: null snapshot");
  store_.swap(std::move(next));
  // The replacement may itself carry quarantined shards (a chaos reload
  // or a lenient load); wake the healer to look.
  {
    util::MutexLock lock(heal_mu_);
    heal_poke_ = true;
  }
  heal_cv_.notify_all();
}

void QueryService::drain() { pool_.drain(); }

void QueryService::note_shard_corruption(const Snapshot& snap,
                                         std::uint64_t v) {
  if (opt_.quarantine_after == 0) return;
  const std::size_t s = snap.shard_map().shard_of(v);
  bool demote = false;
  {
    util::MutexLock lock(heal_mu_);
    if (corrupt_snap_id_ != snap.id()) {
      // New snapshot: old tallies describe retired bits. Start over.
      corrupt_snap_id_ = snap.id();
      shard_corruptions_.assign(snap.num_shards(), 0);
    }
    if (s >= shard_corruptions_.size()) return;
    // == (not >=) so exactly one caller demotes per snapshot/shard even
    // when several workers tally corruption concurrently.
    if (++shard_corruptions_[s] == opt_.quarantine_after) demote = true;
  }
  if (!demote) return;
  // Build the demoted snapshot outside heal_mu_ — it decodes a shard's
  // worth of labels. swap_if: if an operator RELOAD replaced `snap`
  // meanwhile, its corruption history is moot and the demotion is
  // dropped rather than clobbering the fresh snapshot.
  auto next = snap.with_quarantined_shard(
      s, "query-time corruption reached quarantine threshold");
  if (store_.swap_if(&snap, std::move(next))) {
    util::MutexLock lock(heal_mu_);
    heal_poke_ = true;
  }
  heal_cv_.notify_all();
}

bool QueryService::heal_once(std::uint64_t attempt) {
  std::shared_ptr<const Snapshot> snap = store_.acquire();
  bool all_clear = true;
  for (std::size_t s = 0; s < snap->num_shards(); ++s) {
    if (!snap->shard_quarantined(s) || !snap->shard_healable(s)) continue;
    metrics_.shared().heal_attempts.fetch_add(1, std::memory_order_relaxed);
    try {
      std::shared_ptr<const Snapshot> healed = snap->heal_shard(s);
      if (store_.swap_if(snap.get(), healed)) {
        metrics_.shared().heal_successes.fetch_add(1,
                                                   std::memory_order_relaxed);
        // Keep healing the successor: remaining quarantined shards were
        // carried over by pointer.
        snap = std::move(healed);
      } else {
        // Lost the swap race to a reload; whatever is current now is a
        // different lineage. Back off and re-examine it next pass.
        return false;
      }
    } catch (const DecodeError&) {
      // Re-admission failed (e.g. the fault plan is still firing).
      all_clear = false;
    }
  }
  (void)attempt;
  return all_clear;
}

void QueryService::healer_main() {
  for (;;) {
    {
      util::MutexLock lock(heal_mu_);
      while (!heal_stop_ && !heal_poke_) lock.wait(heal_cv_);
      if (heal_stop_) return;
      heal_poke_ = false;
    }
    // Retry with capped exponential backoff until every healable shard
    // has been re-admitted. The jitter is a pure function of
    // (heal_seed, attempt) via stream_rng, so a seeded chaos run
    // produces the same heal schedule every time.
    std::uint64_t attempt = 0;
    while (!heal_once(attempt)) {
      ++attempt;
      const unsigned shift =
          attempt < 16 ? static_cast<unsigned>(attempt) : 16u;
      std::uint64_t delay_ms = std::uint64_t{opt_.heal_base_ms} << shift;
      if (delay_ms > opt_.heal_max_ms) delay_ms = opt_.heal_max_ms;
      Rng jitter_rng = stream_rng(opt_.heal_seed, attempt);
      delay_ms += jitter_rng.next_below(delay_ms / 2 + 1);
      util::MutexLock lock(heal_mu_);
      if (heal_stop_) return;
      lock.wait_for(heal_cv_, std::chrono::milliseconds(delay_ms));
      if (heal_stop_) return;
    }
  }
}

ServiceStats QueryService::stats() const {
  ServiceStats s = metrics_.aggregate();
  const auto snap = store_.acquire();
  s.snapshot_generation = store_.generation();
  s.snapshot_labels = snap->size();
  s.snapshot_bytes = snap->total_bytes();
  s.snapshot_shards = snap->num_shards();
  s.quarantined_shards = snap->num_quarantined();
  return s;
}

}  // namespace plg::service
