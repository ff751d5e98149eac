// Fixed thread pool with one bounded FIFO queue per worker.
//
// The batch engine shards work across workers explicitly (chunk i goes to
// worker i mod W), so a single shared queue would only add contention:
// per-worker queues give each worker an exclusive mutex + condvar and make
// worker-owned state (shard-sort buffers, metrics slots, RNG streams)
// trivially data-race free — worker w's jobs all run on thread w, in
// submission order. There is deliberately no work stealing: the engine's
// chunks are uniform, and stealing would let a job touch another worker's
// state, reintroducing the sharing this design removes.
//
// Admission control: each queue can be capped (PoolOptions::queue_cap).
// When a queue is full, try_submit() applies the shed policy — reject the
// new job or drop the oldest queued one — and the losing job's `shed`
// callback runs instead of its `run` callback. The pool guarantees that
// exactly one of run/shed is invoked for every accepted Job, so a caller
// counting completions (e.g. the engine's per-batch latch) never wedges:
// a shed chunk still counts down.
//
// Shutdown: the destructor drains every queue (pending jobs run), then
// joins. submit()/try_submit() after shutdown begins is a programming
// error and throws. drain() blocks until every queue is empty and every
// worker idle — used by graceful serve shutdown and the chaos harness.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/locks.h"
#include "util/thread_annotations.h"

namespace plg::service {

/// What to do with a job submitted to a full queue.
enum class ShedPolicy : std::uint8_t {
  kRejectNew,   ///< the incoming job is shed (newest loses)
  kDropOldest,  ///< the oldest queued job is shed, the new one admitted
};

struct PoolOptions {
  /// Worker count (0 = std::thread::hardware_concurrency, clamped >= 1).
  unsigned workers = 0;
  /// Per-worker queue capacity; 0 = unbounded (legacy behavior).
  std::size_t queue_cap = 0;
  ShedPolicy shed_policy = ShedPolicy::kRejectNew;
};

class ThreadPool {
 public:
  /// A unit of work plus its load-shedding fallback. Exactly one of the
  /// two callbacks is invoked per accepted job: `run` on the worker
  /// thread in FIFO order, or `shed` when admission control bounces the
  /// job. `shed` may run on the submitting thread (reject-new) or on the
  /// thread whose submission displaced the job (drop-oldest) — it must
  /// be cheap and must not submit to the pool. An empty `shed` is legal
  /// and simply dropped.
  struct Job {
    std::function<void()> run;
    std::function<void()> shed;
  };

  /// Spawns `workers` threads with unbounded queues (legacy signature).
  explicit ThreadPool(unsigned workers) : ThreadPool(PoolOptions{workers}) {}

  /// Spawns opt.workers threads with per-queue capacity opt.queue_cap.
  explicit ThreadPool(const PoolOptions& opt);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  std::size_t queue_cap() const noexcept { return queue_cap_; }
  ShedPolicy shed_policy() const noexcept { return shed_policy_; }

  /// Enqueues a job on worker `worker % size()`, bypassing admission
  /// control (never shed; the queue may exceed its cap). Jobs on one
  /// worker run sequentially in submission order; jobs on different
  /// workers run concurrently. The job runs on the worker's thread, so
  /// anything it captures that is owned by that worker needs no
  /// synchronization.
  void submit(unsigned worker, std::function<void()> job);

  /// Enqueues under admission control. Returns true when `job.run` was
  /// (or will be) executed on the worker thread; false when `job` itself
  /// was shed (its `shed` callback has already run, on this thread).
  /// Under kDropOldest the return is true but some *other* job's shed
  /// callback may have run on this thread before try_submit returns.
  bool try_submit(unsigned worker, Job job);

  /// Blocks until every queue is empty and every worker is idle. Jobs
  /// submitted concurrently with drain() may or may not be waited for;
  /// callers wanting a quiescent pool must stop submitting first.
  void drain();

 private:
  struct Worker {
    util::Mutex mu;
    std::condition_variable cv;
    std::deque<Job> queue PLG_GUARDED_BY(mu);
    bool stop PLG_GUARDED_BY(mu) = false;
    bool busy PLG_GUARDED_BY(mu) = false;
    std::thread thread;
  };

  void run(Worker& w);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t queue_cap_ = 0;
  ShedPolicy shed_policy_ = ShedPolicy::kRejectNew;
};

}  // namespace plg::service
