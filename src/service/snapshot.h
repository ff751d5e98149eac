// Snapshot: an immutable, sharded, integrity-verified label set, plus the
// holder that lets the service hot-swap it under live traffic.
//
// Lifecycle protocol (the heart of non-blocking serving):
//
//   1. A Snapshot is built OFF the serving path — from a Labeling or a
//      .plgl file — sharded by vertex id via ShardMap. Every shard is a
//      region of a v3 store (store::MappedStore). An in-memory build,
//      a v1/v2 file or a healed shard is packed into a one-shard v3
//      image whose CRC is checked at admission. A v3 file mmap's in and
//      its shards alias the mapping: admission validates only the
//      header + shard directory and builds decode plans, deferring each
//      shard's CRC to its first query — integrity is still enforced
//      before any answer, just lazily, and a first-touch mismatch
//      demotes the shard into the quarantine + self-heal pipeline below.
//   2. Once constructed a Snapshot is never mutated. All accessors are
//      const and touch only immutable state; any number of threads may
//      read one concurrently without synchronization.
//   3. SnapshotStore holds the current snapshot in a shared_ptr guarded
//      by an annotated util::SharedMutex (PLG_GUARDED_BY below makes the
//      compiler enforce the discipline). Readers acquire() a copy (a
//      shared lock held for two pointer copies) and keep using *their*
//      snapshot for the whole batch even if a swap happens mid-batch.
//      Writers build the replacement entirely outside the lock and
//      install it with swap() (exclusive lock held for one pointer
//      swap); the old snapshot dies when its last in-flight reader
//      drops the reference.
//
// Consequently a reload (e.g. `plgtool verify` fallback re-encode) never
// blocks queries for more than a pointer swap and never invalidates
// answers mid-flight: a batch is answered entirely from the snapshot it
// started on.
//
// Quarantine (fault isolation at shard granularity): with
// allow_quarantine, a shard that fails its admission CRC is admitted in
// a *quarantined* state — no store, queries against its vertex range
// answer kCorrupt in-band — instead of failing the whole build. A
// quarantined shard retains its pre-serialization labels as the heal
// source; heal_shard() produces a successor snapshot (healthy shards
// shared by pointer, no re-encode) in which the shard has been
// re-admitted through the same CRC gate. with_quarantined_shard()
// goes the other way: it demotes a shard whose bits turned out to be bad
// at query time. Both return *new* snapshots with new ids, so tallies
// keyed on a snapshot's id (the engine's per-shard corruption counts)
// start over on the successor.
//
// Why a shared_mutex and not std::atomic<std::shared_ptr>? libstdc++'s
// _Sp_atomic (GCC 12) releases its internal spinlock in load() with a
// *relaxed* RMW, so a reader's critical section does not synchronize-with
// the next writer's lock acquisition — formally a data race on the stored
// pointer (the compiler may sink the pointer read past the relaxed
// unlock, pairing a new pointer with an old control block). TSan flags it
// on the hot-swap storm test. The shared_mutex fast path is one atomic
// RMW per acquire, readers never exclude each other, and the protocol is
// explicit, portable, and provably race-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/label_store.h"
#include "core/label_view.h"
#include "core/labeling.h"
#include "store/mapped_store.h"
#include "store/shard_map.h"
#include "util/lifetime.h"
#include "util/locks.h"
#include "util/thread_annotations.h"

namespace plg::service {

// The partition type moved to the storage layer (the v3 file format is
// laid out by it); service code keeps its unqualified spelling.
using store::ShardMap;

class Snapshot {
 public:
  /// Builds a snapshot from an in-memory labeling. Each shard is packed
  /// into a one-shard v3 image and its region CRC is checked right
  /// away, so the snapshot's bits carry CRC protection end to end. With
  /// `allow_quarantine`, a shard failing that check is quarantined
  /// (served kCorrupt, healable) instead of aborting the build; without
  /// it the failure propagates as CorruptionError.
  /// `build_workers` caps the admission ThreadPool (0 = hardware
  /// concurrency). Admission — serialize, CRC check, and plan
  /// materialization — runs one job per shard; with an active fault
  /// plan it drops to the serial path so the chaos suites' k-th-call
  /// injection ordinals stay deterministic. Parallel admission is
  /// bit-identical to serial (per-shard work is independent and pure;
  /// regression-asserted in tests/test_store.cpp).
  static std::shared_ptr<const Snapshot> build(const Labeling& labeling,
                                               std::size_t num_shards,
                                               bool allow_quarantine = false,
                                               unsigned build_workers = 0);

  /// Loads a .plgl file and shards it. A v1/v2 file is parsed with
  /// `verify`, then admitted like build() (a lenient *file* load can
  /// still surface corruption later via per-label spot checks). A file
  /// that fails its own parse always throws — quarantine applies to
  /// per-shard admission only, never to an unreadable source.
  /// A v3 file is mmap'd, not copied: shards alias the mapping
  /// (store::MappedStore), `num_shards` is superseded by the file's own
  /// partition, and per-shard CRC verification is deferred to first
  /// touch regardless of `verify` — no answer is ever served from
  /// unverified bits (view()/get() gate on the lazy CRC), a mismatch
  /// quarantines the shard at query time instead of failing the load.
  static std::shared_ptr<const Snapshot> from_file(
      const std::string& path, std::size_t num_shards,
      StoreVerify verify = StoreVerify::kStrict,
      bool allow_quarantine = false, unsigned build_workers = 0);

  const ShardMap& shard_map() const noexcept { return map_; }
  std::uint64_t size() const noexcept { return map_.num_vertices(); }
  std::size_t num_shards() const noexcept { return shards_.size(); }

  /// Materializes the label of vertex v. Thread-safe: MappedStore::get
  /// is const and reads only immutable words. Precondition: v < size()
  /// and !vertex_quarantined(v). Throws DecodeError when the shard fails
  /// its first-touch CRC — the engine answers that kCorrupt and demotes
  /// the shard.
  Label get(std::uint64_t v) const {
    const Shard& sh = shards_[map_.shard_of(v)];
    return sh.store->get(sh.index,
                         static_cast<std::size_t>(map_.index_in_shard(v)));
  }

  /// Size in bits of label v without materializing it. Precondition as
  /// for get().
  std::size_t label_bits(std::uint64_t v) const {
    const Shard& sh = shards_[map_.shard_of(v)];
    return static_cast<std::size_t>(sh.store->label_bits(
        sh.index, static_cast<std::size_t>(map_.index_in_shard(v))));
  }

  /// Zero-copy decode plan for vertex v's label, or nullptr when the
  /// shard has no plan table (quarantined) or plan construction failed
  /// for this label at admission (the engine then falls back to the
  /// materializing get() + thin_fat_adjacent path). The returned view
  /// aliases the shard's store bits and is valid for the snapshot's
  /// lifetime. Precondition: v < size().
  /// view() gates on the lazy per-shard CRC: the first view() against a
  /// v3-file shard pays one CRC pass (once_flag), and a mismatch makes
  /// every plan in the shard unusable (nullptr), routing queries to the
  /// materializing fallback whose get() throws — the quarantine trigger.
  // plglint: noexcept-hot-path
  const LabelView* view(std::uint64_t v) const noexcept PLG_LIFETIME_BOUND {
    const Shard& sh = shards_[map_.shard_of(v)];
    const std::vector<LabelView>* views = sh.views.get();
    if (views == nullptr || !sh.store->shard_intact(sh.index)) return nullptr;
    const LabelView& lv =
        (*views)[static_cast<std::size_t>(map_.index_in_shard(v))];
    return lv.valid() ? &lv : nullptr;
  }

  /// Where one label's bits live: bits [base, base + bits) of `words`.
  /// A borrow of the snapshot's shard store (util/lifetime.h).
  struct PLG_POINTS_INTO(snap, snapshot) LabelBits {
    const std::uint64_t* words = nullptr;  ///< null: no zero-copy access
    std::uint64_t base = 0;
    std::uint64_t bits = 0;
  };

  /// Label v's bits in place, for decoders that parse straight from the
  /// store (the engine's DistanceView path). `words` is null when the
  /// shard is quarantined or failed its lazy CRC — the same gate as
  /// view(), with the same fallback: the engine materializes through
  /// get(), which throws. The extent comes from the offsets table
  /// validated at admission. Precondition: v < size().
  // plglint: noexcept-hot-path
  LabelBits label_bits_at(std::uint64_t v) const noexcept PLG_LIFETIME_BOUND {
    const Shard& sh = shards_[map_.shard_of(v)];
    if (!sh.healthy() || !sh.store->shard_intact(sh.index)) return {};
    const std::uint64_t* off = sh.store->shard_offsets(sh.index);
    const auto i = static_cast<std::size_t>(map_.index_in_shard(v));
    return {sh.store->shard_bits(sh.index), off[i], off[i + 1] - off[i]};
  }

  /// Re-derives v's stored spot checksum. False means the shard's bits
  /// rotted *after* admission (or the encoder lied); the engine counts
  /// these as corruption fallbacks. Precondition as for get().
  bool verify_label(std::uint64_t v) const {
    const Shard& sh = shards_[map_.shard_of(v)];
    return sh.store->verify_label(
        sh.index, static_cast<std::size_t>(map_.index_in_shard(v)));
  }

  /// True when shard s was quarantined (admission failed, or the shard
  /// was demoted at query time). Queries routed to it answer kCorrupt.
  bool shard_quarantined(std::size_t s) const noexcept {
    return !shards_[s].healthy();
  }

  /// True when v's shard is quarantined.
  bool vertex_quarantined(std::uint64_t v) const noexcept {
    return shard_quarantined(map_.shard_of(v));
  }

  /// Number of quarantined shards (0 on a fully healthy snapshot).
  /// Counted once at construction — the snapshot never changes after —
  /// so the engine can skip per-query vertex_quarantined() on a healthy
  /// snapshot for the price of one load.
  std::size_t num_quarantined() const noexcept { return num_quarantined_; }

  /// True when quarantined shard s retains a heal source (labels kept
  /// from before serialization / extracted before demotion) and a
  /// heal_shard() attempt is possible.
  bool shard_healable(std::size_t s) const noexcept {
    return !shards_[s].healthy() && shards_[s].heal_labels != nullptr;
  }

  /// Why shard s is quarantined (empty for healthy shards).
  const std::string& shard_error(std::size_t s) const noexcept {
    return shards_[s].error;
  }

  /// Builds a successor snapshot in which quarantined shard s has been
  /// re-admitted through the admission CRC gate from its retained labels.
  /// Healthy shards are shared by pointer (no re-encode, no copy); the
  /// successor gets a fresh id.
  /// Precondition: shard_healable(s). Throws CorruptionError when the
  /// re-admission fails again (e.g. a fault plan is still firing) — the
  /// caller backs off and retries.
  std::shared_ptr<const Snapshot> heal_shard(std::size_t s) const;

  /// Builds a successor snapshot in which shard s is quarantined with
  /// `reason`. Its labels, re-read CRC-gated from its store's source,
  /// become the heal source (bad source bytes make the shard
  /// unhealable). Healthy shards are shared by pointer.
  std::shared_ptr<const Snapshot> with_quarantined_shard(
      std::size_t s, std::string reason) const;

  /// Total v3 shard-region bytes across healthy shards (observability);
  /// independent of where the labels came from.
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }

  /// Shard s's CRC verdict without triggering verification (in-memory
  /// shards are kVerified at admission; quarantined ones kUnverified).
  store::ShardCrcState shard_crc_state(std::size_t s) const noexcept {
    const Shard& sh = shards_[s];
    if (!sh.healthy()) return store::ShardCrcState::kUnverified;
    return sh.store->shard_crc_state(sh.index);
  }

  /// Process-unique identity, assigned at construction from a monotonic
  /// counter. The engine keys its per-shard corruption tallies on this
  /// id, so a snapshot allocated at a freed predecessor's address never
  /// inherits the predecessor's tallies (no pointer ABA).
  std::uint64_t id() const noexcept { return id_; }

 private:
  /// One shard slot: region `index` of a v3 store — a whole mmap'd file
  /// (shared by this snapshot's shards, which keep it alive) or a
  /// one-shard in-memory image. A null store marks quarantine;
  /// heal_labels is the (possibly absent) heal source, populated only on
  /// quarantine so healthy snapshots carry no label copies.
  struct Shard {
    std::shared_ptr<const store::MappedStore> store;
    std::size_t index = 0;
    /// Decode plans, one per label, parsed once at admission. Views alias
    /// the store's packed bits, so the members share one lifetime (all
    /// are copied together by with_shard). Null iff quarantined.
    /// Labels whose plan construction failed hold an invalid placeholder.
    std::shared_ptr<const std::vector<LabelView>> views;
    std::shared_ptr<const std::vector<Label>> heal_labels;
    std::string error;

    bool healthy() const noexcept { return store != nullptr; }
  };

  Snapshot();

  /// Packs `labels` into a one-shard v3 image and checks its CRC now:
  /// the admission gate for in-memory labels (and the chaos harness's
  /// shard-corruption injection point). Throws
  /// CorruptionError on failure unless allow_quarantine, in which case
  /// the returned Shard is quarantined with `labels` as heal source.
  static Shard admit(std::vector<Label> labels, bool allow_quarantine);

  /// Admits label_of(0..n) shard by shard under ShardMap(n, num_shards).
  static std::shared_ptr<const Snapshot> admit_all(
      std::uint64_t n, std::size_t num_shards, bool allow_quarantine,
      unsigned build_workers,
      const std::function<Label(std::uint64_t)>& label_of);

  /// Every admission's last step: validates shard s's offsets table,
  /// then builds its plans. Throws DecodeError on a bad table.
  static Shard plan_shard(std::shared_ptr<const store::MappedStore> store,
                          std::size_t s);

  /// Zero-copy v3 admission: one plan-build job per shard over the
  /// shared mapping (no label bytes are copied or CRC'd here).
  static std::shared_ptr<const Snapshot> from_mapped(const std::string& path,
                                                     bool allow_quarantine,
                                                     unsigned build_workers);

  /// Successor sharing every other shard slot (shared_ptr copies) with
  /// slot s replaced by `shard`; fresh id, totals recounted.
  std::shared_ptr<const Snapshot> with_shard(std::size_t s,
                                             Shard shard) const;

  /// Recounts total_bytes_ and num_quarantined_ after shards_ is final.
  void recompute_totals() noexcept;

  ShardMap map_;
  std::vector<Shard> shards_;
  std::uint64_t total_bytes_ = 0;
  std::size_t num_quarantined_ = 0;
  std::uint64_t id_ = 0;
};

/// The hot-swappable holder. One per service; readers never block.
class SnapshotStore {
 public:
  explicit SnapshotStore(std::shared_ptr<const Snapshot> initial)
      : current_(std::move(initial)) {}

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Read-side acquire: a shared lock held for one ref-count bump and
  /// two pointer copies. Readers never exclude each other, and a writer
  /// only excludes them for the duration of a pointer swap. The returned
  /// pointer is never null.
  // plglint: noexcept-hot-path
  std::shared_ptr<const Snapshot> acquire() const PLG_EXCLUDES(mu_) {
    util::SharedLock lk(mu_);
    return current_;
  }

  /// Installs a replacement snapshot and bumps the generation counter.
  /// In-flight batches keep serving from the snapshot they acquired; the
  /// replaced snapshot is released *outside* the lock so its destructor
  /// (potentially megabytes of shard frees) never stalls readers.
  void swap(std::shared_ptr<const Snapshot> next) PLG_EXCLUDES(mu_) {
    {
      util::ExclusiveLock lk(mu_);
      current_.swap(next);
    }
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Compare-and-swap for self-healing: installs `next` only when the
  /// current snapshot is still `expected` (by pointer identity). False
  /// means a concurrent swap() won — e.g. an operator RELOAD landed
  /// while the healer was rebuilding — and `next` is discarded; the
  /// healer re-examines the new current snapshot instead of clobbering
  /// it with a successor of a retired one.
  bool swap_if(const Snapshot* expected,
               std::shared_ptr<const Snapshot> next) PLG_EXCLUDES(mu_) {
    {
      util::ExclusiveLock lk(mu_);
      if (current_.get() != expected) return false;
      current_.swap(next);
    }
    generation_.fetch_add(1, std::memory_order_acq_rel);
    return true;  // old snapshot (in `next` now) released outside the lock
  }

  /// Number of swaps performed (generation 0 = the initial snapshot).
  std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  mutable util::SharedMutex mu_;
  std::shared_ptr<const Snapshot> current_ PLG_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> generation_{0};  // relaxed stat, not guarded
};

}  // namespace plg::service
