#include "service/snapshot.h"

#include <mutex>
#include <thread>
#include <utility>

#include "service/thread_pool.h"
#include "store/plan_builder.h"
#include "util/errors.h"
#include "util/fault_injection.h"

namespace plg::service {

namespace {

std::atomic<std::uint64_t> next_snapshot_id{1};

/// Runs job(s) for every shard index, in parallel on a transient pool
/// when that is profitable AND deterministic. The serial path is chosen
/// when a fault plan is active: the chaos hooks inject on every k-th
/// *call*, so admission-order determinism is part of their contract.
/// Per-shard admission work is otherwise independent and pure — the
/// shards produced are bit-identical either way. The first exception
/// wins and is rethrown after the pool drains (thread join gives the
/// rethrow a happens-before over the capturing store).
void for_each_shard(std::size_t count, unsigned workers,
                    const std::function<void(std::size_t)>& job) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, count == 0 ? 1 : count));
  if (count <= 1 || workers <= 1 || fault::enabled()) {
    for (std::size_t s = 0; s < count; ++s) job(s);
    return;
  }
  std::once_flag first_error;
  std::exception_ptr error;
  {
    ThreadPool pool(workers);
    for (std::size_t s = 0; s < count; ++s) {
      pool.submit(static_cast<unsigned>(s % workers), [&job, &first_error,
                                                       &error, s] {
        try {
          job(s);
        } catch (...) {
          std::call_once(first_error,
                         [&error] { error = std::current_exception(); });
        }
      });
    }
  }  // ~ThreadPool drains every queue and joins
  if (error) std::rethrow_exception(error);
}

}  // namespace

Snapshot::Snapshot()
    : id_(next_snapshot_id.fetch_add(1, std::memory_order_relaxed)) {}

Snapshot::Shard Snapshot::admit(std::vector<Label> labels,
                                bool allow_quarantine) {
  // Round-trips the labels through the checksummed v2 codec. The strict
  // re-parse is the admission check: a shard is either CRC-clean or this
  // throws / quarantines. The Labeling stays alive past the parse so a
  // failed admission can keep its labels as the heal source.
  Labeling part(std::move(labels));
  auto blob = LabelStore::serialize(part);
  Shard shard;
  shard.bytes = blob.size();
  // Chaos injection point: the plan may flip one bit of the fresh blob
  // here, between serialize and the strict re-parse, modeling memory or
  // bus corruption during a reload.
  fault::on_shard_admission(blob);
  try {
    shard.store = std::make_shared<const LabelStore>(
        LabelStore::parse(std::move(blob), StoreVerify::kStrict));
    // Admission is also where decode plans are built: one header parse
    // per label, amortized over every query the snapshot will ever
    // serve (store/plan_builder.h — the same materialization stage the
    // mmap path runs per shard).
    shard.views = std::make_shared<const std::vector<LabelView>>(
        store::build_plans(shard.store->bits_data(),
                           shard.store->offsets_data(),
                           shard.store->size()));
  } catch (const DecodeError& e) {
    if (!allow_quarantine) throw;
    shard.store = nullptr;
    shard.views = nullptr;
    shard.bytes = 0;
    shard.error = e.what();
    shard.heal_labels =
        std::make_shared<const std::vector<Label>>(part.labels());
  }
  return shard;
}

std::shared_ptr<Snapshot> Snapshot::clone_shards() const {
  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->map_ = map_;
  snap->shards_ = shards_;  // shared_ptr copies; no label data moves
  snap->total_bytes_ = total_bytes_;
  snap->num_quarantined_ = num_quarantined_;
  return snap;
}

void Snapshot::recompute_totals() noexcept {
  total_bytes_ = 0;
  num_quarantined_ = 0;
  for (const Shard& sh : shards_) {
    total_bytes_ += sh.bytes;
    num_quarantined_ += sh.healthy() ? 0u : 1u;
  }
}

std::shared_ptr<const Snapshot> Snapshot::build(const Labeling& labeling,
                                                std::size_t num_shards,
                                                bool allow_quarantine,
                                                unsigned build_workers) {
  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->map_ = ShardMap(labeling.size(), num_shards);
  snap->shards_.resize(snap->map_.num_shards());
  for_each_shard(
      snap->map_.num_shards(), build_workers, [&](std::size_t s) {
        std::vector<Label> part;
        const std::uint64_t begin = snap->map_.shard_begin(s);
        const std::uint64_t end = snap->map_.shard_end(s);
        part.reserve(static_cast<std::size_t>(end - begin));
        for (std::uint64_t v = begin; v < end; ++v) {
          part.push_back(labeling[static_cast<Vertex>(v)]);
        }
        snap->shards_[s] = admit(std::move(part), allow_quarantine);
      });
  snap->recompute_totals();
  return snap;
}

std::shared_ptr<const Snapshot> Snapshot::from_file(const std::string& path,
                                                    std::size_t num_shards,
                                                    StoreVerify verify,
                                                    bool allow_quarantine,
                                                    unsigned build_workers) {
  // A v3 file serves from the mapping; `verify` has no strict/lenient
  // split there (integrity is always enforced, lazily per shard).
  if (store::MappedStore::sniff_file_version(path) == store::kVersion3) {
    return from_mapped(path, allow_quarantine, build_workers);
  }
  const LabelStore whole = LabelStore::open_file(path, verify);
  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->map_ = ShardMap(whole.size(), num_shards);
  snap->shards_.resize(snap->map_.num_shards());
  for_each_shard(
      snap->map_.num_shards(), build_workers, [&](std::size_t s) {
        std::vector<Label> part;
        const std::uint64_t begin = snap->map_.shard_begin(s);
        const std::uint64_t end = snap->map_.shard_end(s);
        part.reserve(static_cast<std::size_t>(end - begin));
        for (std::uint64_t v = begin; v < end; ++v) {
          part.push_back(whole.get(static_cast<std::size_t>(v)));
        }
        snap->shards_[s] = admit(std::move(part), allow_quarantine);
      });
  snap->recompute_totals();
  return snap;
}

std::shared_ptr<const Snapshot> Snapshot::from_mapped(const std::string& path,
                                                      bool allow_quarantine,
                                                      unsigned build_workers) {
  // Header/directory failures always throw (an unreadable source is
  // never quarantined, matching the heap path's file-parse contract).
  const std::shared_ptr<const store::MappedStore> mapped =
      store::MappedStore::open(path);
  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->map_ = ShardMap(mapped->num_labels(), mapped->num_shards());
  snap->shards_.resize(mapped->num_shards());
  for_each_shard(
      mapped->num_shards(), build_workers, [&](std::size_t s) {
        Shard sh;
        try {
          // Structural gate first: with the offset table proven, plan
          // building (and any later BitReader walk) stays inside the
          // mapping even though the shard's CRC has not been checked yet.
          store::validate_offsets(
              mapped->shard_offsets(s),
              static_cast<std::size_t>(mapped->shard_labels(s)),
              mapped->shard_total_bits(s));
          sh.views = std::make_shared<const std::vector<LabelView>>(
              store::build_plans(
                  mapped->shard_bits(s), mapped->shard_offsets(s),
                  static_cast<std::size_t>(mapped->shard_labels(s))));
          sh.mapped = mapped;
          sh.mapped_index = s;
          sh.bytes = mapped->shard_bytes(s);
        } catch (const DecodeError& e) {
          if (!allow_quarantine) throw;
          sh = Shard();
          sh.error = e.what();
          // A structurally bad offsets table usually means the region
          // rotted wholesale; the disk re-read (CRC-gated) decides
          // whether a heal source exists at all.
          try {
            sh.heal_labels = std::make_shared<const std::vector<Label>>(
                mapped->read_shard_labels(s));
          } catch (const DecodeError&) {
            sh.heal_labels = nullptr;
          }
        }
        snap->shards_[s] = std::move(sh);
      });
  snap->recompute_totals();
  return snap;
}

std::shared_ptr<const Snapshot> Snapshot::heal_shard(std::size_t s) const {
  auto snap = clone_shards();
  // Copy the heal source: a failed re-admission must leave the original
  // snapshot's heal_labels intact for the next attempt. The healed shard
  // is always heap-backed, even in an otherwise mmap'd snapshot — its
  // mapped bytes are what went bad.
  std::vector<Label> labels(*shards_[s].heal_labels);
  snap->shards_[s] = admit(std::move(labels), /*allow_quarantine=*/false);
  snap->recompute_totals();
  return snap;
}

std::shared_ptr<const Snapshot> Snapshot::with_quarantined_shard(
    std::size_t s, std::string reason) const {
  auto snap = clone_shards();
  Shard& sh = snap->shards_[s];
  if (sh.healthy()) {
    // Extract a heal source from the shard being demoted. A mapped
    // shard re-reads its bytes from the FILE (not the suspect mapping),
    // CRC-gated — memory-side rot of a clean file heals; on-disk rot
    // makes the shard unhealable. A heap shard decodes from its store's
    // bits; any label that no longer decodes makes the shard unhealable
    // rather than propagating the throw.
    try {
      std::vector<Label> labels;
      if (sh.mapped != nullptr) {
        labels = sh.mapped->read_shard_labels(sh.mapped_index);
      } else {
        labels.reserve(sh.store->size());
        for (std::size_t i = 0; i < sh.store->size(); ++i) {
          labels.push_back(sh.store->get(i));
        }
      }
      sh.heal_labels =
          std::make_shared<const std::vector<Label>>(std::move(labels));
    } catch (const DecodeError&) {
      sh.heal_labels = nullptr;
    }
    sh.store = nullptr;
    sh.mapped = nullptr;
    sh.views = nullptr;
    sh.bytes = 0;
  }
  sh.error = std::move(reason);
  snap->recompute_totals();
  return snap;
}

}  // namespace plg::service
