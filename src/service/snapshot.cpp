#include "service/snapshot.h"

#include <mutex>
#include <span>
#include <thread>
#include <utility>

#include "service/thread_pool.h"
#include "store/plan_builder.h"
#include "store/store_writer.h"
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

/// Shard s's labels re-read CRC-gated from its store's source, or null
/// when those bytes are bad too (the shard is then unhealable).
std::shared_ptr<const std::vector<Label>> heal_source(
    const store::MappedStore& store, std::size_t s) {
  try {
    return std::make_shared<const std::vector<Label>>(
        store.read_shard_labels(s));
  } catch (const DecodeError&) {
    return nullptr;
  }
}

}  // namespace

Snapshot::Snapshot()
    : id_(next_snapshot_id.fetch_add(1, std::memory_order_relaxed)) {}

Snapshot::Shard Snapshot::admit(std::vector<Label> labels,
                                bool allow_quarantine) {
  // The Labeling outlives the CRC check so a failed admission can keep
  // its labels as the heal source.
  Labeling part(std::move(labels));
  std::vector<std::uint8_t> image = store::StoreWriter::serialize(part, 1);
  // Chaos injection point: the plan may flip one bit of the fresh region
  // here, modeling memory or bus corruption during a reload.
  const std::size_t region_at = store::kHeaderBytes + store::kDirEntryBytes;
  fault::on_shard_admission(std::span(image).subspan(region_at));
  try {
    auto shard_store = store::MappedStore::from_image(image);
    if (!shard_store->shard_intact(0)) {
      throw CorruptionError("shard region", region_at,
                            "checksum mismatch at snapshot admission");
    }
    return plan_shard(std::move(shard_store), 0);
  } catch (const DecodeError& e) {
    if (!allow_quarantine) throw;
    Shard shard;
    shard.error = e.what();
    shard.heal_labels =
        std::make_shared<const std::vector<Label>>(part.labels());
    return shard;
  }
}

Snapshot::Shard Snapshot::plan_shard(
    std::shared_ptr<const store::MappedStore> store, std::size_t s) {
  // Structural gate first: with the offset table proven, plan building
  // (and any later BitReader walk) stays inside the store's bytes even
  // though a v3 file's shard CRC has not been checked yet.
  const auto labels = static_cast<std::size_t>(store->shard_labels(s));
  store::validate_offsets(store->shard_offsets(s), labels,
                          store->shard_total_bits(s));
  Shard sh;
  sh.views = std::make_shared<const std::vector<LabelView>>(
      store::build_plans(store->shard_bits(s), store->shard_offsets(s),
                         labels));
  sh.store = std::move(store);
  sh.index = s;
  return sh;
}

std::shared_ptr<const Snapshot> Snapshot::with_shard(std::size_t s,
                                                     Shard shard) const {
  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->map_ = map_;
  snap->shards_ = shards_;  // shared_ptr copies; no label data moves
  snap->shards_[s] = std::move(shard);
  snap->recompute_totals();
  return snap;
}

void Snapshot::recompute_totals() noexcept {
  total_bytes_ = 0;
  num_quarantined_ = 0;
  for (const Shard& sh : shards_) {
    total_bytes_ += sh.healthy() ? sh.store->shard_bytes(sh.index) : 0u;
    num_quarantined_ += sh.healthy() ? 0u : 1u;
  }
}

std::shared_ptr<const Snapshot> Snapshot::admit_all(
    std::uint64_t n, std::size_t num_shards, bool allow_quarantine,
    unsigned build_workers,
    const std::function<Label(std::uint64_t)>& label_of) {
  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->map_ = ShardMap(n, num_shards);
  snap->shards_.resize(snap->map_.num_shards());
  for_each_shard(
      snap->map_.num_shards(), build_workers, [&](std::size_t s) {
        std::vector<Label> part;
        const std::uint64_t begin = snap->map_.shard_begin(s);
        const std::uint64_t end = snap->map_.shard_end(s);
        part.reserve(static_cast<std::size_t>(end - begin));
        for (std::uint64_t v = begin; v < end; ++v) {
          part.push_back(label_of(v));
        }
        snap->shards_[s] = admit(std::move(part), allow_quarantine);
      });
  snap->recompute_totals();
  return snap;
}

std::shared_ptr<const Snapshot> Snapshot::build(const Labeling& labeling,
                                                std::size_t num_shards,
                                                bool allow_quarantine,
                                                unsigned build_workers) {
  return admit_all(labeling.size(), num_shards, allow_quarantine,
                   build_workers, [&labeling](std::uint64_t v) {
                     return labeling[static_cast<Vertex>(v)];
                   });
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
  return admit_all(whole.size(), num_shards, allow_quarantine, build_workers,
                   [&whole](std::uint64_t v) { return whole.get(v); });
}

std::shared_ptr<const Snapshot> Snapshot::from_mapped(const std::string& path,
                                                      bool allow_quarantine,
                                                      unsigned build_workers) {
  // Header/directory failures always throw (an unreadable source is
  // never quarantined, matching the v1/v2 file-parse contract).
  const auto mapped = store::MappedStore::open(path);
  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->map_ = ShardMap(mapped->num_labels(), mapped->num_shards());
  snap->shards_.resize(mapped->num_shards());
  for_each_shard(
      mapped->num_shards(), build_workers, [&](std::size_t s) {
        try {
          snap->shards_[s] = plan_shard(mapped, s);
        } catch (const DecodeError& e) {
          if (!allow_quarantine) throw;
          // A structurally bad offsets table usually means the region
          // rotted wholesale; the disk re-read (CRC-gated) decides
          // whether a heal source exists at all.
          snap->shards_[s].error = e.what();
          snap->shards_[s].heal_labels = heal_source(*mapped, s);
        }
      });
  snap->recompute_totals();
  return snap;
}

std::shared_ptr<const Snapshot> Snapshot::heal_shard(std::size_t s) const {
  // admit() takes a copy of the heal source: a failed re-admission must
  // leave the original snapshot's heal_labels intact for the next
  // attempt. The healed shard comes back as a one-shard in-memory image,
  // even in an otherwise mmap'd snapshot — its mapped bytes went bad.
  return with_shard(s, admit(*shards_[s].heal_labels,
                             /*allow_quarantine=*/false));
}

std::shared_ptr<const Snapshot> Snapshot::with_quarantined_shard(
    std::size_t s, std::string reason) const {
  // A demoted v3-file shard re-reads its heal source from the FILE, not
  // the suspect mapping — memory-side rot of a clean file heals; on-disk
  // rot makes the shard unhealable. An in-memory image re-reads itself.
  const Shard& old = shards_[s];
  Shard sh;
  sh.error = std::move(reason);
  sh.heal_labels =
      old.healthy() ? heal_source(*old.store, old.index) : old.heal_labels;
  return with_shard(s, std::move(sh));
}

}  // namespace plg::service
