// MappedStore: zero-copy reader for the .plgl v3 layout
// (store/format_v3.h) over one byte owner: an mmap'd file (open) or an
// in-memory image (from_image), validated and read the same way.
//
// Admission is O(milliseconds), not O(store): open() maps the file,
// eagerly validates only the header + shard directory (their CRCs plus
// full structural bounds against the real byte count — the SIGBUS guard:
// after validation succeeds, every byte any accessor can reach is inside
// the owner's bytes), and defers shard-payload CRCs entirely.
//
// Lazy per-shard integrity — the state machine:
//
//        open()                 first shard_intact(s) call
//   kUnverified  ── call_once: CRC-32C over the region ──▶  kVerified
//                                      └────────────────▶  kCorrupt
//
// The transition runs at most once per shard per store (std::once_flag;
// concurrent first touches block until the winner publishes) and the
// verdict is sticky. get()/load_shard() refuse a shard that is not
// kVerified by throwing DecodeError, which is precisely the engine's
// quarantine trigger: a corrupt shard's first query answers kCorrupt,
// the shard is demoted via Snapshot::with_quarantined_shard, and the
// heal path re-reads the shard's bytes FROM THE FILE (read_shard_labels
// — a fresh pread-style read, not the possibly-rotten private mapping),
// so memory-side damage of a clean file genuinely self-heals.
//
// Plan building may read payload bytes BEFORE their CRC is checked
// (validate_offsets makes that memory-safe); no adjacency answer is ever
// produced from unverified bits, because Snapshot gates both view() and
// get() on shard_intact().
//
// Thread-safety: all members are immutable after open() except the lazy
// CRC slots, which use once_flag + release/acquire atomics (TSan-clean).
// Any number of threads may use one shared MappedStore concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/label.h"
#include "core/labeling.h"
#include "util/lifetime.h"
#include "store/format_v3.h"
#include "store/mapped_file.h"
#include "store/shard_map.h"

namespace plg::store {

/// Observable lazy-CRC verdict for one shard (plgtool verify reports
/// these; reading the state never triggers verification).
enum class ShardCrcState : std::uint8_t {
  kUnverified = 0,
  kVerified = 1,
  kCorrupt = 2,
};

class MappedStore {
 public:
  /// Maps `path` and validates the header + directory (magic, version,
  /// both CRCs, every region's alignment/extent/adjacency against the
  /// real file size). Throws DecodeError / CorruptionError on any
  /// structural or header/directory-CRC failure; shard-payload CRCs are
  /// NOT checked here. Returns shared ownership because snapshot shards
  /// alias the mapping and must keep it alive collectively.
  static std::shared_ptr<const MappedStore> open(const std::string& path);

  /// open() over a copy of an in-memory v3 image (shard CRCs stay lazy),
  /// held as u64 words so the offsets and bits sections are read as the
  /// type they are stored as.
  static std::shared_ptr<const MappedStore> from_image(
      const std::vector<std::uint8_t>& image);

  /// Reads the first 8 bytes of `path` and returns the format version
  /// (1/2/3), or 0 when the file is unreadable or not a .plgl store.
  static std::uint32_t sniff_file_version(const std::string& path);

  const std::string& path() const noexcept { return path_; }
  std::uint64_t num_labels() const noexcept { return n_; }
  std::uint64_t total_bits() const noexcept { return total_bits_; }
  std::size_t num_shards() const noexcept { return dir_.size(); }
  std::uint64_t file_bytes() const noexcept { return size_; }
  /// The partition the file was written with (ShardMap(n, num_shards)).
  const ShardMap& shard_map() const noexcept { return map_; }

  // --- per-shard raw access (pointers alias the mapping; 8-aligned) ---

  std::uint64_t shard_labels(std::size_t s) const noexcept {
    return dir_[s].label_count;
  }
  std::uint64_t shard_total_bits(std::size_t s) const noexcept {
    return dir_[s].total_bits;
  }
  std::uint64_t shard_bytes(std::size_t s) const noexcept {
    return dir_[s].byte_len;
  }
  /// Cumulative shard-local bit offsets, label_count + 1 entries.
  const std::uint64_t* shard_offsets(std::size_t s) const noexcept
      PLG_LIFETIME_BOUND;
  /// Per-label spot checksums, label_count entries.
  const std::uint8_t* shard_labelsums(std::size_t s) const noexcept
      PLG_LIFETIME_BOUND;
  /// Packed label bits, words_for_bits(shard_total_bits) words.
  const std::uint64_t* shard_bits(std::size_t s) const noexcept
      PLG_LIFETIME_BOUND;

  // --- lazy integrity ---

  /// First call per shard CRCs the whole region (once_flag); later calls
  /// are one acquire load. True iff the shard's bytes match the
  /// directory CRC recorded at write time. Snapshot::view() pays this
  /// twice per query, so the settled-verdict path stays inline and only
  /// the first touch leaves the header.
  // plglint: noexcept-hot-path
  bool shard_intact(std::size_t s) const noexcept {
    const std::uint8_t st = lazy_[s].state.load(std::memory_order_acquire);
    if (st != static_cast<std::uint8_t>(ShardCrcState::kUnverified)) {
      return st == static_cast<std::uint8_t>(ShardCrcState::kVerified);
    }
    return verify_shard_once(s);
  }

  /// The shard's current verdict WITHOUT triggering verification.
  ShardCrcState shard_crc_state(std::size_t s) const noexcept {
    return static_cast<ShardCrcState>(
        lazy_[s].state.load(std::memory_order_acquire));
  }

  // --- label access (all gate on shard_intact) ---

  /// Materializes label `i` of shard `s`. Throws DecodeError when the
  /// shard failed its lazy CRC (the quarantine trigger) or on bad
  /// indices.
  Label get(std::size_t s, std::size_t i) const;

  /// get() routed through the file's own partition: v is a global vertex
  /// id.
  Label get_global(std::uint64_t v) const {
    return get(map_.shard_of(v),
               static_cast<std::size_t>(map_.index_in_shard(v)));
  }

  /// Size in bits of label i of shard s (structural; no CRC gate).
  std::uint64_t label_bits(std::size_t s, std::size_t i) const noexcept {
    const std::uint64_t* off = shard_offsets(s);
    return off[i + 1] - off[i];
  }

  /// Re-derives the label's spot checksum against the stored sum.
  /// Throws like get() when the shard failed its CRC.
  bool verify_label(std::size_t s, std::size_t i) const;

  /// Decodes every label of shard s from a FRESH read of the file (not
  /// the mapping; an in-memory image reads itself), CRC-verifying the
  /// bytes first. This is the self-heal source: damage confined to the
  /// private mapping does not exist on disk, so the returned labels are
  /// clean. Throws DecodeError when the source bytes themselves fail the
  /// CRC or cannot be read (the shard is then genuinely unhealable).
  std::vector<Label> read_shard_labels(std::size_t s) const;

  /// Materializes the whole store (plgtool pack/stats). Requires every
  /// shard to pass its CRC; throws DecodeError naming the first corrupt
  /// shard.
  Labeling load_all() const;

 private:
  MappedStore() = default;

  /// Adopts [base, base + size) as data_/size_ and runs the header +
  /// directory validation both owners share. Throws DecodeError.
  void validate(const std::uint8_t* base, std::uint64_t size);

  /// Slow half of shard_intact: runs (or waits for) the once-per-shard
  /// CRC pass and returns the settled verdict.
  bool verify_shard_once(std::size_t s) const noexcept;

  struct LazySlot {
    mutable std::once_flag once;
    mutable std::atomic<std::uint8_t> state{
        static_cast<std::uint8_t>(ShardCrcState::kUnverified)};
  };

  const std::uint8_t* base() const noexcept { return data_; }

  MappedFile file_;  // exactly one owner holds the bytes data_ views
  std::vector<std::uint64_t> image_;
  const std::uint8_t* data_ = nullptr;
  std::uint64_t size_ = 0;
  std::string path_;
  std::uint64_t n_ = 0;
  std::uint64_t total_bits_ = 0;
  ShardMap map_;
  std::vector<ShardDirEntry> dir_;
  std::unique_ptr<LazySlot[]> lazy_;
};

}  // namespace plg::store
