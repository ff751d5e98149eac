#include "store/mapped_store.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "core/label_store.h"
#include "store/plan_builder.h"
#include "util/bit_stream.h"
#include "util/crc32.h"
#include "util/errors.h"
#include "util/fault_injection.h"

namespace plg::store {

namespace {

// plglint: wire-read
template <typename T>
T read_le(const std::uint8_t* p) noexcept {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

/// Decodes label i out of a shard's (offsets, bits) pair — the one
/// BitReader round-trip both the mapped and the re-read heal paths use.
/// The offsets table is file-controlled data: every entry is pinned to
/// [0, total_bits] before any pointer is derived from it.
// plglint: untrusted-input(offsets)
Label decode_label(const std::uint64_t* offsets, const std::uint64_t* bits,
                   std::size_t i, std::uint64_t total_bits) {
  const std::uint64_t start = offsets[i];
  const std::uint64_t end = offsets[i + 1];
  if (end > total_bits || start > end) {
    throw DecodeError("MappedStore: offsets table points outside its shard");
  }
  BitReader r(bits + start / 64,
              static_cast<std::size_t>(end - (start / 64) * 64));
  if (start % 64 != 0) (void)r.read_bits(static_cast<int>(start % 64));
  BitWriter w;
  std::uint64_t remaining = end - start;
  while (remaining > 0) {
    const int chunk = static_cast<int>(std::min<std::uint64_t>(64, remaining));
    w.write_bits(r.read_bits(chunk), chunk);
    remaining -= static_cast<std::uint64_t>(chunk);
  }
  return Label::from_writer(std::move(w));
}

}  // namespace

std::uint32_t MappedStore::sniff_file_version(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::uint8_t head[8];
  in.read(reinterpret_cast<char*>(head), sizeof(head));
  if (in.gcount() != sizeof(head)) return 0;
  if (read_le<std::uint32_t>(head) != kMagicV3) return 0;
  return read_le<std::uint32_t>(head + 4);
}

std::shared_ptr<const MappedStore> MappedStore::open(const std::string& path) {
  // Under an active map-flip plan the mapping must be privately writable
  // so the injected rot stays copy-on-write (the file is never dirtied).
  const bool writable =
      fault::enabled() && fault::active_plan().map_flips > 0;

  auto store = std::shared_ptr<MappedStore>(new MappedStore());
  store->path_ = path;
  store->file_ = MappedFile::open(path, writable);
  store->validate(store->file_.data(), store->file_.size());

  // Chaos hook: rot the (copy-on-write) shard payload span. Applied after
  // validation so injected damage models post-admission memory rot, the
  // case the lazy CRC + quarantine + disk re-read pipeline must catch.
  if (writable) {
    const std::uint64_t payload_at = store->dir_.front().byte_off;
    fault::on_map_region(store->file_.mutable_data() + payload_at,
                         static_cast<std::size_t>(store->size_ - payload_at));
  }
  return store;
}

std::shared_ptr<const MappedStore> MappedStore::from_image(
    const std::vector<std::uint8_t>& image) {
  auto store = std::shared_ptr<MappedStore>(new MappedStore());
  store->path_ = "in-memory v3 image";
  store->image_.resize((image.size() + 7) / 8);
  auto* words = reinterpret_cast<std::uint8_t*>(store->image_.data());
  std::copy(image.begin(), image.end(), words);
  store->validate(words, image.size());
  return store;
}

// plglint: untrusted-input
void MappedStore::validate(const std::uint8_t* base, std::uint64_t size) {
  data_ = base;
  size_ = size;

  // ---- SIGBUS guard, stage 1: the fixed-size header. Nothing in the
  // mapping is dereferenced before its extent is proven to exist.
  if (size < kHeaderBytes) {
    throw DecodeError("MappedStore: " + path_ + " truncated (" +
                      std::to_string(size) + " bytes, header needs " +
                      std::to_string(kHeaderBytes) + ")");
  }
  if (read_le<std::uint32_t>(base) != kMagicV3) {
    throw DecodeError("MappedStore: bad magic in " + path_);
  }
  const auto version = read_le<std::uint32_t>(base + 4);
  if (version != kVersion3) {
    throw DecodeError("MappedStore: " + path_ + " is format v" +
                      std::to_string(version) +
                      " — only v3 is mmap-servable (use plgtool pack)");
  }
  n_ = read_le<std::uint64_t>(base + 8);
  total_bits_ = read_le<std::uint64_t>(base + 16);
  const auto num_shards = read_le<std::uint32_t>(base + 24);
  const auto header_crc = read_le<std::uint32_t>(base + kHeaderCrcAt);
  const auto dir_crc = read_le<std::uint32_t>(base + kDirCrcAt);

  // The header CRC is verified EAGERLY (unlike shard payloads): a flipped
  // bit in n or num_shards would otherwise mis-route every later read.
  if (crc32c(base, kHeaderCrcCoverage) != header_crc) {
    throw CorruptionError("header", 0, "v3 header checksum mismatch");
  }

  // ---- SIGBUS guard, stage 2: the directory extent, then its CRC.
  if (num_shards == 0) {
    throw DecodeError("MappedStore: " + path_ + " declares zero shards");
  }
  if (num_shards > (size - kHeaderBytes) / kDirEntryBytes) {
    throw DecodeError("MappedStore: declared shard count " +
                      std::to_string(num_shards) + " exceeds file size");
  }
  const std::uint64_t dir_bytes =
      static_cast<std::uint64_t>(num_shards) * kDirEntryBytes;
  if (crc32c(base + kHeaderBytes, static_cast<std::size_t>(dir_bytes)) !=
      dir_crc) {
    throw CorruptionError("directory", kHeaderBytes,
                          "v3 shard-directory checksum mismatch");
  }

  // ---- SIGBUS guard, stage 3: every region's geometry against the real
  // file size. Regions must be exactly adjacent, 8-aligned, and their
  // lengths must equal the layout arithmetic — after this loop no label
  // extent reachable through the offsets tables can leave the mapping
  // (validate_offsets pins the per-shard tables at plan-build time).
  fault::check_untrusted_alloc(dir_bytes + num_shards * sizeof(LazySlot),
                               "MappedStore::open");
  dir_.resize(num_shards);
  std::uint64_t cursor = kHeaderBytes + dir_bytes;
  std::uint64_t sum_labels = 0;
  std::uint64_t sum_bits = 0;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const std::uint8_t* e = base + kHeaderBytes + s * kDirEntryBytes;
    ShardDirEntry& entry = dir_[s];
    entry.byte_off = read_le<std::uint64_t>(e);
    entry.byte_len = read_le<std::uint64_t>(e + 8);
    entry.label_count = read_le<std::uint64_t>(e + 16);
    entry.total_bits = read_le<std::uint64_t>(e + 24);
    entry.crc = read_le<std::uint32_t>(e + 32);
    entry.reserved = read_le<std::uint32_t>(e + 36);
    // Bound count/bits by the file size before the layout arithmetic so
    // shard_region_bytes cannot overflow on a hostile directory.
    if (entry.label_count > size / 8 || entry.total_bits > size * 8) {
      throw DecodeError("MappedStore: shard " + std::to_string(s) +
                        " directory entry exceeds file size");
    }
    if (entry.byte_off != cursor || entry.byte_off % 8 != 0) {
      throw DecodeError("MappedStore: shard " + std::to_string(s) +
                        " region is not adjacent/aligned at byte " +
                        std::to_string(entry.byte_off));
    }
    if (entry.byte_len !=
        shard_region_bytes(entry.label_count, entry.total_bits)) {
      throw DecodeError("MappedStore: shard " + std::to_string(s) +
                        " region length disagrees with its label count");
    }
    if (entry.byte_len > size - entry.byte_off) {
      throw DecodeError("MappedStore: shard " + std::to_string(s) +
                        " region extends past end of file");
    }
    cursor = entry.byte_off + entry.byte_len;
    sum_labels += entry.label_count;
    sum_bits += entry.total_bits;
  }
  if (cursor != size) {
    throw DecodeError("MappedStore: " + path_ + " has " +
                      std::to_string(size - cursor) +
                      " trailing bytes past the last shard region");
  }
  if (sum_labels != n_ || sum_bits != total_bits_) {
    throw DecodeError(
        "MappedStore: shard directory totals disagree with the header");
  }

  // The file's partition must be the canonical ShardMap one — that is
  // what lets Snapshot route queries with pure arithmetic instead of a
  // per-vertex lookup table.
  map_ = ShardMap(n_, num_shards);
  if (map_.num_shards() != num_shards) {
    throw DecodeError("MappedStore: shard count " +
                      std::to_string(num_shards) +
                      " is not the canonical partition for " +
                      std::to_string(n_) + " labels");
  }
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    if (dir_[s].label_count != map_.shard_size(s)) {
      throw DecodeError("MappedStore: shard " + std::to_string(s) +
                        " label count disagrees with the ShardMap partition");
    }
  }

  lazy_ = std::make_unique<LazySlot[]>(num_shards);
}

const std::uint64_t* MappedStore::shard_offsets(std::size_t s) const noexcept {
  return reinterpret_cast<const std::uint64_t*>(base() + dir_[s].byte_off);
}

const std::uint8_t* MappedStore::shard_labelsums(
    std::size_t s) const noexcept {
  return base() + dir_[s].byte_off + sums_offset_in_region(dir_[s].label_count);
}

const std::uint64_t* MappedStore::shard_bits(std::size_t s) const noexcept {
  return reinterpret_cast<const std::uint64_t*>(
      base() + dir_[s].byte_off + bits_offset_in_region(dir_[s].label_count));
}

bool MappedStore::verify_shard_once(std::size_t s) const noexcept {
  const LazySlot& slot = lazy_[s];
  std::call_once(slot.once, [&]() noexcept {
    bool ok = crc32c(base() + dir_[s].byte_off,
                     static_cast<std::size_t>(dir_[s].byte_len)) ==
              dir_[s].crc;
    // A matching CRC proves the bytes are what the writer wrote, not
    // that the writer was honest: a hostile file can carry a correct
    // checksum over an offsets table pointing outside its shard. Pin
    // the table here, under the same once_flag, so every CRC-gated
    // reader (get, view plans, load_all) inherits the guarantee.
    if (ok) {
      try {
        validate_offsets(shard_offsets(s),
                         static_cast<std::size_t>(dir_[s].label_count),
                         dir_[s].total_bits);
      } catch (const DecodeError&) {
        ok = false;
      }
    }
    slot.state.store(
        static_cast<std::uint8_t>(ok ? ShardCrcState::kVerified
                                     : ShardCrcState::kCorrupt),
        std::memory_order_release);
  });
  return slot.state.load(std::memory_order_acquire) ==
         static_cast<std::uint8_t>(ShardCrcState::kVerified);
}

Label MappedStore::get(std::size_t s, std::size_t i) const {
  if (s >= dir_.size() || i >= dir_[s].label_count) {
    throw DecodeError("MappedStore: label index out of range");
  }
  if (!shard_intact(s)) {
    throw DecodeError("MappedStore: shard " + std::to_string(s) +
                      " failed its lazy CRC check");
  }
  return decode_label(shard_offsets(s), shard_bits(s), i,
                      dir_[s].total_bits);
}

bool MappedStore::verify_label(std::size_t s, std::size_t i) const {
  return label_spot_checksum(get(s, i)) == shard_labelsums(s)[i];
}

// plglint: untrusted-input(region)
std::vector<Label> MappedStore::read_shard_labels(std::size_t s) const {
  if (s >= dir_.size()) {
    throw DecodeError("MappedStore: shard index out of range");
  }
  const ShardDirEntry& e = dir_[s];
  // A file is re-read (its mapping may have rotted); an image reads itself.
  std::vector<std::uint64_t> reread;
  const std::uint64_t* region = shard_offsets(s);
  if (image_.empty()) {
    // Word-typed buffer: byte_len is a multiple of 8 by construction and
    // the offsets/bits views below need 8-byte alignment.
    reread.resize(static_cast<std::size_t>(e.byte_len / 8));
    std::ifstream in(path_, std::ios::binary);
    if (!in) {
      throw DecodeError("MappedStore: cannot re-open " + path_ +
                        " for shard heal");
    }
    in.seekg(static_cast<std::streamoff>(e.byte_off));
    in.read(reinterpret_cast<char*>(reread.data()),
            static_cast<std::streamsize>(e.byte_len));
    if (in.gcount() != static_cast<std::streamsize>(e.byte_len)) {
      throw DecodeError("MappedStore: short read re-loading shard " +
                        std::to_string(s) + " from " + path_);
    }
    region = reread.data();
  }
  // The source bytes must match the directory CRC on their own: a shard
  // that is rotten at its source is unhealable from it, and pretending
  // otherwise would re-admit bad bits.
  if (crc32c(region, static_cast<std::size_t>(e.byte_len)) != e.crc) {
    throw DecodeError("MappedStore: shard " + std::to_string(s) +
                      " is corrupt in " + path_ + "; cannot heal");
  }
  const std::uint64_t* offsets = region;
  const std::uint64_t* bits =
      region + bits_offset_in_region(e.label_count) / 8;
  // The re-read table gets the same honesty check the mapped one gets in
  // verify_shard_once — a CRC-consistent hostile file must not steer the
  // decode loop outside `region`.
  validate_offsets(offsets, static_cast<std::size_t>(e.label_count),
                   e.total_bits);
  std::vector<Label> labels;
  labels.reserve(static_cast<std::size_t>(e.label_count));
  for (std::size_t i = 0; i < e.label_count; ++i) {
    labels.push_back(decode_label(offsets, bits, i, e.total_bits));
  }
  return labels;
}

Labeling MappedStore::load_all() const {
  std::vector<Label> labels;
  labels.reserve(static_cast<std::size_t>(n_));
  for (std::size_t s = 0; s < dir_.size(); ++s) {
    if (!shard_intact(s)) {
      throw DecodeError("MappedStore: shard " + std::to_string(s) +
                        " failed its CRC; cannot load " + path_);
    }
    for (std::size_t i = 0; i < dir_[s].label_count; ++i) {
      labels.push_back(
          decode_label(shard_offsets(s), shard_bits(s), i,
                       dir_[s].total_bits));
    }
  }
  return Labeling(std::move(labels));
}

}  // namespace plg::store
