#include "store/store_writer.h"

#include <cstring>
#include <fstream>

#include "core/label.h"
#include "core/label_store.h"
#include "store/format_v3.h"
#include "store/shard_map.h"
#include "util/bits.h"
#include "util/crc32.h"
#include "util/errors.h"
#include "util/fault_injection.h"

namespace plg::store {

namespace {

template <typename T>
void poke(std::vector<std::uint8_t>& out, std::size_t at, T value) {
  std::memcpy(out.data() + at, &value, sizeof(T));
}

/// The label a source's nullptr stands for.
const Label& or_empty(const Label* l) {
  static const Label empty;
  return l != nullptr ? *l : empty;
}

LabelOf every_label(const Labeling& labeling) {
  return [&labeling](std::uint64_t v) {
    return &labeling[static_cast<Vertex>(v)];
  };
}

}  // namespace

std::vector<std::uint8_t> StoreWriter::serialize(std::uint64_t n,
                                                 const LabelOf& label_of,
                                                 std::size_t num_shards) {
  const ShardMap map(n, num_shards);
  const std::size_t shards = map.num_shards();

  // Pass 1: directory geometry. Region offsets/lengths are a pure
  // function of the per-shard label sizes, so the whole blob can be
  // sized before any bits are written (CRCs patched in pass 2).
  std::vector<ShardDirEntry> dir(shards);
  std::uint64_t total_bits = 0;
  std::uint64_t cursor = kHeaderBytes + kDirEntryBytes * shards;
  for (std::size_t s = 0; s < shards; ++s) {
    ShardDirEntry& e = dir[s];
    e.label_count = map.shard_size(s);
    for (std::uint64_t v = map.shard_begin(s); v < map.shard_end(s); ++v) {
      e.total_bits += or_empty(label_of(v)).size_bits();
    }
    e.byte_off = cursor;
    e.byte_len = shard_region_bytes(e.label_count, e.total_bits);
    cursor += e.byte_len;
    total_bits += e.total_bits;
  }

  // Zero-filled: the CRC fields, the pads and each region's last bits
  // word are right before anything is written into them.
  std::vector<std::uint8_t> out(static_cast<std::size_t>(cursor));
  poke(out, 0, kMagicV3);
  poke(out, 4, kVersion3);
  poke(out, 8, n);
  poke(out, 16, total_bits);
  poke(out, 24, static_cast<std::uint32_t>(shards));
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t at = kHeaderBytes + kDirEntryBytes * s;
    poke(out, at, dir[s].byte_off);
    poke(out, at + 8, dir[s].byte_len);
    poke(out, at + 16, dir[s].label_count);
    poke(out, at + 24, dir[s].total_bits);
  }

  // Pass 2: each shard region in place — offset, labelsum and bits of one
  // label at a time — then the region CRC into the directory (32 bytes
  // into the entry, after four u64 fields).
  for (std::size_t s = 0; s < shards; ++s) {
    const ShardDirEntry& e = dir[s];
    const auto region = static_cast<std::size_t>(e.byte_off);
    const std::size_t sums =
        region + static_cast<std::size_t>(sums_offset_in_region(e.label_count));
    std::uint8_t* bits =
        out.data() + region + bits_offset_in_region(e.label_count);
    std::uint64_t offset = 0;
    std::size_t i = 0;
    for (std::uint64_t v = map.shard_begin(s); v < map.shard_end(s);
         ++v, ++i) {
      const Label& l = or_empty(label_of(v));
      out[sums + i] = label_spot_checksum(l);
      append_bits(bits, offset, l.words().data(), l.size_bits());
      offset += l.size_bits();
      poke(out, region + 8 * (i + 1), offset);
    }
    poke(out, kHeaderBytes + kDirEntryBytes * s + 32,
         crc32c(out.data() + region, static_cast<std::size_t>(e.byte_len)));
  }

  poke(out, kHeaderCrcAt, crc32c(out.data(), kHeaderCrcCoverage));
  poke(out, kDirCrcAt,
       crc32c(out.data() + kHeaderBytes, kDirEntryBytes * shards));
  return out;
}

std::vector<std::uint8_t> StoreWriter::serialize(const Labeling& labeling,
                                                 std::size_t num_shards) {
  return serialize(labeling.size(), every_label(labeling), num_shards);
}

void StoreWriter::write_file(const std::string& path, std::uint64_t n,
                             const LabelOf& label_of, std::size_t num_shards) {
  const auto blob = serialize(n, label_of, num_shards);
  std::ofstream file(path, std::ios::binary);
  if (!file) throw EncodeError("StoreWriter: cannot open " + path);
  if (fault::enabled()) {
    fault::FaultOutputStream out(file, fault::active_plan());
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    out.flush();
    if (!out) throw EncodeError("StoreWriter: write failed for " + path);
  } else {
    file.write(reinterpret_cast<const char*>(blob.data()),
               static_cast<std::streamsize>(blob.size()));
  }
  file.flush();
  if (!file) throw EncodeError("StoreWriter: write failed for " + path);
}

void StoreWriter::write_file(const std::string& path, const Labeling& labeling,
                             std::size_t num_shards) {
  write_file(path, labeling.size(), every_label(labeling), num_shards);
}

}  // namespace plg::store
